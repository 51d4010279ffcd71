"""Runtime sanitizers: pure observers of a simulated run.

Where :mod:`repro.analysis.lint` checks the *source*, these check an
*execution*.  A :class:`SanitizerSet` hangs off the network
(``network.sanitizers``) and the comms session
(``session.sanitizers``); instrumented code notifies it at
protocol-visible points and each checker validates an invariant the
reproduction promises:

========  ==========================================================
Rule      Invariant
========  ==========================================================
SAN101    Per-link FIFO: the fabric (even under a chaos
          :class:`~repro.sim.faults.FaultPlan`) never reorders
          messages between the same ``(src, dst, port)``.
SAN102    Monotonic reads: ``kvs_get_version`` at one rank never
          observes a version older than a previous read there (and
          the applied root never regresses).
SAN103    Read-your-writes: after a commit/fence ack at a rank, no
          read there may see a version older than the ack's.
SAN104    Span-forest well-formedness: every trace has one root,
          parents resolve, spans close (via
          :meth:`~repro.obs.span.SpanTracer.validate`).
SAN105    Replay determinism: two runs of the same seeded scenario
          produce identical event streams (fingerprint diff).
========  ==========================================================

**Purity contract**: sanitizers schedule no simulation events, draw no
randomness, and never mutate payloads — enabling them cannot change a
run.  The tests assert sanitizer-on runs are event-identical to
sanitizer-off runs.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from typing import Any, Callable, Optional

from .findings import Finding

__all__ = ["SanitizerSet", "FifoLinkSanitizer", "KvsConsistencySanitizer",
           "SpanForestSanitizer", "EventFingerprint",
           "replay_fingerprint_hook", "diff_fingerprints"]


class FifoLinkSanitizer:
    """Checks that deliveries on each ``(src, dst, port)`` link arrive
    in send order.

    Every send is stamped with a global sequence number keyed by the
    payload's identity (the broker wraps each transmission in a fresh
    ``(plane, msg)`` tuple, so identities are unique per send) and with
    the number of copies the fabric will deliver or drop — more than
    one when chaos duplicates it.  Duplicate deliveries of the same
    send carry the same stamp, so each copy is checked against send
    order and a copy overtaken by a later send is a violation; drops
    simply leave gaps.  A stamp lives only until its last copy is
    delivered or dropped (it pins the payload so the id stays unique
    meanwhile), so the table holds exactly the sends in flight.
    """

    def __init__(self, report: Callable[..., None]):
        self._report = report
        self._seq = 0
        # id(payload) -> (seq, copies in flight, payload): payload kept
        # to pin the id.
        self._stamps: dict[int, tuple[int, int, Any]] = {}
        # link -> (last delivered seq, its delivery time)
        self._last: dict[tuple, tuple[int, float]] = {}
        self.checked = 0

    def on_send(self, src: int, dst: int, port: Any, payload: Any,
                copies: int = 1) -> None:
        self._seq += 1
        key = id(payload)
        stamp = self._stamps.get(key)
        if stamp is not None:  # re-sent while earlier copies fly
            copies += stamp[1]
        self._stamps[key] = (self._seq, copies, payload)

    def _release(self, payload: Any) -> Optional[int]:
        """Retire one copy of ``payload``; returns its send seq, or
        ``None`` when it was never stamped (a direct inbox put)."""
        key = id(payload)
        stamp = self._stamps.get(key)
        if stamp is None:
            return None
        if stamp[1] == 1:
            del self._stamps[key]
        else:
            self._stamps[key] = (stamp[0], stamp[1] - 1, payload)
        return stamp[0]

    def on_deliver(self, src: int, dst: int, port: Any,
                   payload: Any) -> None:
        seq = self._release(payload)
        if seq is None:
            return
        link = (src, dst, port)
        self.checked += 1
        last = self._last.get(link)
        if last is not None and seq < last[0]:
            self._report(
                "SAN101",
                f"FIFO violation on link {src}->{dst} port {port!r}: "
                f"send #{seq} delivered after send #{last[0]} "
                f"(delivered at t={last[1]:.9g})",
                rank=dst, link=f"{src}->{dst}", seq=seq,
                overtaken_by=last[0])
            return
        self._last[link] = (seq, self._now())

    def on_drop(self, src: int, dst: int, payload: Any) -> None:
        """Drops are FIFO-legal: nothing to check, one copy retired."""
        self._release(payload)

    # patched in by SanitizerSet so reports carry sim time
    def _now(self) -> float:
        return 0.0


class KvsConsistencySanitizer:
    """Happens-before checker for the KVS consistency model.

    Tracks three per-``(namespace, rank)`` waterlines:

    - ``read floor`` — highest version a read returned there
      (monotonic reads, SAN102);
    - ``write floor`` — highest version acknowledged to a committer
      or released fence participant there (read-your-writes, SAN103);
    - ``applied`` — highest root version applied there (regression
      guard, reported as SAN102).

    The KVS module notifies at response time (``getversion`` /
    ``getroot`` / immediate ``waitversion``) and at commit/fence-ack
    time; each observation is checked against the floors, then raises
    them.
    """

    def __init__(self, report: Callable[..., None]):
        self._report = report
        self._read_floor: dict[tuple[str, int], int] = {}
        self._write_floor: dict[tuple[str, int], int] = {}
        self._applied: dict[tuple[str, int], int] = {}
        self.reads = 0
        self.acks = 0

    def kvs_read(self, ns: str, rank: int, version: int) -> None:
        key = (ns, rank)
        self.reads += 1
        wf = self._write_floor.get(key)
        rf = self._read_floor.get(key)
        if wf is not None and version < wf:
            self._report(
                "SAN103",
                f"read-your-writes violation: kvs {ns!r} rank {rank} "
                f"read version {version} after a commit/fence ack at "
                f"version {wf}",
                rank=rank, ns=ns, version=version, floor=wf)
        elif rf is not None and version < rf:
            self._report(
                "SAN102",
                f"monotonic-reads violation: kvs {ns!r} rank {rank} "
                f"read version {version} after reading {rf}",
                rank=rank, ns=ns, version=version, floor=rf)
        if rf is None or version > rf:
            self._read_floor[key] = version

    def kvs_commit_ack(self, ns: str, rank: int, version: int) -> None:
        key = (ns, rank)
        self.acks += 1
        if version > self._write_floor.get(key, -1):
            self._write_floor[key] = version

    def kvs_root_applied(self, ns: str, rank: int, version: int) -> None:
        key = (ns, rank)
        prev = self._applied.get(key)
        if prev is not None and version < prev:
            self._report(
                "SAN102",
                f"root regression: kvs {ns!r} rank {rank} applied "
                f"version {version} after {prev}",
                rank=rank, ns=ns, version=version, floor=prev)
        if prev is None or version > prev:
            self._applied[key] = version


class SpanForestSanitizer:
    """End-of-run structural check of the causal span forest.

    Delegates to :meth:`repro.obs.span.SpanTracer.validate` — one root
    per trace, parents resolve, spans closed — and converts each
    problem string into a SAN104 finding.
    """

    def __init__(self, report: Callable[..., None]):
        self._report = report
        self.tracer = None

    def attach(self, tracer) -> None:
        self.tracer = tracer

    def finish(self) -> None:
        if self.tracer is None:
            return
        self.tracer.close_open()
        for problem in self.tracer.validate():
            self._report("SAN104", f"malformed span forest: {problem}")


#: Session port keys (``cmb<N>``) come from a process-global counter
#: (:data:`repro.cmb.session._session_counter`), so the *names* of
#: inbox-channel events differ between two runs in the same process
#: even when the runs are identical.  Normalize them out of the
#: fingerprint; everything else about an event name is run-local.
_PORT_KEY_RE = re.compile(r"\bcmb\d+\b")


def _render(raw: Any) -> str:
    """An event's fingerprinted name: :attr:`Event.name`'s rendering of
    a lazy ``(fmt, *args)`` tuple, port keys normalized out."""
    name = raw[0] % raw[1:] if type(raw) is tuple else raw
    if "cmb" in name:
        name = _PORT_KEY_RE.sub("cmb*", name)
    return name


#: One ``%`` conversion: flags, width, precision, length, type char.
_CONVERSION_RE = re.compile(r"%[-#0 +]*(?:\*|\d+)?(?:\.(?:\*|\d+))?[hlL]?(.)")


@lru_cache(maxsize=256)
def _numeric_format(fmt: str) -> bool:
    """Whether every conversion in ``fmt`` is numeric (``%d``, ``%g``
    ...): equal numbers then render alike whatever their type."""
    return all(c in "diueEfFgG%" for c in _CONVERSION_RE.findall(fmt))


def _memoizable(raw: Any) -> bool:
    """Whether ``raw`` may key the name memo: every raw name that
    compares equal to it must render the same.  Plain strings do, and
    tuples whose arguments are all exact ``str`` or whose format is
    numeric; ``("x%s", 1)`` does not (``1.0`` and ``True`` equal it)."""
    return (type(raw) is str
            or all(type(a) is str for a in raw[1:])
            or _numeric_format(raw[0]))


class EventFingerprint:
    """Rolling SHA1 of a run's processed-event stream.

    A batched kernel recorder (:attr:`repro.sim.kernel.Simulation.
    recorder`, attached by :func:`replay_fingerprint_hook`): every
    drain path appends each processed heap entry ``(t, priority, seq,
    event)`` to :attr:`entries`, and :meth:`flush` hashes a full chunk
    of them at once.  SHA1 sees ``f"{t!r}|{priority}|{name}\n"`` per
    event, exactly as if each were fed alone.  A flush renders each
    distinct raw event name once through a memo keyed by the raw name
    itself, which admits only names that no differently-typed equal
    argument could render otherwise (``1``, ``1.0`` and ``True`` never
    share an entry; see :func:`_memoizable`), and ``repr``-s each
    timestamp once (the stream is time-ordered).  :meth:`digest`
    flushes the remainder, so a digest is final only when taken after
    the run.

    ``keep_records=True`` (default) additionally retains the ``(t,
    priority, name)`` triples so two divergent runs can report the
    *first* differing event, not just digest inequality.
    """

    #: Entries buffered before the kernel asks for a flush: small
    #: enough that a flush reads entries still in cache, large enough
    #: to amortize the join and the SHA1 update.
    chunk = 128

    __slots__ = ("entries", "records", "_n", "_h", "_names", "_t", "_tr",
                 "_p", "_pr")

    def __init__(self, keep_records: bool = True):
        self.entries: list[tuple] = []
        self.records: Optional[list[tuple[float, int, str]]] = (
            [] if keep_records else None)
        self._n = 0
        self._h = hashlib.sha1()
        # raw name -> rendered name + "\n"
        self._names: dict[Any, str] = {}
        # last timestamp / priority seen and their renderings
        self._t: Any = None
        self._tr = ""
        self._p: Any = None
        self._pr = ""

    @property
    def count(self) -> int:
        """Events recorded so far."""
        return self._n + len(self.entries)

    def flush(self) -> None:
        """Hash the buffered entries and empty the buffer in place."""
        entries = self.entries
        if not entries:
            return
        names = self._names
        records = self.records
        last, tr, lastp, pr = self._t, self._tr, self._p, self._pr
        parts: list[str] = []
        add = parts.append
        for t, priority, _seq, ev in entries:
            raw = ev._name
            name = names.get(raw)
            if name is None:
                name = _render(raw) + "\n"
                if _memoizable(raw):
                    names[raw] = name
            if priority is not lastp:
                lastp, pr = priority, f"|{priority}|"
            if t != last or type(t) is not type(last):
                last, tr = t, repr(t)
            add(tr)
            add(pr)
            add(name)
            if records is not None:
                records.append((t, priority, name[:-1]))
        self._t, self._tr, self._p, self._pr = last, tr, lastp, pr
        self._h.update("".join(parts).encode())
        self._n += len(entries)
        entries.clear()

    def digest(self) -> str:
        self.flush()
        return self._h.hexdigest()


def replay_fingerprint_hook(sim, keep_records: bool = True
                            ) -> EventFingerprint:
    """Attach an :class:`EventFingerprint` as ``sim.recorder``."""
    fp = EventFingerprint(keep_records)
    sim.recorder = fp
    return fp


def diff_fingerprints(first: EventFingerprint, second: EventFingerprint,
                      label: str = "replay") -> list[Finding]:
    """SAN105 findings describing how two same-seed runs diverged.

    Empty when the event streams are identical.  With records kept,
    pinpoints the first divergent event (simulated-time provenance);
    otherwise reports the digest/count mismatch alone.
    """
    if first.digest() == second.digest():
        return []
    findings = []
    if first.records is not None and second.records is not None:
        n = min(len(first.records), len(second.records))
        idx = next((i for i in range(n)
                    if first.records[i] != second.records[i]), n)
        a = first.records[idx] if idx < len(first.records) else None
        b = second.records[idx] if idx < len(second.records) else None
        findings.append(Finding(
            rule="SAN105", severity="error",
            message=(f"{label}: event streams diverge at event #{idx}: "
                     f"run1={a!r} run2={b!r}"),
            t=(a or b)[0] if (a or b) else None,
            extra={"index": idx,
                   "counts": [len(first.records), len(second.records)]}))
    else:
        findings.append(Finding(
            rule="SAN105", severity="error",
            message=(f"{label}: event-stream fingerprints differ "
                     f"({first.digest()[:12]} vs {second.digest()[:12]}, "
                     f"{first.count} vs {second.count} events)"),
            extra={"counts": [first.count, second.count]}))
    return findings


class SanitizerSet:
    """The hook hub instrumented code notifies.

    One instance aggregates every checker's findings with simulated-
    time provenance.  Attach with
    :meth:`repro.cmb.session.CommsSession.enable_sanitizers` (which
    also installs it on the network) or by setting
    ``network.sanitizers`` / ``session.sanitizers`` directly.
    """

    def __init__(self, now_fn: Optional[Callable[[], float]] = None):
        self._now = now_fn if now_fn is not None else (lambda: 0.0)
        self.findings: list[Finding] = []
        self.fifo = FifoLinkSanitizer(self._record)
        self.fifo._now = self._now
        self.kvs = KvsConsistencySanitizer(self._record)
        self.span = SpanForestSanitizer(self._record)
        self._finished = False

    def _record(self, rule: str, message: str, *, rank: int = -1,
                severity: str = "error", **extra: Any) -> None:
        self.findings.append(Finding(
            rule=rule, severity=severity, message=message,
            t=self._now(), rank=rank, extra=extra))

    # -- network hooks (called by repro.sim.network.Network) -----------
    def on_send(self, src: int, dst: int, port: Any, payload: Any,
                copies: int = 1) -> None:
        self.fifo.on_send(src, dst, port, payload, copies)

    def on_deliver(self, src: int, dst: int, port: Any,
                   payload: Any) -> None:
        self.fifo.on_deliver(src, dst, port, payload)

    def on_drop(self, src: int, dst: int, payload: Any) -> None:
        self.fifo.on_drop(src, dst, payload)

    # -- KVS hooks (called by repro.kvs.module.KvsModule) --------------
    def kvs_read(self, ns: str, rank: int, version: int) -> None:
        self.kvs.kvs_read(ns, rank, version)

    def kvs_commit_ack(self, ns: str, rank: int, version: int) -> None:
        self.kvs.kvs_commit_ack(ns, rank, version)

    def kvs_root_applied(self, ns: str, rank: int,
                         version: int) -> None:
        self.kvs.kvs_root_applied(ns, rank, version)

    # -- lifecycle -----------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Opt the span-forest checker in (needs tracing enabled)."""
        self.span.attach(tracer)

    def finish(self) -> list[Finding]:
        """Run end-of-run checks; returns all findings accumulated.

        Idempotent — safe to call from both the harness and tests.
        """
        if not self._finished:
            self._finished = True
            self.span.finish()
        return self.findings

    def stats(self) -> dict[str, int]:
        """Observer workload counters (for smoke-test sanity)."""
        return {"fifo_checked": self.fifo.checked,
                "kvs_reads": self.kvs.reads,
                "kvs_acks": self.kvs.acks,
                "findings": len(self.findings)}
