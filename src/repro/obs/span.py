"""Causal spans: distributed tracing for the simulated session.

A *trace* is the full causal tree of one client API call: the root
span opens when :meth:`Handle.rpc` (or ``publish``) is invoked, and
child spans open at every hop the message takes — broker forwarding,
module dispatch, KVS flush/commit relays, retries, retransmissions —
each recording its parent's span id.  Because the whole session runs
inside one simulation, a single :class:`SpanTracer` owned by the
session collects every span; span ids come from a deterministic
counter, never from the clock or RNG, so tracing cannot perturb the
simulation.

Span identity is the triple ``(trace_id, span_id, parent_span_id)``;
messages carry ``(trace_id, span_id)`` in the fixed-size header frame
(:class:`~repro.cmb.message.Message.span`), which rides free because
header size is a constant — enabling the byte-identical guarantee.
That same pair is the *context* the tracer hands out and takes back:
``start_trace`` / ``start_span`` return it and ``finish`` closes the
span it names.

Storage is column-wise, as in :mod:`repro.obs.flight`: one row per
span and no Python object per span on the record path.

- ``trace`` and ``parent`` (``0`` for a root) are ``array('q')``,
  ``rank`` and ``client`` (``0`` = no client) ``array('i')``: 24 B;
- ``t0`` and ``t1`` are ``array('d')``, with NaN in ``t1`` while the
  span is open: 16 B;
- ``kind``, ``topic`` and ``cat`` are lists of references to strings
  the caller already holds (``"dispatch"`` and the message's topic,
  say): 24 B.  A span's name is ``kind:topic`` (just ``kind`` when
  ``topic`` is ``None``), built only when someone reads it.

That is 64 B a span, ≈ 70 B with the columns' over-allocation.  Args
live in a side dict keyed by span id, only for the spans that record
any (a forwarding hop's ``hop`` and ``plane``).  All told a traced
64 × 16 KAP run (``kap_get_1k``'s shape, 25,745 spans) retains 83 B a
span, where one ``Span`` object per span, with its f-string name and
a root's ``client=`` dict, retained 333 B; ``tests/test_footprint.py``
holds the 16-node run to ≤ 96 B.  A span's id is its row index + 1,
so the context locates its row.

The read side — :attr:`SpanTracer.spans`, :meth:`~SpanTracer.traces`,
the critical path, the Chrome export — builds :class:`Span` views on
demand.  Exports Chrome trace-event JSON (the ``ph: "X"``
complete-event form) loadable in Perfetto / ``chrome://tracing``, and
computes the critical path of a trace: the chain of spans that
determined its end time.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import Any, Optional

__all__ = ["Span", "SpanTracer"]

#: Multiplier from simulated seconds to trace-event microseconds.
_US = 1e6

_NAN = math.nan


class Span:
    """A read-side view of one timed operation inside a trace.

    ``parent_id`` is ``None`` for a root and ``t1`` while the span is
    still open; ``args`` is ``None`` when the span recorded none.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "cat",
                 "rank", "t0", "t1", "args")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, cat: str,
                 rank: int, t0: float, t1: Optional[float],
                 args: Optional[dict[str, Any]]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.rank = rank
        self.t0 = t0
        self.t1 = t1
        self.args = args

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "cat": self.cat, "rank": self.rank,
                "t0": self.t0, "t1": self.t1, "args": self.args or {}}


class SpanTracer:
    """Collects spans for every trace in a session, one row each.

    All methods are no-ops in terms of simulation state: they never
    create events, draw randomness, or alter message sizes.  The
    session holds at most one tracer; when it is ``None`` the
    instrumentation sites skip all work (the byte-identical path).
    """

    def __init__(self, now_fn):
        self._now = now_fn
        #: Traces started here; their ids are 1..``_ntraces``.
        self._ntraces = 0
        self._trace = array("q")
        self._parent = array("q")
        self._rank = array("i")
        self._client = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._kind: list = []
        self._topic: list = []
        self._cat: list = []
        #: row + 1 -> the args that span recorded (only spans with
        #: any); row + 1 is the span id of a recorded span.
        self._args: dict[int, dict] = {}
        #: Trace ids of traces in which some span recorded an
        #: ``error`` arg (what :meth:`error_spans` ships).
        self._error: set[int] = set()
        #: ``None`` while spans are recorded here (span id = row + 1,
        #: times in simulated seconds).  A tracer rebuilt by
        #: :meth:`from_chrome_trace` keeps the export's span ids here
        #: and its ``ts`` / ``dur`` (µs) in ``t0`` / ``t1``, so a
        #: re-export reproduces the document exactly.
        self._ids: Optional[array] = None
        # The record path's appends, bound once.
        self._push = (self._trace.append, self._parent.append,
                      self._rank.append, self._client.append,
                      self._t0.append, self._t1.append,
                      self._kind.append, self._topic.append,
                      self._cat.append)

    # -- recording ------------------------------------------------------
    def _note_args(self, sid: int, tid: int, args: dict) -> None:
        """Merge a call's non-empty ``**args`` (a fresh dict each call,
        so the first one is adopted as is) into span ``sid``'s."""
        have = self._args.get(sid)
        if have is None:
            self._args[sid] = args
        else:
            have.update(args)
        if "error" in args:
            self._error.add(tid)

    def _open(self, tid: int, parent: int, kind: str,
              topic: Optional[str], cat: str, rank: int, client: int,
              closed: bool) -> int:
        (trace, par, ranks, clients, t0s, t1s, kinds, topics,
         cats) = self._push
        now = self._now()
        trace(tid)
        par(parent)
        ranks(rank)
        clients(client)
        t0s(now)
        t1s(now if closed else _NAN)
        kinds(kind)
        topics(topic)
        cats(cat)
        return len(self._kind)

    def start_trace(self, kind: str, topic: Optional[str], rank: int,
                    client: int = 0, **args: Any) -> tuple:
        """Open the root span of a new trace (one per client call,
        ``client`` naming its handle); returns its context."""
        tid = self._ntraces = self._ntraces + 1
        sid = self._open(tid, 0, kind, topic, "client", rank, client,
                         False)
        if args:
            self._note_args(sid, tid, args)
        return (tid, sid)

    def start_span(self, parent: Optional[tuple], kind: str,
                   topic: Optional[str], cat: str, rank: int,
                   **args: Any) -> Optional[tuple]:
        """Open a child span under ``parent`` = ``(trace_id, span_id)``
        and return its context.

        Returns ``None`` when the parent is unknown (an untraced
        message), so call sites can stay unconditional.
        """
        if not parent:
            return None
        tid = parent[0]
        sid = self._open(tid, parent[1], kind, topic, cat, rank, 0, False)
        if args:
            self._note_args(sid, tid, args)
        return (tid, sid)

    def finish(self, ctx: Optional[tuple], **args: Any) -> None:
        """Close the span ``ctx`` names at the current simulated time
        (a closed one stays as it is)."""
        if ctx is None:
            return
        i = ctx[1] - 1
        t1 = self._t1
        if t1[i] == t1[i]:      # not NaN: already closed
            return
        t1[i] = self._now()
        if args:
            self._note_args(ctx[1], ctx[0], args)

    def instant(self, parent: Optional[tuple], kind: str,
                topic: Optional[str], cat: str, rank: int,
                **args: Any) -> None:
        """Record a zero-duration marker (retry, drop, replay hit...)."""
        if not parent:
            return
        tid = parent[0]
        sid = self._open(tid, parent[1], kind, topic, cat, rank, 0, True)
        if args:
            self._note_args(sid, tid, args)

    def close_open(self) -> int:
        """Close any still-open spans (end of run); returns how many.

        A span is open while its ``t1`` is NaN; the end-of-run scan
        replaces a per-span open table the hot path would pay for.
        """
        now = self._now()
        t1 = self._t1
        closed = 0
        for i, v in enumerate(t1):
            if v != v:
                t1[i] = now
                closed += 1
        return closed

    # -- read side ------------------------------------------------------
    def _span_ids(self):
        return (self._ids if self._ids is not None
                else range(1, len(self._kind) + 1))

    def _name(self, i: int) -> str:
        topic = self._topic[i]
        kind = self._kind[i]
        return kind if topic is None else f"{kind}:{topic}"

    def _times(self, i: int) -> tuple[float, Optional[float]]:
        """Row ``i``'s ``(t0, t1)`` in simulated seconds (``t1`` is
        ``None`` while open)."""
        a, b = self._t0[i], self._t1[i]
        if self._ids is not None:
            return a / _US, (a + b) / _US
        return a, (None if b != b else b)

    def _row_args(self, i: int) -> Optional[dict]:
        client = self._client[i]
        args = self._args.get(i + 1)
        if not client:
            return args
        return {"client": client, **args} if args else {"client": client}

    def _view(self, i: int, sid: int) -> Span:
        parent = self._parent[i]
        t0, t1 = self._times(i)
        return Span(self._trace[i], sid, parent or None, self._name(i),
                    self._cat[i], self._rank[i], t0, t1,
                    self._row_args(i))

    def _views(self, rows) -> list[Span]:
        ids = self._span_ids()
        return [self._view(i, ids[i]) for i in rows]

    @property
    def spans(self) -> list[Span]:
        """Every span, in recording order."""
        return self._views(range(len(self._kind)))

    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id (insertion-ordered)."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def validate(self) -> list[str]:
        """Structural check: every parent resolves within its trace,
        each trace has exactly one root and every span is closed.
        Returns human-readable problems (empty = connected).

        One pass over the columns.  A recorded parent id is a row, so
        it resolves by index, and the roots of the traces started here
        are counted in an array indexed by trace id; only a tracer
        rebuilt from an export (arbitrary ids) builds lookups.
        """
        problems: list[str] = []
        trace, parent, t1 = self._trace, self._parent, self._t1
        n = len(trace)
        recorded = self._ids is None
        if recorded:
            def resolves(tid: int, p: int) -> bool:
                return 0 < p <= n and trace[p - 1] == tid
        else:
            known = set(zip(trace, self._ids))

            def resolves(tid: int, p: int) -> bool:
                return (tid, p) in known
        ids = self._span_ids()
        ntr = self._ntraces
        roots = array("i", bytes(4 * (ntr + 1)))   # traces 1..ntr
        other: dict[int, int] = {}                  # any other trace id
        for i in range(n):
            tid, p = trace[i], parent[i]
            if 0 < tid <= ntr:
                roots[tid] += not p
            else:
                other[tid] = other.get(tid, 0) + (not p)
            if p and not resolves(tid, p):
                problems.append(f"trace {tid}: span {ids[i]} "
                                f"({self._name(i)}) parent {p} missing")
            if recorded and t1[i] != t1[i]:
                problems.append(f"trace {tid}: span {ids[i]} "
                                f"({self._name(i)}) never finished")
        problems.extend(f"trace {tid}: {roots[tid]} roots"
                        for tid in range(1, ntr + 1) if roots[tid] != 1)
        problems.extend(f"trace {tid}: {k} roots"
                        for tid, k in other.items() if k != 1)
        return problems

    def error_spans(self) -> list[Span]:
        """Spans belonging to traces that recorded an ``error`` arg —
        the fragments a post-mortem bundle ships."""
        if not self._error:
            return []
        keep = self._error
        trace = self._trace
        return self._views(i for i in range(len(trace))
                           if trace[i] in keep)

    def critical_path(self, trace_id: int) -> list[Span]:
        """The root-to-leaf chain that determined the trace's end time.

        Walk from the root, at each step descending into the child
        whose end time is latest (ties broken by span id for
        determinism); the returned chain is where the elapsed time of
        the client call was actually spent.
        """
        trace = self._trace
        spans = self._views(i for i in range(len(trace))
                            if trace[i] == trace_id)
        children: dict[Optional[int], list[Span]] = {}
        root = None
        for s in spans:
            if s.parent_id is None:
                root = s
            else:
                children.setdefault(s.parent_id, []).append(s)
        if root is None:
            return []
        path = [root]
        node = root
        while True:
            kids = children.get(node.span_id)
            if not kids:
                return path
            node = max(kids, key=lambda s: (s.t1 or s.t0, -s.span_id))
            path.append(node)

    def critical_path_report(self, trace_id: int) -> str:
        """A readable one-line-per-hop rendering of the critical path."""
        path = self.critical_path(trace_id)
        if not path:
            return f"trace {trace_id}: no spans"
        lines = [f"trace {trace_id}: {path[0].name} "
                 f"total {path[0].duration * 1e3:.3f} ms, "
                 f"{len(path)} hops on critical path"]
        for depth, s in enumerate(path):
            lines.append(f"  {'  ' * depth}{s.name} [{s.cat}] "
                         f"rank={s.rank} "
                         f"t={s.t0 * 1e3:.3f}..{(s.t1 or s.t0) * 1e3:.3f} ms"
                         f" ({s.duration * 1e3:.3f} ms)")
        return "\n".join(lines)

    def slowest_trace(self) -> Optional[int]:
        """Trace id of the longest root span (lowest id on a tie)."""
        parent = self._parent
        roots = self._views(i for i in range(len(parent)) if not parent[i])
        if not roots:
            return None
        return max(roots, key=lambda s: (s.duration, -s.trace_id)).trace_id

    # -- export ---------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (object form), Perfetto-loadable.

        Brokers map to *processes* (pid = rank) and traces to
        *threads* (tid = trace id), so Perfetto lays each broker's
        work out in its own track while keeping trace grouping
        visible in the args.
        """
        events: list[dict] = []
        loaded = self._ids is not None
        t0s, t1s, trace, rank = self._t0, self._t1, self._trace, self._rank
        for i, sid in enumerate(self._span_ids()):
            a, b = t0s[i], t1s[i]
            if loaded:
                ts, dur = a, b
            else:
                ts, dur = a * _US, max(0.0, (a if b != b else b) - a) * _US
            tid = trace[i]
            events.append({
                "name": self._name(i), "cat": self._cat[i], "ph": "X",
                "ts": ts, "dur": dur, "pid": rank[i], "tid": tid,
                "args": {**(self._row_args(i) or {}), "span_id": sid,
                         "parent_id": self._parent[i] or None,
                         "trace_id": tid},
            })
        for r in sorted(set(rank)):
            events.append({"name": "process_name", "ph": "M", "pid": r,
                           "args": {"name": f"broker-{r}"}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_chrome_trace(), indent=indent,
                          sort_keys=True)

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=1))

    @classmethod
    def from_chrome_trace(cls, doc: dict) -> "SpanTracer":
        """Rebuild the span forest of a :meth:`to_chrome_trace` export
        (a ``--trace-out`` file) for analysis.  Each complete event's
        ``args`` carry its ``trace_id``, ``span_id`` and ``parent_id``;
        the remaining args are the span's own.  Times read back in
        simulated seconds, and :meth:`to_chrome_trace` of the result
        reproduces ``doc``."""
        tracer = cls(lambda: 0.0)
        ids = tracer._ids = array("q")
        (trace, parent, rank, client, t0, t1, kind, topic,
         cat) = tracer._push
        for ev in doc.get("traceEvents", ()):
            if ev.get("ph") != "X":
                continue
            args = dict(ev.get("args") or {})
            tid = args.pop("trace_id")
            ids.append(args.pop("span_id"))
            trace(tid)
            parent(args.pop("parent_id") or 0)
            rank(ev.get("pid", -1))
            client(0)
            t0(ev["ts"])
            t1(ev.get("dur", 0.0))
            kind(ev["name"])
            topic(None)
            cat(ev.get("cat", ""))
            if args:
                tracer._note_args(len(ids), tid, args)
        return tracer
