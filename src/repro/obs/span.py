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

Exports Chrome trace-event JSON (the ``ph: "X"`` complete-event form)
loadable in Perfetto / ``chrome://tracing``, and computes the critical
path of a trace: the chain of spans that determined its end time.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Optional

__all__ = ["Span", "SpanTracer"]

#: Multiplier from simulated seconds to trace-event microseconds.
_US = 1e6


class Span:
    """One timed operation inside a trace.

    ``args`` stays ``None`` until the span records one (most never
    do), so a bare hop allocates no dict.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "cat",
                 "rank", "t0", "t1", "args")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, cat: str,
                 rank: int, t0: float):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.rank = rank
        self.t0 = t0
        self.t1: Optional[float] = None     # None while still open
        self.args: Optional[dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "cat": self.cat, "rank": self.rank,
                "t0": self.t0, "t1": self.t1, "args": self.args or {}}


class SpanTracer:
    """Collects spans for every trace in a session.

    All methods are no-ops in terms of simulation state: they never
    create events, draw randomness, or alter message sizes.  The
    session holds at most one tracer; when it is ``None`` the
    instrumentation sites skip all work (the byte-identical path).
    """

    def __init__(self, now_fn):
        self._now = now_fn
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self.spans: list[Span] = []
        #: Trace ids of traces in which some span recorded an
        #: ``error`` arg (what :meth:`error_spans` ships).
        self._error: set[int] = set()

    # -- recording ------------------------------------------------------
    def _note_args(self, span: Span, args: dict) -> None:
        """Merge a call's non-empty ``**args`` (a fresh dict each call,
        so the first one is adopted as is) into the span."""
        if span.args is None:
            span.args = args
        else:
            span.args.update(args)
        if "error" in args:
            self._error.add(span.trace_id)

    def start_trace(self, name: str, rank: int, **args: Any) -> Span:
        """Open the root span of a new trace (one per client call)."""
        span = Span(next(self._trace_ids), next(self._span_ids), None,
                    name, "client", rank, self._now())
        if args:
            self._note_args(span, args)
        self.spans.append(span)
        return span

    def start_span(self, parent: Optional[tuple], name: str, cat: str,
                   rank: int, **args: Any) -> Optional[Span]:
        """Open a child span under ``parent`` = ``(trace_id, span_id)``.

        Returns ``None`` when the parent is unknown (an untraced
        message), so call sites can stay unconditional.
        """
        if not parent:
            return None
        span = Span(parent[0], next(self._span_ids), parent[1],
                    name, cat, rank, self._now())
        if args:
            self._note_args(span, args)
        self.spans.append(span)
        return span

    def finish(self, span: Optional[Span], **args: Any) -> None:
        """Close ``span`` at the current simulated time."""
        if span is None or span.t1 is not None:
            return
        span.t1 = self._now()
        if args:
            self._note_args(span, args)

    def instant(self, parent: Optional[tuple], name: str, cat: str,
                rank: int, **args: Any) -> None:
        """Record a zero-duration marker (retry, drop, replay hit...)."""
        span = self.start_span(parent, name, cat, rank, **args)
        if span is not None:
            span.t1 = span.t0

    def close_open(self) -> int:
        """Close any still-open spans (end of run); returns how many.

        A span is open while its ``t1`` is ``None``; the end-of-run
        scan replaces a per-span open table the hot path would pay for.
        """
        now = self._now()
        closed = 0
        for span in self.spans:
            if span.t1 is None:
                span.t1 = now
                closed += 1
        return closed

    # -- analysis -------------------------------------------------------
    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id (insertion-ordered)."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def validate(self) -> list[str]:
        """Structural check: every parent resolves within its trace and
        each trace has exactly one root.  Returns human-readable
        problems (empty = connected)."""
        problems: list[str] = []
        for tid, spans in self.traces().items():
            ids = {s.span_id for s in spans}
            roots = [s for s in spans if s.parent_id is None]
            if len(roots) != 1:
                problems.append(f"trace {tid}: {len(roots)} roots")
            for s in spans:
                if s.parent_id is not None and s.parent_id not in ids:
                    problems.append(f"trace {tid}: span {s.span_id} "
                                    f"({s.name}) parent {s.parent_id} "
                                    f"missing")
                if s.t1 is None:
                    problems.append(f"trace {tid}: span {s.span_id} "
                                    f"({s.name}) never finished")
        return problems

    def error_spans(self) -> list[Span]:
        """Spans belonging to traces that recorded an ``error`` arg —
        the fragments a post-mortem bundle ships."""
        if not self._error:
            return []
        keep = self._error
        return [s for s in self.spans if s.trace_id in keep]

    def critical_path(self, trace_id: int) -> list[Span]:
        """The root-to-leaf chain that determined the trace's end time.

        Walk from the root, at each step descending into the child
        whose end time is latest (ties broken by span id for
        determinism); the returned chain is where the elapsed time of
        the client call was actually spent.
        """
        spans = self.traces().get(trace_id, [])
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
        roots = [s for s in self.spans if s.parent_id is None]
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
        ranks: set[int] = set()
        for s in self.spans:
            ranks.add(s.rank)
            events.append({
                "name": s.name, "cat": s.cat, "ph": "X",
                "ts": s.t0 * _US,
                "dur": max(0.0, (s.t1 if s.t1 is not None else s.t0)
                           - s.t0) * _US,
                "pid": s.rank, "tid": s.trace_id,
                "args": {**(s.args or {}), "span_id": s.span_id,
                         "parent_id": s.parent_id,
                         "trace_id": s.trace_id},
            })
        for rank in sorted(ranks):
            events.append({"name": "process_name", "ph": "M", "pid": rank,
                           "args": {"name": f"broker-{rank}"}})
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
        the remaining args are the span's own.  Times come back in
        simulated seconds."""
        tracer = cls(lambda: 0.0)
        for ev in doc.get("traceEvents", ()):
            if ev.get("ph") != "X":
                continue
            args = dict(ev.get("args") or {})
            span = Span(args.pop("trace_id"), args.pop("span_id"),
                        args.pop("parent_id"), ev["name"],
                        ev.get("cat", ""), ev.get("pid", -1),
                        ev["ts"] / _US)
            span.t1 = (ev["ts"] + ev.get("dur", 0.0)) / _US
            span.args = args or None
            tracer.spans.append(span)
        return tracer
