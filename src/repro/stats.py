"""``python -m repro.stats`` — report/validate exported observability JSON.

Two document kinds are produced by the KAP driver (``--stats-out`` /
``--trace-out``) and the chaos harness:

- **stats**: ``{"meta": {...}, "aggregate": <snapshot>,
  "per_rank": [<snapshot>, ...]}`` where a *snapshot* is a
  :meth:`repro.obs.MetricsRegistry.snapshot` dict;
- **trace**: Chrome trace-event JSON (``{"traceEvents": [...]}``,
  Perfetto-loadable) from :meth:`repro.obs.SpanTracer.to_chrome_trace`.

Subcommands::

    python -m repro.stats report  STATS.json          # human summary
    python -m repro.stats validate --kind stats STATS.json
    python -m repro.stats validate --kind trace TRACE.json

``validate`` exits non-zero listing every schema violation (and, for
traces, any span whose parent does not resolve) — the CI stats-smoke
job gates on it.  Validation is hand-rolled: no external schema
library is required.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .obs.metrics import histogram_from_snapshot
from .obs.span import SpanTracer

__all__ = ["validate_stats", "validate_trace", "render_report", "main"]

_METRIC_TYPES = ("counter", "gauge", "histogram")


def _is_num(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_metric(m: Any, where: str, problems: list) -> None:
    if not isinstance(m, dict):
        problems.append(f"{where}: metric is not an object")
        return
    name = m.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{where}: missing/invalid metric name")
        return
    where = f"{where}:{name}"
    mtype = m.get("type")
    if mtype not in _METRIC_TYPES:
        problems.append(f"{where}: type {mtype!r} not in {_METRIC_TYPES}")
        return
    if not isinstance(m.get("labels"), dict):
        problems.append(f"{where}: labels must be an object")
    if mtype in ("counter", "gauge"):
        if not _is_num(m.get("value")):
            problems.append(f"{where}: non-numeric value")
        return
    bounds = m.get("bounds")
    buckets = m.get("buckets")
    if (not isinstance(bounds, list) or not all(map(_is_num, bounds))
            or any(b <= a for b, a in zip(bounds[1:], bounds))):
        problems.append(f"{where}: bounds must be ascending numbers")
        return
    if (not isinstance(buckets, list) or len(buckets) != len(bounds) + 1
            or not all(isinstance(b, int) and b >= 0 for b in buckets)):
        problems.append(f"{where}: buckets must be len(bounds)+1 "
                        f"non-negative ints")
        return
    if m.get("count") != sum(buckets):
        problems.append(f"{where}: count {m.get('count')} != bucket sum "
                        f"{sum(buckets)}")
    if not _is_num(m.get("sum")):
        problems.append(f"{where}: non-numeric sum")


def _check_snapshot(snap: Any, where: str, problems: list) -> None:
    if not isinstance(snap, dict):
        problems.append(f"{where}: snapshot is not an object")
        return
    if not isinstance(snap.get("labels"), dict):
        problems.append(f"{where}: missing labels object")
    metrics = snap.get("metrics")
    if not isinstance(metrics, list):
        problems.append(f"{where}: missing metrics list")
        return
    for i, m in enumerate(metrics):
        _check_metric(m, f"{where}.metrics[{i}]", problems)


#: Legal cluster/broker health states (plus "unknown" before the
#: first completed reduction).
_HEALTH_STATES = ("ok", "degraded", "overloaded", "unknown")

#: Numeric fields every completed health view must carry.
_HEALTH_VIEW_NUMS = ("epoch", "t", "brokers", "inbox_sum", "inbox_max",
                     "pending_max", "retry_amp_max", "dirty_sum",
                     "respawn_sum")


def _check_health_view(view: Any, where: str, problems: list) -> None:
    if not isinstance(view, dict):
        problems.append(f"{where}: view is not an object")
        return
    state = view.get("state")
    if state not in _HEALTH_STATES:
        problems.append(f"{where}: state {state!r} not in "
                        f"{_HEALTH_STATES}")
    if view.get("epoch") == -1:
        return          # placeholder view (plane never activated)
    for fld in _HEALTH_VIEW_NUMS:
        if not _is_num(view.get(fld)):
            problems.append(f"{where}: non-numeric {fld}")
    counts = view.get("counts")
    if not isinstance(counts, dict):
        problems.append(f"{where}: counts must be an object")
        return
    for k, v in counts.items():
        if k not in _HEALTH_STATES:
            problems.append(f"{where}: counts key {k!r} not a state")
        if not isinstance(v, int) or v < 0:
            problems.append(f"{where}: counts[{k}] must be a "
                            f"non-negative int")
    brokers = view.get("brokers")
    if _is_num(brokers) and sum(counts.values()) != brokers:
        problems.append(f"{where}: counts sum {sum(counts.values())} "
                        f"!= brokers {brokers}")


def _check_health(health: Any, problems: list) -> None:
    if not isinstance(health, dict):
        problems.append("health: not an object")
        return
    _check_health_view(health.get("cluster"), "health.cluster", problems)
    views = health.get("views")
    if views is None:
        return
    if not isinstance(views, list):
        problems.append("health.views: not a list")
        return
    last = None
    for i, view in enumerate(views):
        _check_health_view(view, f"health.views[{i}]", problems)
        epoch = view.get("epoch") if isinstance(view, dict) else None
        if _is_num(epoch):
            if last is not None and epoch <= last:
                problems.append(f"health.views[{i}]: epoch {epoch} "
                                f"not increasing (prev {last})")
            last = epoch


def validate_stats(doc: Any) -> list:
    """Structural check of a stats document; returns problems found."""
    problems: list = []
    if not isinstance(doc, dict):
        return ["top level: not an object"]
    if not isinstance(doc.get("meta"), dict):
        problems.append("meta: missing object")
    _check_snapshot(doc.get("aggregate"), "aggregate", problems)
    per_rank = doc.get("per_rank")
    if per_rank is not None:
        if not isinstance(per_rank, list):
            problems.append("per_rank: not a list")
        else:
            for i, snap in enumerate(per_rank):
                _check_snapshot(snap, f"per_rank[{i}]", problems)
    if "health" in doc:
        _check_health(doc["health"], problems)
    return problems


def validate_trace(doc: Any) -> list:
    """Structural + causal check of a Chrome trace-event document.

    Checks each event's field shapes, then rebuilds the span forest
    of the well-formed complete events
    (:meth:`SpanTracer.from_chrome_trace`) and adds what
    :meth:`SpanTracer.validate` finds: within each ``trace_id``,
    exactly one root and every ``parent_id`` resolving to a span of
    the same trace.
    """
    problems: list = []
    if not isinstance(doc, dict):
        return ["top level: not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents: missing list"]
    complete: list = []
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing name")
        if ph == "M":
            continue  # metadata record
        if ph != "X":
            problems.append(f"{where}: unexpected phase {ph!r}")
            continue
        shaped = isinstance(ev.get("name"), str)
        for fld in ("ts", "dur"):
            if not _is_num(ev.get(fld)):
                problems.append(f"{where}: non-numeric {fld}")
                shaped = False
        if _is_num(ev.get("dur")) and ev["dur"] < 0:
            problems.append(f"{where}: negative dur")
        args = ev.get("args")
        if not isinstance(args, dict):
            problems.append(f"{where}: missing args")
            continue
        for key in ("trace_id", "span_id", "parent_id"):
            val = args.get(key, "missing")
            if val is None and key == "parent_id":
                continue  # a root span
            if not isinstance(val, int) or isinstance(val, bool):
                problems.append(f"{where}: missing/invalid args.{key}")
                shaped = False
        if shaped:
            complete.append(ev)
    try:
        forest = SpanTracer.from_chrome_trace({"traceEvents": complete})
    except (TypeError, OverflowError) as exc:
        # The span store's integer columns take 64-bit ids and an
        # int pid only.
        return problems + [f"traceEvents: span forest not rebuilt: {exc}"]
    return problems + forest.validate()


def render_report(doc: dict) -> str:
    """Human-readable summary of a stats document's aggregate."""
    lines: list = []
    meta = doc.get("meta", {})
    if meta:
        lines.append("meta: " + ", ".join(f"{k}={meta[k]}"
                                          for k in sorted(meta)))
    agg = doc.get("aggregate", {})
    counters: list = []
    hists: list = []
    for m in agg.get("metrics", ()):
        labels = ",".join(f"{k}={v}" for k, v in
                          sorted(m.get("labels", {}).items()))
        label = m["name"] + (f"{{{labels}}}" if labels else "")
        if m["type"] in ("counter", "gauge"):
            counters.append((label, m["value"]))
        else:
            h = histogram_from_snapshot(m)
            if h.count == 0:
                continue
            hists.append((label, h))
    width = max((len(n) for n, _ in counters), default=0)
    for name, value in counters:
        v = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<{width}}  {v}")
    for name, h in hists:
        lines.append(f"  {name}: count={h.count} mean={h.mean:.3g} "
                     f"p50={h.quantile(0.5):.3g} "
                     f"p95={h.quantile(0.95):.3g} "
                     f"p99={h.quantile(0.99):.3g} max={h.vmax:.3g}")
    nranks = len(doc.get("per_rank") or ())
    if nranks:
        lines.append(f"  ({nranks} per-rank snapshots in document)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stats",
        description="Report on / validate exported stats and trace JSON.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_report = sub.add_parser("report", help="summarize a stats document")
    p_report.add_argument("file")
    p_val = sub.add_parser("validate", help="schema-check a document")
    p_val.add_argument("file")
    p_val.add_argument("--kind", choices=("stats", "trace"),
                       default="stats")
    args = parser.parse_args(argv)

    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    if args.cmd == "report":
        problems = validate_stats(doc)
        if problems:
            for p in problems:
                print(f"invalid stats document: {p}", file=sys.stderr)
            return 1
        print(render_report(doc))
        return 0

    problems = (validate_trace(doc) if args.kind == "trace"
                else validate_stats(doc))
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"{args.file}: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"{args.file}: OK ({args.kind})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
