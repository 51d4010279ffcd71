"""Command-line queries over recorded observability data.

``python -m repro.obs why TRACE.json [--trace N] [--json]`` rebuilds
the span forest of a Chrome trace export (``python -m repro.kap
--trace-out TRACE.json``) and prints the critical path of the slowest
client call — or of trace ``N`` — one hop per line: where the elapsed
time of that call was actually spent.

``--json`` prints one ``{"ok": bool, "data": ..., "error": ...}``
document instead, for scripts; the exit status is 0 exactly when
``ok`` is true.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from repro.obs.span import SpanTracer

__all__ = ["why", "main"]


def _hop(span) -> dict:
    return {"name": span.name, "cat": span.cat, "rank": span.rank,
            "span_id": span.span_id, "t0_ms": span.t0 * 1e3,
            "t1_ms": (span.t1 if span.t1 is not None else span.t0) * 1e3,
            "duration_ms": span.duration * 1e3}


def why(path: str, trace_id: Optional[int] = None) -> dict[str, Any]:
    """Critical path of one trace in the export at ``path``.

    Returns ``{"ok", "data", "error"}``: on success ``data`` holds the
    trace id, the hops root first and the rendered report.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            tracer = SpanTracer.from_chrome_trace(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        return {"ok": False, "data": None,
                "error": f"cannot read trace {path!r}: {exc}"}
    if trace_id is None:
        trace_id = tracer.slowest_trace()
        if trace_id is None:
            return {"ok": False, "data": None,
                    "error": f"{path}: no root spans"}
    path_spans = tracer.critical_path(trace_id)
    if not path_spans:
        return {"ok": False, "data": None,
                "error": f"{path}: no trace {trace_id}"}
    return {"ok": True, "error": None,
            "data": {"trace_id": trace_id,
                     "hops": [_hop(s) for s in path_spans],
                     "report": tracer.critical_path_report(trace_id)}}


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Query recorded observability data.")
    sub = ap.add_subparsers(dest="command", required=True)
    w = sub.add_parser("why", help="critical path of the slowest client "
                                   "call (or of --trace N)")
    w.add_argument("trace", help="Chrome trace JSON (--trace-out)")
    w.add_argument("--trace", dest="trace_id", type=int, metavar="N",
                   help="explain trace N instead of the slowest")
    w.add_argument("--json", action="store_true",
                   help="print {ok, data, error} as JSON")
    args = ap.parse_args(argv)
    out = why(args.trace, args.trace_id)
    if args.json:
        print(json.dumps(out, indent=1, sort_keys=True))
    elif out["ok"]:
        print(out["data"]["report"])
    else:
        print(f"error: {out['error']}", file=sys.stderr)
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
