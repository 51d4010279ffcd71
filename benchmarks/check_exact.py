"""Exact-metric gate: a change may not move a simulated metric it did
not declare.

    python3 benchmarks/perf/run.py --quick --trace 0 --rounds 1 --out DOC
    python3 benchmarks/check_exact.py DOC [--update --reason TEXT]

The simulated latencies, the wire bytes and the event count of a
workload are exact for a given commit, workload and seed — unlike the
host-clock metrics they do not depend on the machine, so they can be
gated hard.  This compares a result document written by ``run.py
--out`` against the committed ``benchmarks/exact_quick.json`` and exits
non-zero on any difference.  A PR that means to move one of them
re-declares the baseline with ``--update --reason TEXT``; the reason
and the ``workload metric: old → new`` lines are kept in the baseline
and printed by every passing check.
"""

import argparse
import json
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "exact_quick.json"

#: The harness's ``workloads.EXACT_METRICS``, spelled out so that this
#: gate reads two JSON files and imports nothing of the program.
EXACT = ("sim_put_max_ms", "sim_fence_max_ms", "sim_get_max_ms",
         "sim_makespan_ms", "wire_bytes", "events")


def exact_of(doc):
    """``{"seed", "quick", "workloads": {name: {metric: value}}}`` of a
    ``run.py --out`` document."""
    workloads = {}
    for name, row in doc["workloads"].items():
        e2e = row["end_to_end"]
        values = {**e2e["metrics"], "events": e2e["events"]}
        workloads[name] = {m: values[m] for m in EXACT}
    return {"seed": doc["seed"], "quick": doc["quick"],
            "workloads": workloads}


def differences(want, got):
    out = [f"{key}: baseline {want[key]!r}, run {got[key]!r}"
           for key in ("seed", "quick") if want[key] != got[key]]
    for name in sorted(want["workloads"].keys() | got["workloads"].keys()):
        a, b = want["workloads"].get(name), got["workloads"].get(name)
        if a is None or b is None:
            out.append(f"{name}: only in the "
                       f"{'run' if a is None else 'baseline'}")
            continue
        out += [f"{name} {m}: {a[m]!r} → {b[m]!r}"
                for m in EXACT if a[m] != b[m]]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("doc", help="result document written by run.py --out")
    ap.add_argument("--update", action="store_true",
                    help="re-declare the baseline from this document")
    ap.add_argument("--reason", help="why the baseline moves "
                    "(required with --update, kept in the baseline)")
    args = ap.parse_args(argv)
    if args.update and not args.reason:
        ap.error("--update needs --reason TEXT: say why the baseline moves")
    doc = json.loads(Path(args.doc).read_text(encoding="utf-8"))
    got = exact_of(doc)
    want = json.loads(BASELINE.read_text(encoding="utf-8"))
    diffs = differences(want, got)
    if args.update:
        BASELINE.write_text(
            json.dumps({"declared_at": doc["commit"], "reason": args.reason,
                        "moved": diffs, **got}, indent=1, sort_keys=True,
                       ensure_ascii=False) + "\n", encoding="utf-8")
        print(f"wrote {BASELINE}")
        return 0
    for line in diffs:
        print(f"EXACT METRIC MOVED {line}")
    if diffs:
        print(f"{len(diffs)} undeclared difference(s) against "
              f"{BASELINE.name} (declared at {want['declared_at'][:12]}); "
              "re-declare with --update --reason TEXT if the change is "
              "meant")
        return 1
    print(f"exact metrics match {BASELINE.name}: "
          f"{len(got['workloads'])} workloads x {len(EXACT)} metrics")
    print(f"declared at {want['declared_at'][:12]}: {want['reason']}")
    for line in want["moved"]:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
