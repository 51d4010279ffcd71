"""Simulator throughput — events/sec and wall-clock at paper scale.

The reproduction's usefulness at the paper's Section V scales (64-512
nodes x 16 brokers = 1024-8192 producers) is bounded by simulator
throughput, not by anything the paper measures.  This bench records
the perf trajectory in two modes:

- ``legacy`` — the classic protocol (whole objects on every hop):
  the baseline whose tree-plane bytes explode super-linearly with
  producer count.
- ``optimized`` — walk reads (``dedup=True``: a cold read walks to
  the master instead of faulting whole directories down the tree).

Each row records the *real* row dimensions (producers, nnodes,
procs_per_node, value_size), the per-tree-level ``bytes_sent``
breakdown, and ``interned_bytes_saved`` from the KVS interning counters.
``--paper-scale`` extends the optimized sweep to 16384 and 65536
producers (1024/4096 nodes; the 65k row must finish inside
``PAPER_65K_BUDGET_S``).

Timing numbers are machine-dependent, so — unlike the figure tables —
``out/simperf.txt``/``out/BENCH_simperf.json`` are gitignored and the
assertions here are a *flat-scaling* gate in smoke mode (optimized
events/sec at 4096 producers >= 0.7x the 256-producer rate) and
wall-clock ceilings.  The golden SAN105 replay fingerprints are pinned
by ``tests/test_payload_interning.py`` and
``tests/test_perf_equivalence.py``, not here.

Standalone smoke mode for CI (from ``benchmarks/``)::

    PYTHONPATH=../src python bench_simperf.py --smoke
"""

import argparse
import json
import pathlib
import sys
import time

import pytest

from conftest import OUT_DIR, write_table
from repro.chaos import run_chaos_workload
from repro.kap import KapConfig, run_kap

#: Node counts swept at 16 procs/node: 64 -> 8192 producers.  The
#: smoke sweep includes 16 and 256 nodes (256 / 4096 producers)
#: because the flat-scaling gate compares exactly those two rows.
SWEEP_NODES = (4, 16, 64, 256, 512)
SMOKE_NODES = (4, 16, 64, 256, 512)
PAPER_SCALE_NODES = (1024, 4096)

#: CI ceiling for the 8192-producer (512 x 16) run.  Measured ~4 s
#: legacy / ~6 s optimized on a development box; the ceiling leaves
#: >10x headroom for slow runners.
PAPER_SCALE_BUDGET_S = 100.0

#: Ceiling for the 65536-producer (4096 x 16) --paper-scale run
#: (measured ~100 s on a development box; "single-digit minutes").
PAPER_65K_BUDGET_S = 600.0

#: Smoke-mode flat-scaling gate: optimized events/sec at 4096
#: producers must stay within this fraction of the 256-producer rate.
FLAT_SCALING_MIN_RATIO = 0.7

#: Pre-optimization reference on the development box (commit 82f684f,
#: 1024-producer config below): 51.9k events/s.  Recorded in the JSON
#: document so the trajectory is visible; never asserted (machine-
#: dependent).
REFERENCE_EPS_1024 = 51_853


def paper_config(nnodes: int, seed: int = 1, **kw) -> KapConfig:
    """Paper-default KAP at ``nnodes`` x 16 (Section V defaults)."""
    return KapConfig(nnodes=nnodes, procs_per_node=16, value_size=64,
                     seed=seed, **kw)


def time_kap(nnodes: int, mode: str = "legacy") -> dict:
    """One timed paper-default run; returns the table row."""
    cfg = paper_config(nnodes, dedup=(mode == "optimized"))
    # Wall-clock on purpose: this benchmark measures the *host's*
    # simulator throughput (events/sec of real time), not simulated
    # time — the one place wall time is the measurand.
    t0 = time.perf_counter()  # repro: noqa[DET001]
    res = run_kap(cfg)
    dt = time.perf_counter() - t0  # repro: noqa[DET001]
    return {
        "mode": mode,
        "producers": cfg.nprocs,
        "nnodes": nnodes,
        "procs_per_node": cfg.procs_per_node,
        "value_size": cfg.value_size,
        "wall_s": round(dt, 3),
        "events": res.events,
        "events_per_sec": round(res.events / dt, 1),
        "bytes_sent": res.bytes_sent,
        "plane_bytes": dict(sorted(res.plane_bytes.items())),
        "level_bytes": {str(k): v for k, v
                        in sorted(res.level_bytes.items())},
        "interned_bytes_saved": res.interned_bytes_saved,
        "flight_peak": res.flight_peak,
    }


def time_chaos() -> dict:
    """Timed chaos scenario: lossy fabric, retries, sanitizers on."""
    # Wall-clock on purpose (see time_kap): throughput measurand.
    t0 = time.perf_counter()  # repro: noqa[DET001]
    rep = run_chaos_workload(n_nodes=31, n_clients=16, drop_rate=0.01,
                             n_iters=2, sanitize=True)
    dt = time.perf_counter() - t0  # repro: noqa[DET001]
    return {
        "wall_s": round(dt, 3),
        "converged": rep.converged,
        "makespan": rep.makespan,
        "fingerprint": rep.event_fingerprint,
    }


def collect(nodes=SWEEP_NODES, paper_scale=False) -> dict:
    """Run the sweeps + chaos; return the document."""
    # Warm the interpreter/allocator so the smallest row isn't timing
    # first-touch effects.
    run_kap(paper_config(4))
    rows = [time_kap(nn, "legacy") for nn in nodes]
    rows += [time_kap(nn, "optimized") for nn in nodes]
    if paper_scale:
        rows += [time_kap(nn, "optimized") for nn in PAPER_SCALE_NODES]
    return {
        "kap": rows,
        "chaos": time_chaos(),
        "reference_eps_1024": REFERENCE_EPS_1024,
    }


def simperf_meta(nodes, paper_scale=False) -> dict:
    """The real sweep dimensions of *this* bench (meta override)."""
    node_counts = list(nodes) + (
        list(PAPER_SCALE_NODES) if paper_scale else [])
    return {"node_counts": node_counts, "procs_per_node": 16,
            "value_sizes": [64], "paper_scale": bool(paper_scale)}


def _rows(doc, mode):
    return [r for r in doc["kap"] if r["mode"] == mode]


def render(doc: dict) -> str:
    lines = ["Simulator throughput: paper-default KAP (value_size=64, "
             "16 procs/node)", ""]
    lines.append(f"{'mode':>9} {'producers':>10} {'events':>10} "
                 f"{'wall_s':>8} {'events/s':>10} {'bytes_sent':>13} "
                 f"{'interned_saved':>14}")
    for r in doc["kap"]:
        lines.append(f"{r['mode']:>9} {r['producers']:>10} "
                     f"{r['events']:>10} {r['wall_s']:>8.3f} "
                     f"{r['events_per_sec']:>10.0f} "
                     f"{r['bytes_sent']:>13} "
                     f"{r['interned_bytes_saved']:>14}")
    for mode in ("legacy", "optimized"):
        rows = _rows(doc, mode)
        if not rows:
            continue
        big = max(rows, key=lambda r: r["producers"])
        levels = big.get("level_bytes", {})
        if levels:
            total = sum(levels.values()) or 1
            lines.append("")
            lines.append(f"per-tree-level bytes_sent ({mode}, "
                         f"{big['producers']} producers):")
            for lvl, nbytes in sorted(levels.items(),
                                      key=lambda kv: int(kv[0])):
                lines.append(f"  level {lvl:<3} {nbytes:>12} "
                             f"({100.0 * nbytes / total:5.1f}%)")
    ch = doc["chaos"]
    lines.append("")
    lines.append(f"chaos (31 nodes, drop 1%, sanitizers on): "
                 f"wall={ch['wall_s']:.3f}s makespan={ch['makespan']:.3f} "
                 f"converged={ch['converged']}")
    return "\n".join(lines)


def write_level_breakdown(doc: dict) -> pathlib.Path:
    """Write the per-tree-level bytes breakdown (CI artifact)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "simperf_levels.json"
    payload = {
        "rows": [{"mode": r["mode"], "producers": r["producers"],
                  "nnodes": r["nnodes"],
                  "bytes_sent": r["bytes_sent"],
                  "level_bytes": r["level_bytes"],
                  "interned_bytes_saved": r["interned_bytes_saved"]}
                 for r in doc["kap"]],
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


# -- pytest interface ---------------------------------------------------

@pytest.fixture(scope="module")
def simperf_doc():
    doc = collect()
    write_table("simperf", render(doc), data=doc,
                meta=simperf_meta(SWEEP_NODES))
    write_level_breakdown(doc)
    return doc


def test_simperf_table_regenerated(simperf_doc):
    legacy, opt = (_rows(simperf_doc, m) for m in ("legacy", "optimized"))
    assert len(legacy) == len(SWEEP_NODES)
    assert len(opt) == len(SWEEP_NODES)
    assert legacy[0]["producers"] == 64
    assert legacy[-1]["producers"] == 8192
    for row in simperf_doc["kap"]:
        # Meta-drift guard: every row records its real dimensions.
        assert row["procs_per_node"] == 16
        assert row["value_size"] == 64
        assert row["producers"] == row["nnodes"] * 16


def test_simperf_paper_scale_within_budget(simperf_doc):
    """The 8192-producer (512 x 16) runs fit the CI smoke budget."""
    for mode in ("legacy", "optimized"):
        big = max(_rows(simperf_doc, mode), key=lambda r: r["producers"])
        assert big["wall_s"] < PAPER_SCALE_BUDGET_S, \
            f"8192-producer {mode} run took {big['wall_s']}s"


def test_simperf_dedup_byte_reduction(simperf_doc):
    """Combined walk reads cut measured wire bytes >= 8x at 8192
    producers (223.5 MB -> 21.8 MB; the one-key walk reached 7.56x)."""
    legacy = max(_rows(simperf_doc, "legacy"),
                 key=lambda r: r["producers"])
    opt = max(_rows(simperf_doc, "optimized"),
              key=lambda r: r["producers"])
    assert opt["bytes_sent"] * 8 <= legacy["bytes_sent"], \
        (opt["bytes_sent"], legacy["bytes_sent"])


def test_simperf_chaos_converged(simperf_doc):
    assert simperf_doc["chaos"]["converged"]


def test_simperf_deterministic_events(simperf_doc):
    """Event counts (unlike wall-clock) are seed-determined; a second
    run of one sweep point must reproduce them exactly."""
    for mode in ("legacy", "optimized"):
        again = time_kap(16, mode)
        row = next(r for r in _rows(simperf_doc, mode)
                   if r["nnodes"] == 16)
        assert again["events"] == row["events"]
        assert again["bytes_sent"] == row["bytes_sent"]


# -- standalone smoke mode (CI perf-smoke job) --------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI sweep with the flat-scaling gate")
    ap.add_argument("--paper-scale", action="store_true",
                    help="extend the optimized sweep to 16384 and "
                         "65536 producers (1024/4096 nodes)")
    args = ap.parse_args(argv)
    nodes = SMOKE_NODES if args.smoke else SWEEP_NODES
    doc = collect(nodes, paper_scale=args.paper_scale)
    write_table("simperf", render(doc), data=doc,
                meta=simperf_meta(nodes, args.paper_scale))
    write_level_breakdown(doc)
    failures = []
    legacy_big = max(_rows(doc, "legacy"), key=lambda r: r["producers"])
    if (legacy_big["producers"] >= 8192
            and legacy_big["wall_s"] >= PAPER_SCALE_BUDGET_S):
        failures.append(f"8192-producer legacy run took "
                        f"{legacy_big['wall_s']}s "
                        f"(budget {PAPER_SCALE_BUDGET_S}s)")
    opt = {r["producers"]: r for r in _rows(doc, "optimized")}
    if 256 in opt and 4096 in opt:
        # Flat-scaling gate: optimized events/sec must not collapse
        # as producer count grows 16x.
        lo = opt[256]["events_per_sec"]
        hi = opt[4096]["events_per_sec"]
        if hi < FLAT_SCALING_MIN_RATIO * lo:
            failures.append(
                f"flat-scaling gate: {hi:.0f} events/s at 4096 "
                f"producers < {FLAT_SCALING_MIN_RATIO} x {lo:.0f} "
                f"at 256 producers")
    if args.paper_scale:
        big = opt.get(65536)
        if big is not None and big["wall_s"] >= PAPER_65K_BUDGET_S:
            failures.append(f"65536-producer run took {big['wall_s']}s "
                            f"(budget {PAPER_65K_BUDGET_S}s)")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("simperf OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
