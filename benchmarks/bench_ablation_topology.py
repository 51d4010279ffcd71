"""Ablation — comms-tree fan-out (the paper: "although a binary
RPC/reduction tree is pictured, the tree shape is configurable").

Sweeps the tree arity from binary to a flat star and regenerates
fence/consumer latency per shape.  Expected: deep trees amortize
reduction bandwidth but add hops; the flat star centralizes all fence
traffic on the root (the traditional single-daemon layout Flux
replaces) and loses at scale.
"""

import dataclasses

import pytest

from conftest import write_table
from repro.kap import KapConfig, format_series_table, run_kap

ARITIES = (2, 4, 8, 0)  # 0 = flat star (arity = nnodes - 1)


def config_for(nnodes, ppn, arity, **kw):
    return KapConfig(nnodes=nnodes, procs_per_node=ppn,
                     tree_arity=arity if arity else nnodes - 1, **kw)


@pytest.fixture(scope="module")
def arity_series(scale):
    fence_cols, get_cols, walk_cols = {}, {}, {}
    for arity in ARITIES:
        label = f"arity-{arity}" if arity else "flat"
        fence, get, walk = {}, {}, {}
        for nn in scale["nodes"]:
            cfg = config_for(nn, scale["ppn"], arity, value_size=2048,
                             naccess=0, nconsumers=0)
            fence[cfg.nprocs] = run_kap(cfg).max_sync_latency
            cfg2 = config_for(nn, scale["ppn"], arity, value_size=8,
                              naccess=4, nputs=1 if scale["paper"] else 16)
            get[cfg2.nprocs] = run_kap(cfg2).max_consumer_latency
            walk[cfg2.nprocs] = run_kap(dataclasses.replace(
                cfg2, dedup=True)).max_consumer_latency
        fence_cols[label] = fence
        get_cols[label] = get
        walk_cols[label] = walk
    write_table("ablation_topology_fence", format_series_table(
        "Ablation: fence latency vs tree arity", "producers", fence_cols),
        data=fence_cols)
    write_table("ablation_topology_get", format_series_table(
        "Ablation: consumer latency vs tree arity", "consumers", get_cols),
        data=get_cols)
    write_table("ablation_topology_walk", format_series_table(
        "Ablation: consumer latency vs tree arity, combined kvs.walk "
        "reads (dedup=True)", "consumers", walk_cols), data=walk_cols)
    return fence_cols, get_cols


def test_ablation_topology_tables_regenerated(arity_series):
    fence_cols, get_cols = arity_series
    assert len(fence_cols) == len(ARITIES) == len(get_cols)


def test_flat_star_loses_on_consumer_phase(arity_series, scale):
    """A star means every consumer faults straight off the root: the
    root NIC serializes everything, while a tree spreads the load
    across interior caches."""
    _fence_cols, get_cols = arity_series
    procs = max(scale["nodes"]) * scale["ppn"]
    assert get_cols["arity-2"][procs] < get_cols["flat"][procs]


def test_tree_shapes_all_correct(scale):
    """Sanity: every shape computes the same KVS contents (latency
    differs, results do not)."""
    roots = set()
    for arity in ARITIES:
        cfg = config_for(min(scale["nodes"]), scale["ppn"], arity,
                         value_size=64, naccess=1, seed=77)
        res = run_kap(cfg)
        roots.add(len(res.consumer))
    assert len(roots) == 1


def test_ablation_benchmark_binary_vs_flat(benchmark, scale,
                                            arity_series):
    cfg = config_for(scale["nodes"][1], scale["ppn"], 2,
                     value_size=2048, naccess=0, nconsumers=0)
    benchmark.pedantic(lambda: run_kap(cfg), rounds=3, iterations=1)
