"""Figure 4 — max consumer-phase (kvs_get) latency.

Paper claims: (a) with all keys in a single KVS directory, "the latency
is quite high and also increases linearly as we increase the number of
consumers", because slave caches store only full objects, so reading a
small value faults in the entire directory object through the chain of
caches; (b) splitting keys into directories of at most 128 objects
improves latency substantially; and the access-count plots (access-1,
access-4, ...) order consistently.

``nputs`` is chosen so the directory object size G matches the paper's
(G = producers at paper scale; 16 puts/producer at reduced scale).

A third table, ``fig4_consumer_walk``, repeats the single-directory
sweep on the combined ``kvs.walk`` read path (``dedup=True``), which
ships the walk to the data instead of the directory to the reader.
"""

import pytest

from conftest import write_table
from repro.kap import KapConfig, format_series_table, run_kap

ACCESS_COUNTS = (1, 4, 16)


#: Series key of the walk table beside the ``dir_width`` keys.
WALK = "walk"


def consumer_config(nnodes, ppn, naccess, dir_width, paper, dedup=False):
    return KapConfig(nnodes=nnodes, procs_per_node=ppn, value_size=8,
                     naccess=naccess, nputs=1 if paper else 16,
                     dir_width=dir_width, dedup=dedup)


@pytest.fixture(scope="module")
def fig4_series(scale):
    out = {}
    for key, dir_width in ((None, None), (128, 128), (WALK, None)):
        cols = {}
        for naccess in ACCESS_COUNTS:
            series = {}
            for nn in scale["nodes"]:
                cfg = consumer_config(nn, scale["ppn"], naccess, dir_width,
                                      scale["paper"], dedup=key == WALK)
                series[cfg.nprocs] = run_kap(cfg).max_consumer_latency
            cols[f"access-{naccess}"] = series
        out[key] = cols
    write_table("fig4a_consumer_single_dir", format_series_table(
        "Figure 4(a): max consumer (kvs_get) latency, single directory",
        "consumers", out[None]), data=out[None])
    write_table("fig4b_consumer_multi_dir", format_series_table(
        "Figure 4(b): max consumer (kvs_get) latency, <=128-entry dirs",
        "consumers", out[128]), data=out[128])
    write_table("fig4_consumer_walk", format_series_table(
        "Figure 4 sweep on the combined kvs.walk read path (dedup=True), "
        "single directory", "consumers", out[WALK]), data=out[WALK])
    return out


def test_fig4_tables_regenerated(fig4_series):
    assert set(fig4_series) == {None, 128, WALK}


def test_fig4a_latency_grows_linearly_with_consumers(fig4_series):
    """G grows with C here (producers = consumers), so the paper's
    geometric-series argument predicts ~linear latency growth."""
    for label, series in fig4_series[None].items():
        procs = sorted(series)
        span = procs[-1] / procs[0]
        growth = series[procs[-1]] / series[procs[0]]
        assert growth > span / 4, f"{label}: {growth:.2f}x over {span}x"


def test_fig4b_beats_fig4a(fig4_series, scale):
    """The multi-directory layout wins, and wins more at scale."""
    procs_max = max(scale["nodes"]) * scale["ppn"]
    procs_min = min(scale["nodes"]) * scale["ppn"]
    for naccess in ACCESS_COUNTS:
        single = fig4_series[None][f"access-{naccess}"]
        multi = fig4_series[128][f"access-{naccess}"]
        assert multi[procs_max] < single[procs_max]
    ratio_small = (fig4_series[None]["access-1"][procs_min]
                   / fig4_series[128]["access-1"][procs_min])
    ratio_large = (fig4_series[None]["access-1"][procs_max]
                   / fig4_series[128]["access-1"][procs_max])
    assert ratio_large > ratio_small


def test_walk_beats_single_directory_fault_in(fig4_series, scale):
    """Shipping the walk moves one value per read instead of the whole
    directory per rank, so few reads per consumer are far cheaper at
    the largest scale.  Many are not (access-16): a faulted-in directory
    serves every later read locally, a walk pays the tree each time —
    the repeat-read shape ROADMAP C(3)'s read-path decision waits on."""
    procs = max(scale["nodes"]) * scale["ppn"]
    for naccess in ACCESS_COUNTS[:2]:
        label = f"access-{naccess}"
        assert (fig4_series[WALK][label][procs]
                < fig4_series[None][label][procs])


def test_fig4_more_accesses_cost_more(fig4_series, scale):
    procs = max(scale["nodes"]) * scale["ppn"]
    for cols in fig4_series.values():
        lats = [cols[f"access-{a}"][procs] for a in ACCESS_COUNTS]
        assert lats == sorted(lats)


def test_fig4_benchmark_representative(benchmark, scale, fig4_series):
    cfg = consumer_config(scale["nodes"][1], scale["ppn"], 4, None,
                          scale["paper"])
    result = benchmark.pedantic(lambda: run_kap(cfg), rounds=3,
                                iterations=1)
    benchmark.extra_info["max_consumer_latency_s"] = \
        result.max_consumer_latency
