"""Section V-B analytic models vs simulation.

The paper derives ``max consumer latency = log2(C) x T(G)`` and argues
via a geometric series that latency doubles when G doubles with C.
These benches regenerate a model-vs-measured table and assert the
model tracks the simulator within a small factor.
"""

import dataclasses

import pytest

from conftest import write_table
from repro.kap import (KapConfig, predict_consumer_latency,
                       predict_fence_latency, predict_producer_latency,
                       predict_setup_latency, run_kap)
from repro.sim.cluster import zin_like_params


@pytest.fixture(scope="module")
def model_tables(scale):
    params = zin_like_params()
    rows = []
    for nn in scale["nodes"]:
        cfg = KapConfig(nnodes=nn, procs_per_node=scale["ppn"],
                        value_size=8, naccess=4,
                        nputs=1 if scale["paper"] else 16)
        res = run_kap(cfg)
        walk_cfg = dataclasses.replace(cfg, dedup=True)
        rows.append({
            "consumers": cfg.nprocs,
            "model": predict_consumer_latency(cfg, params),
            "measured": res.max_consumer_latency,
            "producer_model": predict_producer_latency(cfg, params),
            "producer_measured": res.max_producer_latency,
            "fence_model": predict_fence_latency(cfg, params),
            "fence_measured": res.max_sync_latency,
            "walk_model": predict_consumer_latency(walk_cfg, params),
            "walk_measured": run_kap(walk_cfg).max_consumer_latency,
        })
    # The flat star: 64 nodes under one root, whose NIC sends every
    # completion copy, at the fence shape of the sweep and the setup
    # shape below.
    star_cfg = dataclasses.replace(cfg, nnodes=64, tree_arity=64)
    star_setup_cfg = KapConfig(nnodes=64, procs_per_node=16, nproducers=0,
                               nconsumers=0, tree_arity=64)
    star = {"consumers": star_cfg.nprocs,
            "fence_model": predict_fence_latency(star_cfg, params),
            "fence_measured": run_kap(star_cfg).max_sync_latency,
            "setup_model": predict_setup_latency(star_setup_cfg, params),
            "setup_measured": run_kap(star_setup_cfg).setup_time}
    lines = ["Consumer model log2(C) x T(G) vs simulation",
             f"{'consumers':>10} {'model(ms)':>10} {'meas(ms)':>10} "
             f"{'ratio':>6}"]
    for row in rows:
        ratio = row["measured"] / row["model"]
        lines.append(f"{row['consumers']:>10} {row['model']*1e3:>10.3f} "
                     f"{row['measured']*1e3:>10.3f} {ratio:>6.2f}")
    lines += ["", "Fence model (bottleneck uplink + head of the stream) "
              "vs simulation",
              f"{'producers':>10} {'model(ms)':>10} {'meas(ms)':>10} "
              f"{'ratio':>6}"]
    for row in rows + [star]:
        ratio = row["fence_measured"] / row["fence_model"]
        label = f"{'star ' if row is star else ''}{row['consumers']}"
        lines.append(f"{label:>10} "
                     f"{row['fence_model']*1e3:>10.3f} "
                     f"{row['fence_measured']*1e3:>10.3f} {ratio:>6.2f}")
    lines += ["", "Walk model (master NIC + stored-and-forwarded lists) "
              "vs simulation, dedup=True",
              f"{'consumers':>10} {'model(ms)':>10} {'meas(ms)':>10} "
              f"{'ratio':>6}"]
    for row in rows:
        ratio = row["walk_measured"] / row["walk_model"]
        lines.append(f"{row['consumers']:>10} "
                     f"{row['walk_model']*1e3:>10.3f} "
                     f"{row['walk_measured']*1e3:>10.3f} {ratio:>6.2f}")
    # The setup barrier moves no data, so it is swept at the paper's
    # node counts whatever the scale: nobody puts, nobody reads.
    setup = []
    for nn in (64, 128, 256, 512):
        cfg = KapConfig(nnodes=nn, procs_per_node=16, nproducers=0,
                        nconsumers=0)
        setup.append({"nodes": nn,
                      "setup_model": predict_setup_latency(cfg, params),
                      "setup_measured": run_kap(cfg).setup_time})
    lines += ["", "Setup model (one tally up, the exit event down) vs "
              "simulation, 16 procs/node",
              f"{'nodes':>10} {'model(us)':>10} {'meas(us)':>10} "
              f"{'ratio':>6}"]
    for row in setup + [star]:
        ratio = row["setup_measured"] / row["setup_model"]
        label = "star 64" if row is star else row["nodes"]
        lines.append(f"{label:>10} {row['setup_model']*1e6:>10.1f} "
                     f"{row['setup_measured']*1e6:>10.1f} {ratio:>6.2f}")
    write_table("model_validation", "\n".join(lines),
                data={"rows": rows, "setup": setup, "star": star})
    return {"rows": rows, "setup": setup, "star": star}


@pytest.fixture(scope="module")
def model_rows(model_tables):
    return model_tables["rows"]


def test_model_table_regenerated(model_rows):
    assert len(model_rows) >= 4


def test_consumer_model_within_factor(model_rows):
    """Model and simulation agree within ~3x across the sweep (the
    paper's model omits per-access constants; shapes must match)."""
    for row in model_rows:
        ratio = row["measured"] / row["model"]
        assert 1 / 3 < ratio < 3, f"model off by {ratio:.2f}x: {row}"

    # Consistency of *growth*: model and measurement scale similarly.
    first, last = model_rows[0], model_rows[-1]
    model_growth = last["model"] / first["model"]
    measured_growth = last["measured"] / first["measured"]
    assert measured_growth == pytest.approx(model_growth, rel=0.6)


def test_geometric_series_doubling(model_rows):
    """G doubles with C here, so each doubling of consumers should
    roughly double the measured latency (the 2T(2G)/T(G) argument)."""
    for a, b in zip(model_rows, model_rows[1:]):
        growth = b["measured"] / a["measured"]
        assert 1.3 < growth < 3.0, f"doubling growth {growth:.2f}"


def test_producer_model_tracks_measurement(model_rows):
    for row in model_rows:
        ratio = row["producer_measured"] / row["producer_model"]
        assert 1 / 4 < ratio < 4


def test_fence_model_tracks_measurement(model_rows):
    """The fence model's bottleneck is one root child's uplink: it must
    track the simulation closely, and by the same factor at both ends
    of the sweep (a ratio that drifts with scale is a wrong term)."""
    ratios = [row["fence_measured"] / row["fence_model"]
              for row in model_rows]
    assert all(0.75 < ratio < 1.33 for ratio in ratios), ratios
    assert ratios[-1] == pytest.approx(ratios[0], rel=0.15)


def test_setup_model_tracks_measurement(model_tables):
    """One tally per rank: the setup barrier costs its hops and nothing
    else, at every paper scale."""
    for row in model_tables["setup"]:
        ratio = row["setup_measured"] / row["setup_model"]
        assert 0.8 < ratio < 1.25, f"setup model off by {ratio:.2f}x: {row}"


def test_flat_star_is_modelled(model_tables):
    """The root of a 64-node star sends 63 completion copies and
    nothing else: setup and fence read their models there too."""
    star = model_tables["star"]
    for phase in ("setup", "fence"):
        ratio = star[f"{phase}_measured"] / star[f"{phase}_model"]
        assert 0.8 < ratio < 1.25, f"star {phase} off by {ratio:.2f}x"


def test_model_evaluation_is_fast(benchmark, scale, model_rows):
    """Model evaluation itself is trivially cheap (pure arithmetic)."""
    params = zin_like_params()
    cfg = KapConfig(nnodes=max(scale["nodes"]), procs_per_node=scale["ppn"])
    benchmark(lambda: predict_consumer_latency(cfg, params))
