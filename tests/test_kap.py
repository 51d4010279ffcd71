"""Tests for the KAP driver: configuration, patterns, phase semantics,
and the scaling shapes the paper's figures report."""

import importlib.util
import pathlib

import pytest

from repro.cmb.message import MessageType
from repro.kap import (KapConfig, consumer_targets, make_value, object_key,
                       predict_consumer_latency, predict_fence_latency,
                       predict_producer_latency, predict_setup_latency,
                       proc_rank_node, run_kap)
from repro.kap.results import format_series_table
from repro.sim.cluster import zin_like_params


def _phase_budget():
    path = (pathlib.Path(__file__).parent.parent / "benchmarks"
            / "phase_budget.py")
    spec = importlib.util.spec_from_file_location("phase_budget", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConfig:
    def test_defaults_fully_populated(self):
        cfg = KapConfig(nnodes=4, procs_per_node=4)
        assert cfg.nprocs == 16
        assert cfg.producers == 16 and cfg.consumers == 16
        assert cfg.total_objects == 16

    def test_role_counts(self):
        cfg = KapConfig(nnodes=4, procs_per_node=4, nproducers=5,
                        nconsumers=3)
        assert cfg.producers == 5 and cfg.consumers == 3
        assert cfg.total_objects == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            KapConfig(nnodes=0)
        with pytest.raises(ValueError):
            KapConfig(sync="nope")
        with pytest.raises(ValueError):
            KapConfig(dir_width=0)
        with pytest.raises(ValueError):
            KapConfig(value_size=0)
        # Role counts outside the session cannot run: commit_wait
        # waits for committers that do not exist, consumers read keys
        # nobody wrote.
        small = dict(nnodes=4, procs_per_node=2)
        for bad in (dict(nproducers=100), dict(nproducers=9),
                    dict(nproducers=-1), dict(nconsumers=9),
                    dict(nconsumers=-1), dict(nputs=-1),
                    dict(naccess=-1)):
            with pytest.raises(ValueError):
                KapConfig(**small, **bad)
        edge = KapConfig(**small, nproducers=8, nconsumers=0, nputs=0,
                         naccess=0)
        assert edge.producers == 8 and edge.consumers == 0


class TestPatterns:
    def test_single_dir_keys(self):
        assert object_key(5, None) == "kap.o5"

    def test_multi_dir_keys(self):
        assert object_key(5, 128) == "kap.d0.o5"
        assert object_key(130, 128) == "kap.d1.o130"
        assert object_key(256, 128) == "kap.d2.o256"

    def test_value_exact_size(self):
        for size in (1, 8, 100):
            assert len(make_value(3, size, False)) == size
            assert len(make_value(3, size, True)) == size

    def test_redundant_values_identical_across_gids(self):
        assert make_value(1, 64, True) == make_value(99, 64, True)

    def test_unique_values_differ(self):
        assert make_value(1, 64, False) != make_value(2, 64, False)

    def test_consumer_targets_stride(self):
        cfg = KapConfig(nnodes=2, procs_per_node=2, naccess=3, stride=2)
        # total objects = 4; consumer 1 reads (2, 3, 0)
        assert consumer_targets(cfg, 1) == [2, 3, 0]

    def test_stride_zero_everyone_reads_same(self):
        cfg = KapConfig(nnodes=2, procs_per_node=2, naccess=2, stride=0)
        assert consumer_targets(cfg, 0) == consumer_targets(cfg, 3)

    def test_cyclic_placement(self):
        cfg = KapConfig(nnodes=4, procs_per_node=2)
        assert [proc_rank_node(cfg, p) for p in range(8)] == \
            [0, 1, 2, 3, 0, 1, 2, 3]


class TestDriver:
    def test_small_run_produces_all_phases(self):
        cfg = KapConfig(nnodes=4, procs_per_node=2, value_size=16,
                        naccess=2)
        res = run_kap(cfg)
        assert len(res.producer) == 8
        assert len(res.sync) == 8
        assert len(res.consumer) == 8
        assert res.max_producer_latency > 0
        assert res.max_sync_latency > 0
        assert res.max_consumer_latency > 0
        assert res.total_time > res.setup_time > 0

    def test_producer_only_run(self):
        cfg = KapConfig(nnodes=2, procs_per_node=2, nconsumers=0,
                        naccess=0)
        res = run_kap(cfg)
        assert len(res.consumer) == 0
        assert len(res.producer) == 4

    def test_consumer_reads_correct_sizes(self):
        # run_kap asserts value sizes internally; a mismatch would fail.
        cfg = KapConfig(nnodes=2, procs_per_node=2, value_size=100,
                        naccess=4, stride=3)
        run_kap(cfg)

    def test_commit_wait_sync_mode(self):
        cfg = KapConfig(nnodes=4, procs_per_node=2, sync="commit_wait",
                        naccess=1)
        res = run_kap(cfg)
        assert len(res.sync) == 8
        assert res.max_consumer_latency > 0

    def test_deterministic_given_seed(self):
        cfg = KapConfig(nnodes=4, procs_per_node=2, naccess=2, seed=9)
        r1, r2 = run_kap(cfg), run_kap(cfg)
        assert r1.max_sync_latency == r2.max_sync_latency
        assert r1.max_consumer_latency == r2.max_consumer_latency
        assert r1.events == r2.events

    def test_event_budget_guard(self):
        cfg = KapConfig(nnodes=4, procs_per_node=2)
        with pytest.raises(Exception):
            run_kap(cfg, max_events=10)

    def test_multi_directory_layout_runs(self):
        cfg = KapConfig(nnodes=2, procs_per_node=2, nputs=8, dir_width=4,
                        naccess=4)
        res = run_kap(cfg)
        assert len(res.consumer) == 4


class TestScalingShapes:
    """The qualitative claims of Figures 2-4, at test-sized scale."""

    def test_fig2_producer_latency_flat(self):
        """kvs_put is write-back: latency independent of producer count."""
        lat = [run_kap(KapConfig(nnodes=n, procs_per_node=2, naccess=0,
                                 nconsumers=0)).max_producer_latency
               for n in (4, 16)]
        assert lat[1] < lat[0] * 2.0  # flat-ish, not linear (4x procs)

    def test_fig2_producer_latency_grows_with_value_size(self):
        small = run_kap(KapConfig(nnodes=4, procs_per_node=2, value_size=8,
                                  nconsumers=0, naccess=0))
        big = run_kap(KapConfig(nnodes=4, procs_per_node=2,
                                value_size=32768, nconsumers=0, naccess=0))
        assert big.max_producer_latency > small.max_producer_latency

    def test_fig3_unique_fence_scales_linearly(self):
        lat = [run_kap(KapConfig(nnodes=n, procs_per_node=2,
                                 value_size=2048, naccess=0,
                                 nconsumers=0)).max_sync_latency
               for n in (8, 32)]
        # 4x producers -> at least ~2x latency for unique values.
        assert lat[1] > lat[0] * 2.0

    def test_fig3_redundant_beats_unique(self):
        base = dict(nnodes=16, procs_per_node=2, value_size=2048,
                    naccess=0, nconsumers=0)
        unique = run_kap(KapConfig(**base)).max_sync_latency
        red = run_kap(KapConfig(**base,
                                redundant_values=True)).max_sync_latency
        assert red < unique

    def test_fig3_redundant_gap_widens_with_scale(self):
        def ratio(n):
            base = dict(nnodes=n, procs_per_node=2, value_size=2048,
                        naccess=0, nconsumers=0)
            u = run_kap(KapConfig(**base)).max_sync_latency
            r = run_kap(KapConfig(**base,
                                  redundant_values=True)).max_sync_latency
            return u / r

        assert ratio(32) > ratio(8)

    def test_fig4_consumer_latency_grows_with_scale(self):
        lat = [run_kap(KapConfig(nnodes=n, procs_per_node=2, value_size=8,
                                 naccess=2, nputs=8)).max_consumer_latency
               for n in (4, 16)]
        assert lat[1] > lat[0]

    def test_fig4_multi_directory_beats_single(self):
        base = dict(nnodes=16, procs_per_node=4, value_size=8, naccess=4,
                    nputs=16)
        single = run_kap(KapConfig(**base)).max_consumer_latency
        multi = run_kap(KapConfig(**base,
                                  dir_width=128)).max_consumer_latency
        assert multi < single

    def test_fig4_latency_grows_with_access_count(self):
        base = dict(nnodes=8, procs_per_node=2, value_size=8, nputs=4)
        a1 = run_kap(KapConfig(**base, naccess=1)).max_consumer_latency
        a8 = run_kap(KapConfig(**base, naccess=8)).max_consumer_latency
        assert a8 > a1


class TestModels:
    def test_producer_model_independent_of_scale(self):
        p = zin_like_params()
        small = predict_producer_latency(KapConfig(nnodes=4), p)
        big = predict_producer_latency(KapConfig(nnodes=512), p)
        assert small == big

    def test_fence_model_linear_in_producers(self):
        p = zin_like_params()
        l1 = predict_fence_latency(KapConfig(nnodes=64, value_size=2048), p)
        l2 = predict_fence_latency(KapConfig(nnodes=512, value_size=2048), p)
        assert l2 > 4 * l1

    def test_fence_model_redundant_cheaper(self):
        p = zin_like_params()
        u = predict_fence_latency(KapConfig(nnodes=64, value_size=2048), p)
        r = predict_fence_latency(
            KapConfig(nnodes=64, value_size=2048, redundant_values=True), p)
        assert r < u

    def test_consumer_model_multi_dir_cheaper(self):
        p = zin_like_params()
        s = predict_consumer_latency(
            KapConfig(nnodes=64, naccess=4, nputs=16), p)
        m = predict_consumer_latency(
            KapConfig(nnodes=64, naccess=4, nputs=16, dir_width=128), p)
        assert m < s

    def test_consumer_model_within_factor_of_simulation(self):
        """The paper's log2(C) x T(G) model should predict the simulated
        single-directory latency to within an order of magnitude."""
        cfg = KapConfig(nnodes=16, procs_per_node=4, value_size=8,
                        naccess=4, nputs=16)
        measured = run_kap(cfg).max_consumer_latency
        predicted = predict_consumer_latency(cfg, zin_like_params())
        assert predicted == pytest.approx(measured, rel=0.9)

    def test_consumer_model_is_dedup_aware(self):
        """Walk reads move no directories: the walk model, not the
        fault-in chain, is inside the band on a paper-shaped run (the
        chain reads 0.65 here and drifts to 0.41 at 512 nodes)."""
        cfg = KapConfig(nnodes=128, procs_per_node=16, value_size=64,
                        dedup=True)
        measured = run_kap(cfg).max_consumer_latency
        predicted = predict_consumer_latency(cfg, zin_like_params())
        assert 0.8 < measured / predicted < 1.25

    @pytest.mark.parametrize("shape", [
        dict(value_size=2048, nputs=4, nconsumers=1),            # fence_4k
        dict(value_size=64, dedup=True),                         # scale_4k
        dict(value_size=8, naccess=8, dir_width=128),            # get_1k
    ], ids=["kap_fence_4k", "kap_scale_4k", "kap_get_1k"])
    def test_reductions_put_no_responses_on_the_fabric(self, shape):
        """The benchmark's KAP shapes at 16 nodes: every barrier tally
        and fence contribution is one-way, so not one empty response
        answers them between nodes (34 / 30 / 30 when they were
        acknowledged)."""
        cfg = KapConfig(nnodes=16, procs_per_node=16, **shape)
        with _phase_budget().fabric_sends([]) as log:
            run_kap(cfg)
        assert {m.topic for *_, m, _size in log} >= {"barrier.enter",
                                                     "kvs.fencedata"}
        assert [m.topic for *_, m, _size in log
                if m.mtype is MessageType.RESPONSE
                and m.topic in ("barrier.enter", "kvs.fencedata")] == []

    def test_flat_star_setup_and_fence_are_modelled(self):
        """64 nodes under one root: the root sends 63 exit and setroot
        copies and no acks, so both phases read their models (1.89 each
        with acknowledged relays)."""
        cfg = KapConfig(nnodes=64, procs_per_node=4, value_size=8,
                        naccess=4, nputs=16, tree_arity=64)
        res = run_kap(cfg)
        p = zin_like_params()
        assert 0.8 < res.setup_time / predict_setup_latency(cfg, p) < 1.25
        assert 0.8 < (res.max_sync_latency
                      / predict_fence_latency(cfg, p)) < 1.25

    def test_geometric_series_doubling(self):
        """The paper: if G doubles when C doubles, latency ~doubles."""
        p = zin_like_params()
        lats = [predict_consumer_latency(
            KapConfig(nnodes=n, procs_per_node=16, naccess=1), p)
            for n in (64, 128, 256)]
        r1 = lats[1] / lats[0]
        r2 = lats[2] / lats[1]
        assert 1.5 < r1 < 2.5 and 1.5 < r2 < 2.5


class TestResultFormatting:
    def test_series_table_renders(self):
        table = format_series_table(
            "Figure X", "procs",
            {"vsize-8": {64: 1e-3, 128: 2e-3}, "vsize-32": {64: 1.5e-3}})
        assert "Figure X" in table
        assert "vsize-8" in table and "vsize-32" in table
        assert "1.000" in table  # 1e-3 s in ms
        assert table.count("\n") >= 4

    def test_missing_cells_dashed(self):
        table = format_series_table("T", "x", {"a": {1: 1e-3}, "b": {2: 1e-3}})
        assert "-" in table
