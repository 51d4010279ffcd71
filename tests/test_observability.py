"""Observability: causal spans, the metrics registry, and ``stats``.

The acceptance bar for the tracing layer:

- a ``kvs_fence`` on a 3-level, >=16-broker tree exports a *connected*
  span tree — every parent resolves, exactly one root per client call
  — with a computable critical path;
- the tree-reduced ``stats.aggregate`` matches an in-process merge of
  the per-broker registries (count-exact for counters and histogram
  counts, quantiles within one bucket);
- tracing disabled changes nothing: same event count, same message
  fingerprint as a run on a build where tracing never existed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import make_cluster, standard_session
from repro.cmb import TreeTopology
from repro.cmb.modules.reduce import STALE_EPOCHS
from repro.kap import KapConfig, run_kap
from repro.kvs import KvsClient
from repro.obs import (DEFAULT_TIME_LADDER, Histogram, MetricsRegistry,
                       SpanTracer, histogram_from_snapshot, log_ladder,
                       merge_snapshots)
from repro.obs.__main__ import why
from repro.stats import validate_stats, validate_trace


# ----------------------------------------------------------------------
# metrics model
# ----------------------------------------------------------------------
class TestHistogram:
    def test_quantiles_within_one_bucket(self):
        h = Histogram("h", bounds=log_ladder(1e-3, 10.0))
        samples = [0.002, 0.004, 0.008, 0.5, 1.0, 2.0, 4.0, 8.0]
        for s in samples:
            h.observe(s)
        # The bucket-interpolated estimate must land in the same
        # ladder bucket as the exact sample quantile.
        import bisect
        exact = sorted(samples)[len(samples) // 2 - 1]
        est = h.quantile(0.5)
        assert (bisect.bisect_left(h.bounds, est)
                - bisect.bisect_left(h.bounds, exact)) in (-1, 0, 1)
        assert h.count == len(samples)
        assert h.vmax == 8.0 and h.vmin == 0.002

    def test_merge_is_count_exact(self):
        a = Histogram("h", bounds=DEFAULT_TIME_LADDER)
        b = Histogram("h", bounds=DEFAULT_TIME_LADDER)
        for i in range(50):
            a.observe(1e-6 * (i + 1))
            b.observe(1e-3 * (i + 1))
        merged = Histogram("h", bounds=DEFAULT_TIME_LADDER)
        merged.merge(a)
        merged.merge(b)
        assert merged.count == 100
        assert merged.total == pytest.approx(a.total + b.total)
        assert merged.vmin == a.vmin and merged.vmax == b.vmax

    def test_merge_rejects_different_ladders(self):
        a = Histogram("h", bounds=log_ladder(1e-3, 1.0))
        b = Histogram("h", bounds=log_ladder(1e-3, 10.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_registry_snapshot_roundtrip(self):
        reg = MetricsRegistry(rank=3)
        reg.counter("c").inc(7)
        reg.gauge("g").set(2.5)
        h = reg.histogram("h")
        h.observe(0.5)
        snap = reg.snapshot()
        assert snap["labels"] == {"rank": 3}
        agg = merge_snapshots([snap])
        by_name = {m["name"]: m for m in agg["metrics"]}
        assert by_name["c"]["value"] == 7
        assert by_name["g"]["value"] == 2.5
        rebuilt = histogram_from_snapshot(by_name["h"])
        assert rebuilt.count == 1
        assert rebuilt.quantile(0.5) == pytest.approx(0.5, rel=1.0)


# ----------------------------------------------------------------------
# span tree of one fence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fence_run():
    """One fence among 8 clients on a 3-level, 21-broker tree."""
    cluster = make_cluster(21)
    session = standard_session(
        cluster, topology=TreeTopology(21, arity=4)).start()
    session.enable_tracing()
    sim = cluster.sim
    n_clients = 8

    def client(idx, rank):
        kvs = KvsClient(session.connect(rank))
        yield kvs.put(f"obs.k{idx}", idx)
        yield kvs.fence("obs.fence", n_clients)
        value = yield kvs.get(f"obs.k{(idx + 1) % n_clients}")
        assert value == (idx + 1) % n_clients

    procs = [sim.spawn(client(i, 5 + 2 * i)) for i in range(n_clients)]
    sim.run()
    assert all(p.ok for p in procs)
    session.stop()
    return session


class TestFenceSpanTree:
    def test_tree_is_connected(self, fence_run):
        tracer = fence_run.span_tracer
        assert tracer.validate() == []
        assert len(tracer.spans) > 50  # a real multi-hop trace

    def test_one_root_per_client_call(self, fence_run):
        for trace_id, spans in fence_run.span_tracer.traces().items():
            roots = [s for s in spans if s.parent_id is None]
            assert len(roots) == 1, f"trace {trace_id}"
            assert roots[0].cat == "client"

    def test_fence_trace_spans_multiple_ranks(self, fence_run):
        tracer = fence_run.span_tracer
        fence_traces = [spans for spans in tracer.traces().values()
                        if "rpc:kvs.fence" in {s.name for s in spans}]
        assert len(fence_traces) == 8
        deep = max(fence_traces, key=len)
        # Client -> leaf -> interior -> root: at least three distinct
        # ranks participate in one fence's causal tree.
        assert len({s.rank for s in deep}) >= 3

    def test_critical_path_reported(self, fence_run):
        tracer = fence_run.span_tracer
        tid = next(tid for tid, spans in tracer.traces().items()
                   if "rpc:kvs.fence" in {s.name for s in spans})
        path = tracer.critical_path(tid)
        assert path[0].parent_id is None
        for parent, child in zip(path, path[1:]):
            assert child.parent_id == parent.span_id
        report = tracer.critical_path_report(tid)
        assert "rpc:kvs.fence" in report

    def test_chrome_export_validates(self, fence_run):
        doc = fence_run.span_tracer.to_chrome_trace()
        assert validate_trace(doc) == []
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in x_events)
        # pid == rank so Perfetto groups spans per broker.
        assert {e["pid"] for e in x_events} <= set(range(21))


# ----------------------------------------------------------------------
# python -m repro.obs why: critical path from a --trace-out export
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kap_trace(tmp_path_factory):
    """An 8-node traced KAP run's Chrome export."""
    path = tmp_path_factory.mktemp("why") / "t.json"
    run_kap(KapConfig(nnodes=8, procs_per_node=4), trace_out=str(path))
    return path


class TestWhy:
    def test_slowest_client_call_explained(self, kap_trace):
        out = why(str(kap_trace))
        assert out["ok"] and out["error"] is None
        hops = out["data"]["hops"]
        assert hops[0]["name"].startswith("rpc:") and len(hops) >= 2
        for parent, child in zip(hops, hops[1:]):
            assert parent["t0_ms"] <= child["t0_ms"]
        # The explained call is the slowest root, and its path ends
        # when that call ends.
        roots = [e for e in json.loads(kap_trace.read_text())["traceEvents"]
                 if e["ph"] == "X" and e["args"]["parent_id"] is None]
        slowest = max(roots, key=lambda e: e["dur"])
        assert out["data"]["trace_id"] == slowest["args"]["trace_id"]
        end_ms = (slowest["ts"] + slowest["dur"]) / 1e3
        assert max(h["t1_ms"] for h in hops) == pytest.approx(end_ms)
        assert hops[0]["t1_ms"] == pytest.approx(end_ms)

    def test_rebuilt_forest_has_the_same_critical_paths(self, fence_run,
                                                        tmp_path):
        tracer = fence_run.span_tracer
        path = tmp_path / "fence.json"
        tracer.write_chrome_trace(str(path))
        rebuilt = SpanTracer.from_chrome_trace(json.loads(path.read_text()))
        assert rebuilt.validate() == []
        for tid in tracer.traces():
            assert ([s.span_id for s in rebuilt.critical_path(tid)]
                    == [s.span_id for s in tracer.critical_path(tid)])

    def test_cli(self, kap_trace, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(
            Path(__file__).resolve().parents[1] / "src")}

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.obs", "why", *args],
                capture_output=True, text=True, env=env, timeout=60)

        text = cli(str(kap_trace))
        assert text.returncode == 0 and "hops on critical path" in text.stdout
        doc = json.loads(cli(str(kap_trace), "--trace", "2",
                             "--json").stdout)
        assert doc["ok"] and doc["data"]["trace_id"] == 2
        missing = cli(str(tmp_path / "none.json"), "--json")
        assert missing.returncode == 1
        doc = json.loads(missing.stdout)
        assert doc["ok"] is False and doc["data"] is None and doc["error"]
        unknown = json.loads(cli(str(kap_trace), "--trace", "99999",
                                 "--json").stdout)
        assert unknown["ok"] is False and "no trace" in unknown["error"]


# ----------------------------------------------------------------------
# stats module: tree reduction == in-process merge
# ----------------------------------------------------------------------
class TestStatsAggregation:
    def test_rpc_aggregate_matches_in_process_merge(self):
        cluster = make_cluster(21)
        session = standard_session(
            cluster, topology=TreeTopology(21, arity=4)).start()
        sim = cluster.sim

        def workload(idx):
            kvs = KvsClient(session.connect(3 + idx))
            yield kvs.put(f"s.{idx}", idx)
            yield kvs.fence("s.fence", 6)
            yield kvs.get(f"s.{idx}")

        procs = [sim.spawn(workload(i)) for i in range(6)]
        sim.run()
        assert all(p.ok for p in procs)

        def query():
            h = session.connect(0, collective=False)
            return (yield h.rpc("stats.aggregate", {}))

        resp = sim.run_until_complete(sim.spawn(query()))
        assert resp["ranks"] == 21
        rpc_agg = {(m["name"], tuple(sorted(m["labels"].items()))): m
                   for m in resp["agg"]["metrics"]}

        # The in-process merge runs *after* the stats RPC itself, so
        # restrict the comparison to metrics the stats traffic cannot
        # touch: everything except broker_*/cmb_* message accounting.
        local_agg = session.metrics_aggregate()
        compared = 0
        for m in local_agg["metrics"]:
            if m["name"].startswith(("broker_", "cmb_", "rpc_")):
                continue
            key = (m["name"], tuple(sorted(m["labels"].items())))
            got = rpc_agg[key]
            if m["type"] == "histogram":
                assert got["count"] == m["count"], key
                assert got["buckets"] == m["buckets"], key
                ha, hb = (histogram_from_snapshot(got),
                          histogram_from_snapshot(m))
                for q in (0.5, 0.95, 0.99):
                    assert ha.quantile(q) == pytest.approx(hb.quantile(q))
            else:
                assert got["value"] == m["value"], key
            compared += 1
        assert compared >= 8
        session.stop()

    def test_interior_rank_aggregates_its_subtree(self):
        cluster = make_cluster(21)
        session = standard_session(
            cluster, topology=TreeTopology(21, arity=4)).start()
        sim = cluster.sim

        def query(rank):
            h = session.connect(rank, collective=False)
            return (yield h.rpc_rank(rank, "stats.aggregate", {}))

        # Rank 1's subtree on a 21-node arity-4 tree: itself + 4
        # children (5..8) + grandchildren — sized by the topology.
        topo = session.topology
        def subtree(r):
            return 1 + sum(subtree(c) for c in topo.children(r))
        resp = sim.run_until_complete(sim.spawn(query(1)))
        assert resp["ranks"] == subtree(1)
        session.stop()

    def test_stats_get_snapshot_is_valid(self):
        cluster = make_cluster(5)
        session = standard_session(cluster).start()
        sim = cluster.sim

        def query():
            h = session.connect(2, collective=False)
            return (yield h.rpc_rank(2, "stats.get", {}))

        resp = sim.run_until_complete(sim.spawn(query()))
        assert resp["rank"] == 2
        doc = {"meta": {}, "aggregate": merge_snapshots([resp["stats"]])}
        assert validate_stats(doc) == []
        session.stop()


# ----------------------------------------------------------------------
# tracing off == tracing absent
# ----------------------------------------------------------------------
def _fingerprint_run(tracing):
    cluster = make_cluster(9, seed=4)
    session = standard_session(cluster).start()
    if tracing:
        session.enable_tracing()
    sim = cluster.sim

    def client(idx):
        kvs = KvsClient(session.connect(idx + 1))
        yield kvs.put(f"f.{idx}", [idx])
        yield kvs.fence("f.fence", 4)
        yield kvs.get(f"f.{(idx + 1) % 4}")

    procs = [sim.spawn(client(i)) for i in range(4)]
    sim.run()
    assert all(p.ok for p in procs)
    counts = session.message_counts()
    bytes_sent = cluster.network.total_bytes_sent()
    session.stop()
    return sim.event_count, sim.now, bytes_sent, counts


class TestTracingIsFree:
    def test_off_run_identical_to_absent(self):
        # Tracing is pure bookkeeping: no events, no RNG draws, no
        # payload bytes.  Even *enabled* it cannot perturb the
        # simulation, so both runs must be event-for-event identical.
        assert _fingerprint_run(False) == _fingerprint_run(True)

    def test_span_tuple_rides_outside_counted_bytes(self):
        from repro.cmb.message import Message, MessageType
        a = Message(topic="kvs.get", mtype=MessageType.REQUEST,
                    payload={"k": 1})
        b = Message(topic="kvs.get", mtype=MessageType.REQUEST,
                    payload={"k": 1}, span=(12, 34))
        assert a.size() == b.size()


# ----------------------------------------------------------------------
# mon stale-pending regression (satellite fix)
# ----------------------------------------------------------------------
class TestMonPendingHygiene:
    def test_child_death_completes_waiting_epochs(self):
        cluster = make_cluster(7, seed=9)
        session = standard_session(cluster, with_heartbeat=True,
                                   hb_period=0.05, hb_max_epochs=40)
        session.start()
        sim = cluster.sim

        def activate():
            h = session.connect(0, collective=False)
            yield h.rpc("mon.activate", {"name": "stats.requests",
                                         "op": "sum"})

        sim.run_until_complete(sim.spawn(activate()))
        sim.run(until=0.4)
        session.fail_rank(2)  # interior: root waits on its aggregate
        sim.run()
        root_mon = session.module_at(0, "mon")
        # The root keeps producing results after the kill...
        epochs = list(root_mon.results["stats.requests"])
        assert max(epochs) * 0.05 > 0.5
        # ...and no live broker accumulates unbounded pending slots.
        for rank in range(7):
            if not session.brokers[rank].alive:
                continue
            mon = session.module_at(rank, "mon")
            for metric in mon.active.values():
                assert len(metric.pending) <= STALE_EPOCHS
        session.stop()

    def test_stale_epochs_are_counted(self):
        cluster = make_cluster(7, seed=9)
        session = standard_session(cluster, with_heartbeat=True,
                                   hb_period=0.05, hb_max_epochs=60)
        session.start()
        sim = cluster.sim

        def activate():
            h = session.connect(0, collective=False)
            yield h.rpc("mon.activate", {"name": "stats.requests",
                                         "op": "sum"})

        sim.run_until_complete(sim.spawn(activate()))
        sim.run(until=0.3)
        # Kill a *leaf*: its parent's pending slots can never fill by
        # recheck (expected drops only when live.down propagates), so
        # the pulse-driven GC has to reap them.
        session.fail_rank(5)
        sim.run()
        agg = session.metrics_aggregate()
        by_name = {m["name"]: m for m in agg["metrics"]}
        dropped = by_name.get("mon_stale_epochs_dropped_total")
        for rank in range(7):
            if not session.brokers[rank].alive:
                continue
            mon = session.module_at(rank, "mon")
            for metric in mon.active.values():
                assert len(metric.pending) <= STALE_EPOCHS
        assert dropped is not None
        session.stop()
