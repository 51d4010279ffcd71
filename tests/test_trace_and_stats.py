"""Tests for statistics collection, tracing, and KAP result handling."""

import json

import numpy as np
import pytest

from repro.sim.trace import StatSeries, Summary
from repro.kap.config import KapConfig
from repro.kap.results import KapResult
from repro.obs.span import SpanTracer
from repro.stats import validate_trace

from repro.chaos import run_chaos_workload, run_job_chaos_workload


class TestStatSeries:
    def test_add_and_len(self):
        s = StatSeries("lat")
        s.add(1.0)
        s.add(2.0)
        assert len(s) == 2

    def test_extend(self):
        s = StatSeries()
        s.extend([1, 2, 3])
        assert len(s) == 3
        assert s.values.dtype == np.float64

    def test_summary_fields(self):
        s = StatSeries()
        s.extend(range(1, 101))
        summary = s.summary()
        assert summary.count == 100
        assert summary.min == 1.0 and summary.max == 100.0
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p95 == pytest.approx(95.05)
        assert summary.p99 > summary.p95

    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            StatSeries("empty").summary()

    def test_summary_as_dict(self):
        s = StatSeries()
        s.add(5.0)
        d = s.summary().as_dict()
        assert d["count"] == 1 and d["max"] == 5.0
        assert set(d) == {"count", "max", "min", "mean", "p50", "p95",
                          "p99"}

    def test_values_returns_copy_like_array(self):
        s = StatSeries()
        s.add(1.0)
        arr = s.values
        arr[0] = 99.0
        assert s.values[0] == 1.0


class TestKapResult:
    def test_empty_phases_report_zero(self):
        r = KapResult(KapConfig(nnodes=1, procs_per_node=1))
        assert r.max_producer_latency == 0.0
        assert r.max_sync_latency == 0.0
        assert r.max_consumer_latency == 0.0

    def test_summaries_none_for_empty(self):
        r = KapResult(KapConfig(nnodes=1, procs_per_node=1))
        assert r.summaries() == {"producer": None, "sync": None,
                                 "consumer": None}

    def test_max_metrics_track_series(self):
        r = KapResult(KapConfig(nnodes=1, procs_per_node=1))
        r.producer.extend([0.1, 0.5, 0.3])
        r.sync.add(1.0)
        assert r.max_producer_latency == 0.5
        assert r.max_sync_latency == 1.0
        assert r.summaries()["producer"].count == 3


# ----------------------------------------------------------------------
# span retention: every trace is kept; error traces are also indexed
# ----------------------------------------------------------------------
class TestSpanSampling:
    def _trace(self, tr, error=False):
        root = tr.start_trace("call", 0)
        child = tr.start_span((root.trace_id, root.span_id),
                              "hop", "fwd", 1)
        tr.finish(child, **({"error": "boom"} if error else {}))
        tr.finish(root)
        return root.trace_id

    def test_default_keeps_every_trace(self):
        tr = SpanTracer(lambda: 0.0)
        for _ in range(10):
            self._trace(tr)
        assert len(tr.traces()) == 10

    def test_error_traces_always_kept(self):
        tr = SpanTracer(lambda: 0.0)
        tids = [self._trace(tr, error=(i == 5)) for i in range(10)]
        assert set(tr.traces()) == set(tids)
        errs = tr.error_spans()
        assert errs and all(s.trace_id == tids[5] for s in errs)

    def test_error_trace_exports_and_validates(self):
        tr = SpanTracer(lambda: 0.0)
        for i in range(16):
            self._trace(tr, error=(i == 9))
        doc = tr.to_chrome_trace()
        assert validate_trace(doc) == []
        assert any(e.get("args", {}).get("error") == "boom"
                   for e in doc["traceEvents"])

    def test_validate_trace_reports_broken_forest(self):
        tr = SpanTracer(lambda: 0.0)
        self._trace(tr)
        doc = tr.to_chrome_trace()
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        x_events[1]["args"]["parent_id"] = 999      # dangling parent
        orphan = json.loads(json.dumps(x_events[0]))
        orphan["args"]["span_id"] = 50              # a second root
        bad = {"ph": "X", "name": "x", "ts": "0", "dur": -1.0,
               "args": {"span_id": 7}}
        doc["traceEvents"] += [orphan, bad]
        problems = validate_trace(doc)
        assert any("2 roots" in p for p in problems)
        assert any("parent 999" in p for p in problems)
        assert any("non-numeric ts" in p for p in problems)
        assert any("negative dur" in p for p in problems)
        assert any("args.trace_id" in p for p in problems)


# ----------------------------------------------------------------------
# Chrome-trace export of failover spans (election + respawn)
# ----------------------------------------------------------------------
class TestFailoverSpanExport:
    def test_election_spans_exported(self, tmp_path):
        """Killing the KVS root with standbys configured must leave
        per-candidate ``kvs_election`` traces in the Chrome export,
        with the winner recorded on the winning candidate's span."""
        path = str(tmp_path / "election-trace.json")
        report = run_chaos_workload(
            n_nodes=15, n_clients=8, drop_rate=0.01,
            seed=5, fault_seed=13, kills=((0, 0.12),),
            hb_period=0.05, n_iters=2, think=0.1,
            timeout=0.5, retries=10, run_until=40.0,
            kvs_replicas=(1, 2), trace_out=path)
        assert report.converged, report.errors
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_trace(doc) == []
        elections = [ev for ev in doc["traceEvents"]
                     if ev.get("name") == "kvs_election"]
        assert elections, "no kvs_election spans in the export"
        winners = [ev["args"]["winner"] for ev in elections
                   if "winner" in ev["args"]]
        assert winners, "no candidate recorded an election winner"
        assert all(w in (1, 2) for w in winners)

    def test_respawn_spans_exported(self, tmp_path):
        """A mid-job broker kill must leave a ``wexec_respawn`` root
        span (the respawn epoch fanout) in the Chrome export."""
        path = str(tmp_path / "respawn-trace.json")
        report = run_job_chaos_workload(
            n_nodes=15, nprocs=8, kills=((1, 0.3),), task_work=1.0,
            trace_out=path)
        assert report.converged, report.errors
        assert report.respawns > 0
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_trace(doc) == []
        respawns = [ev for ev in doc["traceEvents"]
                    if ev.get("name") == "wexec_respawn"]
        assert respawns, "no wexec_respawn spans in the export"
        root_spans = [ev for ev in respawns
                      if ev["args"].get("parent_id") is None]
        assert root_spans, "respawn fanout should open its own trace"
