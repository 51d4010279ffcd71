"""Self-test of the benchmark harness on the 16-node ``--quick`` scale.

    PYTHONPATH=src python -m pytest benchmarks/perf

Outside tier-1's ``testpaths``.  It checks the harness, not the
program: that every metric the contract names is reported, that exact
metrics repeat, that the layer shares add up, and that a wrong read is
counted as a failure.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402 - after the path set-up
from layers import LAYERS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in CONTRACT["workloads"]]


def run_benchmark(*argv):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *argv],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One invocation over every workload, two rounds, traced."""
    out = tmp_path_factory.mktemp("perf") / "doc.json"
    trajectory = out.with_name("trajectory.jsonl")
    stdout = run_benchmark("--rounds", "2", "--traced", "--out", str(out),
                           "--append", str(trajectory))
    return stdout, json.loads(out.read_text(encoding="utf-8")), trajectory


def test_workloads_match_contract():
    assert NAMES == list(workloads.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/perf"]


def test_every_contract_metric_is_printed_with_unit_and_finite(full_run):
    stdout, doc, _ = full_run
    printed = {tuple(line.split()[:2]): line.split()[3]
               for line in stdout.splitlines()
               if line.split()[:1] and line.split()[0] in NAMES}
    for name in NAMES:
        row = doc["workloads"][name]
        for key in ("end_to_end", "per_layer"):
            metrics = row[key]["metrics"]
            for spec in CONTRACT[key]:
                assert math.isfinite(metrics[spec["name"]]), spec["name"]
                assert printed[(name, spec["name"])] == spec["unit"]
            assert set(metrics) == {m["name"] for m in CONTRACT[key]}
    for spec in CONTRACT["end_to_end"]:
        assert all(doc["workloads"][n]["end_to_end"]["metrics"][spec["name"]]
                   > 0 for n in NAMES), f"{spec['name']} must never be 0"


def test_exact_metrics_repeat_and_nothing_fails(full_run):
    # The harness compares the exact metrics of its own executions
    # (two rounds, plus the traced and counter runs) and lists any
    # difference as a problem.
    _, doc, _ = full_run
    for name in NAMES:
        for key in ("end_to_end", "per_layer"):
            part = doc["workloads"][name][key]
            assert part["problems"] == []
            assert part["failed"] == 0 < part["attempted"]


def test_layer_shares_sum_to_one(full_run):
    _, doc, _ = full_run
    for name in NAMES:
        metrics = doc["workloads"][name]["per_layer"]["metrics"]
        share = sum(metrics[f"{layer}.self_share"] for layer in LAYERS)
        assert share == pytest.approx(1.0, abs=0.01)
        assert metrics["trace.overhead_ratio"] > 1.0


def test_micro_calibration_and_trajectory(full_run):
    _, doc, trajectory = full_run
    assert all(v > 0 and math.isfinite(v) for v in doc["micro"].values())
    assert len(doc["micro"]) == 9
    assert len(doc["host"]["calib_s"]) == 2
    (line,) = trajectory.read_text(encoding="utf-8").splitlines()
    assert set(json.loads(line)["workloads"]) == set(NAMES)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_last_line_meets_the_contract(trace, key):
    stdout = run_benchmark("--workload", "chaos_failover_127", "--seed", "5",
                           "--seconds", "1", "--trace", trace)
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert ({n: m["unit"] for n, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in CONTRACT[key]})


def _wrong_get(monkeypatch, wrong):
    from repro.kvs import KvsClient
    real_get = KvsClient.get

    def get(self, key, timeout=None):
        out = self.handle.sim.event()
        real_get(self, key, timeout).add_callback(
            lambda ev: out.succeed(wrong))
        return out

    monkeypatch.setattr(KvsClient, "get", get)


def test_wrong_value_counts_as_failed_chaos(monkeypatch, tmp_path):
    _wrong_get(monkeypatch, [0, 0])
    row = workloads.run_once("chaos_failover_127", 1, quick=True,
                             scratch=str(tmp_path))
    assert row["failed"] > 0


def test_wrong_length_counts_as_failed_kap(monkeypatch, tmp_path):
    _wrong_get(monkeypatch, "x")
    row = workloads.run_once("kap_get_1k", 1, quick=True,
                             scratch=str(tmp_path))
    assert row["failed"] > 0


def test_scale_workload_runs_without_dedup_and_shards(monkeypatch, tmp_path):
    real_fields = dataclasses.fields
    monkeypatch.setattr(
        dataclasses, "fields",
        lambda cls: [f for f in real_fields(cls)
                     if f.name not in ("dedup", "shards")])
    row = workloads.run_once("kap_scale_4k", 1, quick=True,
                             scratch=str(tmp_path))
    assert row["failed"] == 0
    assert not {"dedup", "shards"} & set(row["config_effective"])
