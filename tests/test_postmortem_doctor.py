"""Post-mortem bundles + doctor: seeded pathologies get root-caused.

Each test seeds one known failure mode with the chaos harness (or a
hand-built stuck session), captures a post-mortem bundle, and asserts
``repro.obs.doctor`` names the right pathology with usable evidence —
the acceptance bar for the flight-recorder tentpole.
"""

import json

import pytest

from repro import make_cluster, standard_session
from repro.kvs import KvsClient
from repro.obs.doctor import Doctor, diagnose, main as doctor_main
from repro.obs.postmortem import (BUNDLE_VERSION, capture_bundle,
                                  load_bundle, write_bundle)

from .chaos import run_chaos_workload, run_job_chaos_workload


# ----------------------------------------------------------------------
# bundle capture / round trip
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def clean_bundle_path(tmp_path_factory):
    """Fault-free chaos run with an explicit postmortem_out: the
    caller asked, so a bundle is written even with nothing wrong."""
    path = str(tmp_path_factory.mktemp("pm") / "clean.json")
    report = run_chaos_workload(n_nodes=7, n_clients=4, drop_rate=0.0,
                                n_iters=1, postmortem_out=path)
    assert report.converged
    assert report.postmortem_path == path
    return path


def test_bundle_round_trip_structure(clean_bundle_path):
    bundle = load_bundle(clean_bundle_path)
    meta = bundle["meta"]
    assert meta["bundle_version"] == BUNDLE_VERSION
    assert meta["kind"] == "chaos"
    assert meta["reason"] == "requested by caller"
    assert meta["size"] == 7
    assert len(bundle["brokers"]) == 7
    for entry in bundle["brokers"]:
        assert entry["alive"]
        assert entry["flight"]["appended"] > 0
        assert isinstance(entry["pending"], list)
        assert "metrics" in entry
        assert "kvs" in entry
    assert bundle["terminal_errors"] == []
    assert "retry_stats" in bundle and "plane_bytes" in bundle


def test_bundle_version_gate(tmp_path, clean_bundle_path):
    bundle = load_bundle(clean_bundle_path)
    bundle["meta"]["bundle_version"] = 99
    bad = str(tmp_path / "bad.json")
    write_bundle(bundle, bad)
    with pytest.raises(ValueError, match="bundle version"):
        load_bundle(bad)


def test_clean_run_diagnoses_clean(clean_bundle_path):
    diag = diagnose([clean_bundle_path])
    errors = [f for f in diag["findings"] if f["severity"] == "error"]
    assert errors == []
    assert diag["dead_ranks"] == []
    assert diag["n_records"] > 0


# ----------------------------------------------------------------------
# pathology 1: respawn-exhausted (job declared lost)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lost_job_bundle(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pm") / "lost-job.json")
    report = run_job_chaos_workload(n_nodes=15, nprocs=8,
                                    max_restarts=0, kill_ranks=(1,),
                                    task_work=1.0, postmortem_out=path)
    assert report.lost
    assert report.postmortem_path == path
    return path


def test_doctor_root_causes_respawn_exhausted(lost_job_bundle):
    diag = diagnose([lost_job_bundle])
    found = {f["pathology"]: f for f in diag["findings"]}
    assert "respawn-exhausted" in found
    f = found["respawn-exhausted"]
    assert f["severity"] == "error"
    assert "lwj-chaos" in f["summary"]
    assert any("max_restarts=0" in ev for ev in f["evidence"])
    # The job's reconstructed timeline made it into the report.
    assert any(key.startswith("job:") for key in diag["timelines"])


def test_doctor_cli_expect(lost_job_bundle, capsys):
    assert doctor_main([lost_job_bundle,
                        "--expect", "respawn-exhausted"]) == 0
    out = capsys.readouterr().out
    assert "post-mortem doctor" in out
    assert "respawn-exhausted" in out
    # A pathology that was NOT found exits nonzero.
    assert doctor_main([lost_job_bundle,
                        "--expect", "double-promote"]) == 1


def test_doctor_cli_json(lost_job_bundle, capsys):
    assert doctor_main([lost_job_bundle, "--json"]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert any(f["pathology"] == "respawn-exhausted"
               for f in diag["findings"])


# ----------------------------------------------------------------------
# pathology 2: root failover (election narrative)
# ----------------------------------------------------------------------
def test_doctor_narrates_root_failover(tmp_path):
    path = str(tmp_path / "root-kill.json")
    report = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.01,
                                seed=5, fault_seed=13,
                                kill_ranks=(0,), kill_at=0.12,
                                hb_period=0.05, n_iters=2, iter_gap=0.1,
                                timeout=0.5, retries=10, run_until=40.0,
                                kvs_replicas=(1, 2),
                                postmortem_out=path)
    assert report.converged, report.errors
    diag = diagnose([path])
    found = {f["pathology"]: f for f in diag["findings"]}
    assert "root-failover" in found
    f = found["root-failover"]
    assert f["severity"] == "info"
    assert "rank 0 died" in f["summary"]
    assert "promoted" in f["summary"]
    assert diag["dead_ranks"] == [0]
    # Election timeline reconstructed from promote/election records.
    assert "election" in diag["timelines"]
    assert diag["timelines"]["election"]


# ----------------------------------------------------------------------
# pathology 3: orphaned version waiter
# ----------------------------------------------------------------------
def test_doctor_root_causes_orphaned_waiter(tmp_path):
    cluster = make_cluster(4, seed=2)
    session = standard_session(cluster)
    session.start()
    sim = cluster.sim

    def waiter():
        kvs = KvsClient(session.connect(2, collective=False))
        yield kvs.put("w", 1)
        yield kvs.commit()          # root reaches version 1 ...
        yield kvs.wait_version(5)   # ... but nobody will publish 5

    sim.spawn(waiter())
    sim.run(until=2.0)
    path = write_bundle(
        capture_bundle(session, "seeded orphan waiter", kind="test"),
        str(tmp_path / "orphan.json"))
    session.stop()
    diag = diagnose([path])
    found = {f["pathology"]: f for f in diag["findings"]}
    assert "orphaned-waiter" in found
    f = found["orphaned-waiter"]
    assert f["severity"] == "error"
    assert "[5]" in f["summary"]
    assert any("max applied" in ev for ev in f["evidence"])


# ----------------------------------------------------------------------
# pathology 4: lost fence ack (fence stuck short of quorum)
# ----------------------------------------------------------------------
def test_doctor_root_causes_lost_fence_ack(tmp_path):
    cluster = make_cluster(7, seed=4)
    session = standard_session(cluster)
    session.start()
    sim = cluster.sim

    def fencer(rank):
        kvs = KvsClient(session.connect(rank, collective=False))
        yield kvs.put(f"f.{rank}", rank)
        yield kvs.fence("stuck", 3)     # third contribution never comes

    for rank in (1, 2):
        sim.spawn(fencer(rank))
    sim.run(until=2.0)
    path = write_bundle(
        capture_bundle(session, "seeded stuck fence", kind="test"),
        str(tmp_path / "fence.json"))
    session.stop()
    diag = diagnose([path])
    fence_findings = [f for f in diag["findings"]
                      if f["pathology"] == "lost-fence-ack"]
    # One finding for the fence, not one per rank holding it.
    f, = fence_findings
    assert f["severity"] == "error"
    assert "'stuck'" in f["summary"]
    assert f["entity"] == ("fence", "stuck")
    assert (f["ranks"], f["held"], f["seen"], f["nprocs"]) == (
        [1, 2], 2, [1, 1], [3, 3])
    assert f["evidence"][0].startswith("rank(s) [1, 2]: fence 'stuck'")
    assert "fence:stuck" in diag["timelines"]


# ----------------------------------------------------------------------
# hung reads: the census shows what a read is stuck behind
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dedup", [False, True])
def test_bundle_shows_read_stuck_behind_dead_uplink(dedup):
    cluster = make_cluster(7, seed=6)
    session = standard_session(cluster, kvs_dedup=dedup)
    session.start()
    sim = cluster.sim

    def writer():
        kvs = KvsClient(session.connect(0, collective=False))
        yield kvs.put("hung.a", 1)
        yield kvs.put("hung.b", 2)
        yield kvs.commit()

    sim.spawn(writer())
    sim.run()
    session.fail_rank(1)            # rank 3's uplink; nobody detects it
    reader = KvsClient(session.connect(3, collective=False))
    reader.get("hung.a")
    reader.get("hung.b")
    sim.run(until=sim.now + 1.0)
    bundle = capture_bundle(session, "seeded hung read", kind="test")
    session.stop()
    census = bundle["brokers"][3]["kvs"]
    no_loads = {"outstanding": 0, "batches": 0, "parked": 0, "queued": 0,
                "shas": []}
    if dedup:
        # One walk left for the dead parent; the other queued behind it.
        assert census["walks"] == {"outstanding": 1, "batches": 1,
                                   "parked": 0, "queued": 1,
                                   "keys": ["hung.a", "hung.b"]}
        assert census["loads"] == no_loads
    else:
        # Both reads joined one load of the root, left for the dead parent.
        root = session.module_at(3, "kvs").root_sha
        assert census["loads"] == {"outstanding": 1, "batches": 1,
                                   "parked": 0, "queued": 0,
                                   "shas": [root]}
        assert census["walks"] == {"outstanding": 0, "batches": 0,
                                   "parked": 0, "queued": 0, "keys": []}
    idle = bundle["brokers"][2]["kvs"]
    assert idle["loads"] == no_loads and idle["walks"]["outstanding"] == 0
    json.dumps(bundle)              # the census stays JSON-able


# ----------------------------------------------------------------------
# multi-bundle merge
# ----------------------------------------------------------------------
def test_doctor_merges_bundles(clean_bundle_path, lost_job_bundle):
    solo = Doctor([load_bundle(lost_job_bundle)])
    merged = Doctor([load_bundle(clean_bundle_path),
                     load_bundle(lost_job_bundle)])
    # Later bundles win per rank: the lost-job session's 15 brokers
    # override the clean session's 7 on the overlap.
    assert len(merged.brokers) == 15
    assert merged.by_kind("wexec_lost") == solo.by_kind("wexec_lost")
    found = {f["pathology"] for f in merged.diagnose()["findings"]}
    assert "respawn-exhausted" in found
