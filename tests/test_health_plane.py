"""Live health plane: activation, tree reduction, threshold states.

The ``health`` module samples each broker's vitals on every heartbeat
pulse, tree-reduces the census to the root, and publishes a
``health.update`` event only on cluster-state transitions.  These
tests pin the contract: passive until activated (zero traffic, golden
event streams untouched), correct broker accounting through the
reduction, threshold-driven ok/degraded/overloaded classification,
and survival of mid-run broker death.
"""

import json

import pytest

from repro import make_cluster, standard_session
from repro.cmb.modules import HealthModule, HeartbeatModule
from repro.cmb.modules.health import HEALTH_STATES
from repro.cmb.session import CommsSession, ModuleSpec
from repro.stats import validate_stats

from .chaos import run_chaos_workload


def make_health_session(n=8, max_epochs=20):
    cluster = make_cluster(n, seed=3)
    session = CommsSession(cluster, modules=[
        ModuleSpec(HealthModule),
        ModuleSpec(HeartbeatModule, period=0.05, max_epochs=max_epochs),
    ]).start()
    return cluster, session


def run_proc(cluster, gen):
    proc = cluster.sim.spawn(gen)
    return cluster.sim.run_until_complete(proc)


# ----------------------------------------------------------------------
# passivity
# ----------------------------------------------------------------------
def test_inactive_plane_sends_nothing():
    """Heartbeats alone must not make the health module talk — the
    module is loaded in every standard session, so any traffic here
    would perturb the golden fingerprints."""
    cluster, session = make_health_session()
    cluster.sim.run()
    counts = session.message_counts()
    assert not any(mod == "health" for (mod, _plane, _kind) in counts)
    root = session.brokers[0].modules["health"]
    assert root.views == []
    assert root.cluster_state == "unknown"
    assert root.cluster_view()["epoch"] == -1


# ----------------------------------------------------------------------
# activation + reduction
# ----------------------------------------------------------------------
def test_activation_reduces_cluster_view_at_root():
    cluster, session = make_health_session()

    def client(h):
        resp = yield h.rpc("health.activate", {})
        assert resp["active"]
        yield cluster.sim.timeout(0.6)
        # The reduced view lives at the root broker.
        root_h = session.connect(0, collective=False)
        return (yield root_h.rpc("health.view", {}))

    resp = run_proc(cluster, client(session.connect(5, collective=False)))
    view = resp["view"]
    assert resp["n_views"] > 0
    assert view["state"] == "ok"
    assert view["brokers"] == 8
    assert view["counts"] == {"ok": 8, "degraded": 0, "overloaded": 0}
    assert view["cluster_state"] == "ok"
    root = session.brokers[0].modules["health"]
    assert all(v["brokers"] == 8 for v in root.views)
    # Healthy cluster: no state transition beyond unknown -> ok, and
    # therefore exactly one health.update fanout.
    assert root.cluster_state == "ok"


def test_update_event_only_on_transition():
    cluster, session = make_health_session()
    updates = []
    session.brokers[6].subscribe("health.update",
                                 lambda m: updates.append(m.payload))

    def client(h):
        yield h.rpc("health.activate", {})
        yield cluster.sim.timeout(0.8)

    run_proc(cluster, client(session.connect(2, collective=False)))
    # Many epochs completed, but the state only changed once
    # (unknown -> ok), so exactly one event was published.
    assert [u["state"] for u in updates] == ["ok"]
    root = session.brokers[0].modules["health"]
    assert len(root.views) > 3


def test_threshold_override_degrades_cluster():
    """Activation-time thresholds propagate to every broker; an
    impossible inbox bar classifies everyone as degraded."""
    cluster, session = make_health_session()
    updates = []
    session.brokers[3].subscribe("health.update",
                                 lambda m: updates.append(m.payload))

    def client(h):
        yield h.rpc("health.activate",
                    {"thresholds": {"inbox_degraded": 0}})
        yield cluster.sim.timeout(0.6)
        root_h = session.connect(0, collective=False)
        return (yield root_h.rpc("health.view", {}))

    resp = run_proc(cluster, client(session.connect(4, collective=False)))
    assert resp["view"]["state"] == "degraded"
    assert resp["view"]["counts"]["degraded"] == 8
    assert updates and updates[0]["state"] == "degraded"
    root = session.brokers[0].modules["health"]
    assert root.cluster_state == "degraded"


def test_overloaded_outranks_degraded():
    cluster, session = make_health_session()

    def client(h):
        yield h.rpc("health.activate", {"thresholds": {
            "inbox_degraded": 0, "inbox_overloaded": 0}})
        yield cluster.sim.timeout(0.5)
        root_h = session.connect(0, collective=False)
        return (yield root_h.rpc("health.view", {}))

    resp = run_proc(cluster, client(session.connect(1, collective=False)))
    assert resp["view"]["state"] == "overloaded"
    assert resp["view"]["counts"]["overloaded"] == 8


def test_reactivation_starts_from_default_thresholds():
    """Each activation installs the defaults merged with its own
    overrides: a bare re-activation drops an earlier override."""
    cluster, session = make_health_session()

    def client(h):
        yield h.rpc("health.activate",
                    {"thresholds": {"inbox_degraded": 0}})
        yield cluster.sim.timeout(0.2)
        yield h.rpc("health.deactivate", {})
        resp = yield h.rpc("health.activate", {})
        yield cluster.sim.timeout(0.2)
        return resp

    resp = run_proc(cluster, client(session.connect(0, collective=False)))
    default = HealthModule.DEFAULT_THRESHOLDS
    assert resp["thresholds"] == default
    assert all(b.modules["health"].thresholds == default
               for b in session.brokers)


def test_deactivate_stops_reduction():
    cluster, session = make_health_session(max_epochs=40)

    def client(h):
        yield h.rpc("health.activate", {})
        yield cluster.sim.timeout(0.5)
        yield h.rpc("health.deactivate", {})
        n_before = (yield h.rpc("health.view", {}))["n_views"]
        yield cluster.sim.timeout(0.7)
        n_after = (yield h.rpc("health.view", {}))["n_views"]
        return n_before, n_after

    n_before, n_after = run_proc(
        cluster, client(session.connect(0, collective=False)))
    assert n_before > 0
    # At most one already-in-flight epoch may land after deactivation.
    assert n_after <= n_before + 1


def test_local_sample_rpc():
    cluster, session = make_health_session()

    def client(h):
        yield h.rpc("health.activate", {})
        yield cluster.sim.timeout(0.3)
        return (yield h.rpc("health.local", {}))

    sample = run_proc(cluster, client(session.connect(5, collective=False)))
    assert sample["state"] in HEALTH_STATES
    for key in ("inbox_depth", "inbox_peak", "pending_rpcs",
                "retry_amp", "dirty_ops", "flight_dropped"):
        assert key in sample


def test_reduction_survives_broker_death():
    """A dead subtree must not wedge the reduction: live.down takes the
    child out of ``broker.children`` and pending epochs re-complete."""
    n = 8
    cluster = make_cluster(n, seed=3)
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=0.05, hb_max_epochs=60)
    session.start()
    sim = cluster.sim

    def client(h):
        yield h.rpc("health.activate", {})

    run_proc(cluster, client(session.connect(0, collective=False)))
    sim.run(until=0.5)
    session.fail_rank(7)            # a leaf dies mid-run
    sim.run(until=3.0)
    root = session.brokers[0].modules["health"]
    assert root.views, "no completed views at the root"
    assert root.views[-1]["brokers"] == n - 1
    session.stop()


# ----------------------------------------------------------------------
# stats-document integration (``python -m repro.stats validate``)
# ----------------------------------------------------------------------
def test_chaos_stats_doc_health_section_validates(tmp_path):
    path = str(tmp_path / "stats.json")
    report = run_chaos_workload(n_nodes=7, n_clients=4, drop_rate=0.0,
                                n_iters=1, stats_out=path)
    assert report.converged
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert "health" in doc
    assert validate_stats(doc) == []


def _health_doc(view):
    return {"meta": {}, "aggregate": {"labels": {}, "metrics": []},
            "health": {"cluster": view, "views": [view]}}


def test_validate_stats_flags_bad_health_state():
    view = {"epoch": 1, "t": 0.5, "state": "on-fire", "brokers": 2,
            "counts": {"ok": 2}, "inbox_sum": 0, "inbox_max": 0,
            "pending_max": 0, "retry_amp_max": 0.0, "dirty_sum": 0,
            "respawn_sum": 0}
    problems = validate_stats(_health_doc(view))
    assert any("on-fire" in p for p in problems)


def test_validate_stats_flags_count_mismatch():
    view = {"epoch": 1, "t": 0.5, "state": "ok", "brokers": 5,
            "counts": {"ok": 2}, "inbox_sum": 0, "inbox_max": 0,
            "pending_max": 0, "retry_amp_max": 0.0, "dirty_sum": 0,
            "respawn_sum": 0}
    problems = validate_stats(_health_doc(view))
    assert any("counts sum 2 != brokers 5" in p for p in problems)


def test_validate_stats_flags_nonmonotonic_epochs():
    view = {"epoch": 3, "t": 0.5, "state": "ok", "brokers": 1,
            "counts": {"ok": 1}, "inbox_sum": 0, "inbox_max": 0,
            "pending_max": 0, "retry_amp_max": 0.0, "dirty_sum": 0,
            "respawn_sum": 0}
    doc = _health_doc(view)
    doc["health"]["views"] = [view, dict(view)]   # 3 then 3 again
    problems = validate_stats(doc)
    assert any("not increasing" in p for p in problems)


def test_validate_stats_accepts_placeholder_view():
    """A never-activated plane exports the epoch=-1 placeholder."""
    doc = _health_doc({"state": "unknown", "epoch": -1,
                       "cluster_state": "unknown"})
    doc["health"]["views"] = []
    assert validate_stats(doc) == []
