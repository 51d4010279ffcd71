"""Live health plane: the ``health`` metric of ``mon``.

Activated as ``mon.activate {"name": "health", "op": "health"}``, every
broker samples its vitals on each heartbeat pulse, ``mon``'s epoch
reduction carries the census to the root, and the root publishes a
``mon.update`` event only on cluster-state transitions.  These tests
pin the contract: passive until activated (zero traffic, golden event
streams untouched), correct broker accounting through the reduction,
threshold-driven ok/degraded/overloaded classification, a read-only
local sample, no KVS write, and survival of mid-run broker death.
"""

import json

import pytest

from repro import make_cluster, standard_session
from repro.cmb.modules import HeartbeatModule, MonModule
from repro.cmb.modules.health import (DEFAULT_THRESHOLDS, HEALTH_STATES,
                                      cluster_view)
from repro.cmb.session import CommsSession, ModuleSpec
from repro.stats import validate_stats

from repro.chaos import run_chaos_workload

HEALTH = {"name": "health", "op": "health"}


def make_health_session(n=8, max_epochs=20):
    cluster = make_cluster(n, seed=3)
    session = CommsSession(cluster, modules=[
        ModuleSpec(MonModule),
        ModuleSpec(HeartbeatModule, period=0.05, max_epochs=max_epochs),
    ]).start()
    return cluster, session


def run_proc(cluster, gen):
    proc = cluster.sim.spawn(gen)
    return cluster.sim.run_until_complete(proc)


def call(cluster, h, topic, payload):
    """One RPC from ``h``, run to its answer."""
    def client():
        return (yield h.rpc(topic, payload))
    return run_proc(cluster, client())


def root_views(session):
    """The cluster views the root keeps, oldest first."""
    return list(session.module_at(0, "mon").results.get("health",
                                                          {}).values())


def latest_view(session):
    """A root-rank client's read of the newest view over ``mon.results``
    (the views live at the root broker)."""
    root_h = session.connect(0, collective=False)
    resp = yield root_h.rpc("mon.results", {"name": "health"})
    views = list(resp["results"].values())
    return views[-1], len(views)


# ----------------------------------------------------------------------
# passivity
# ----------------------------------------------------------------------
def test_inactive_plane_sends_nothing():
    """Heartbeats alone must not make ``mon`` talk — the module is
    loaded in every standard session, so any traffic here would perturb
    the golden fingerprints."""
    cluster, session = make_health_session()
    cluster.sim.run()
    counts = session.message_counts()
    assert not any(mod == "mon" for (mod, _plane, _kind) in counts)
    root = session.module_at(0, "mon")
    assert root.results == {}
    assert cluster_view(root) == {"state": "unknown", "epoch": -1,
                                  "cluster_state": "unknown"}


# ----------------------------------------------------------------------
# activation + reduction
# ----------------------------------------------------------------------
def test_activation_reduces_cluster_view_at_root():
    cluster, session = make_health_session()

    def client(h):
        resp = yield h.rpc("mon.activate", HEALTH)
        assert resp == {**HEALTH, "thresholds": DEFAULT_THRESHOLDS}
        yield cluster.sim.timeout(0.6)
        return (yield from latest_view(session))

    view, n_views = run_proc(cluster,
                             client(session.connect(5, collective=False)))
    assert n_views > 0
    assert view["state"] == "ok"
    assert view["brokers"] == 8
    assert view["counts"] == {"ok": 8, "degraded": 0, "overloaded": 0}
    assert all(v["brokers"] == 8 for v in root_views(session))
    # Healthy cluster: no state transition beyond unknown -> ok.
    assert cluster_view(session.module_at(0, "mon"))["cluster_state"] == "ok"


def test_update_event_only_on_transition():
    cluster, session = make_health_session()
    updates = []
    session.brokers[6].subscribe("mon.update",
                                 lambda m: updates.append(m.payload))

    def client(h):
        yield h.rpc("mon.activate", HEALTH)
        yield cluster.sim.timeout(0.8)

    run_proc(cluster, client(session.connect(2, collective=False)))
    # Many epochs completed, but the state only changed once
    # (unknown -> ok), so exactly one event was published.
    assert [(u["name"], u["state"]) for u in updates] == [("health", "ok")]
    assert len(root_views(session)) > 3


def test_threshold_override_degrades_cluster():
    """Activation-time thresholds propagate to every broker; an
    impossible inbox bar classifies everyone as degraded."""
    cluster, session = make_health_session()
    updates = []
    session.brokers[3].subscribe("mon.update",
                                 lambda m: updates.append(m.payload))

    def client(h):
        yield h.rpc("mon.activate",
                    {**HEALTH, "thresholds": {"inbox_degraded": 0}})
        yield cluster.sim.timeout(0.6)
        return (yield from latest_view(session))

    view, _n = run_proc(cluster, client(session.connect(4, collective=False)))
    assert view["state"] == "degraded"
    assert view["counts"]["degraded"] == 8
    assert updates and updates[0]["state"] == "degraded"
    assert cluster_view(session.module_at(0, "mon"))["cluster_state"] \
        == "degraded"


def test_overloaded_outranks_degraded():
    cluster, session = make_health_session()

    def client(h):
        yield h.rpc("mon.activate", {**HEALTH, "thresholds": {
            "inbox_degraded": 0, "inbox_overloaded": 0}})
        yield cluster.sim.timeout(0.5)
        return (yield from latest_view(session))

    view, _n = run_proc(cluster, client(session.connect(1, collective=False)))
    assert view["state"] == "overloaded"
    assert view["counts"]["overloaded"] == 8


def test_reactivation_starts_from_default_thresholds():
    """Each activation installs the defaults merged with its own
    overrides: a bare re-activation drops an earlier override."""
    cluster, session = make_health_session()

    def client(h):
        yield h.rpc("mon.activate",
                    {**HEALTH, "thresholds": {"inbox_degraded": 0}})
        yield cluster.sim.timeout(0.2)
        yield h.rpc("mon.deactivate", {"name": "health"})
        resp = yield h.rpc("mon.activate", HEALTH)
        yield cluster.sim.timeout(0.2)
        return resp

    resp = run_proc(cluster, client(session.connect(0, collective=False)))
    assert resp["thresholds"] == DEFAULT_THRESHOLDS
    assert all(b.modules["mon"].active["health"].spec["thresholds"]
               == DEFAULT_THRESHOLDS for b in session.brokers)


def test_deactivate_stops_reduction():
    cluster, session = make_health_session(max_epochs=40)

    def client(h):
        yield h.rpc("mon.activate", HEALTH)
        yield cluster.sim.timeout(0.5)
        yield h.rpc("mon.deactivate", {"name": "health"})
        _view, n_before = yield from latest_view(session)
        yield cluster.sim.timeout(0.7)
        _view, n_after = yield from latest_view(session)
        return n_before, n_after

    n_before, n_after = run_proc(
        cluster, client(session.connect(0, collective=False)))
    assert n_before > 0
    # At most one already-in-flight epoch may land after deactivation.
    assert n_after <= n_before + 1


def test_local_sample_rpc():
    cluster, session = make_health_session()

    def client(h):
        yield h.rpc("mon.activate", HEALTH)
        yield cluster.sim.timeout(0.3)
        return (yield h.rpc("mon.local", {"name": "health"}))

    resp = run_proc(cluster, client(session.connect(5, collective=False)))
    sample = resp["sample"]
    assert sample["state"] in HEALTH_STATES
    for key in ("inbox_depth", "inbox_peak", "pending_rpcs",
                "retry_amp", "dirty_ops", "flight_dropped"):
        assert key in sample


@pytest.mark.parametrize("local_read", [False, True])
def test_local_read_leaves_the_epoch_its_deltas(local_read):
    """Rank 5 retransmits 40 times and peaks at 70 queued messages
    between two pulses.  A ``mon.local`` read in between sees that and
    changes nothing: the next epoch reports the rank overloaded, with
    its retry amplification and inbox peak, read or no read."""
    cluster, session = make_health_session()
    sim = cluster.sim
    call(cluster, session.connect(0, collective=False), "mon.activate",
         HEALTH)
    sim.run(until=0.13)                 # between the pulses of 0.1, 0.15
    broker = session.brokers[5]
    broker._c_retransmits.inc(40)
    broker.inbox_peak = 70
    if local_read:
        resp = call(cluster, session.connect(5, collective=False),
                    "mon.local", {"name": "health"})
        assert resp["sample"]["state"] == "overloaded"
        assert resp["sample"]["inbox_peak"] == 70
    sim.run(until=0.3)
    view = next(v for v in root_views(session) if v["t"] > 0.13)
    assert view["state"] == "overloaded"
    assert view["counts"]["overloaded"] == 1
    assert view["retry_amp_max"] == 40.0
    assert view["inbox_max"] == 70


def test_health_writes_nothing_to_the_kvs_and_stays_quiet():
    """Over a dozen healthy epochs an active health metric commits
    nothing to the KVS (a commit would flood ``kvs.setroot`` to every
    rank) and publishes one ``mon.update``: unknown -> ok."""
    cluster = make_cluster(8, seed=3)
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=0.05, hb_max_epochs=20).start()
    updates = []
    session.brokers[7].subscribe("mon.update",
                                 lambda m: updates.append(m.payload))
    kvs = session.module_at(0, "kvs")

    def kvs_events():
        return sum(n for (mod, _plane, kind), n in
                   session.message_counts().items()
                   if (mod, kind) == ("kvs", "event"))

    call(cluster, session.connect(3, collective=False), "mon.activate",
         HEALTH)
    version, events = kvs.version, kvs_events()
    cluster.sim.run()
    assert len(root_views(session)) >= 10
    assert (kvs.version, kvs_events()) == (version, events)
    assert [u["state"] for u in updates] == ["ok"]
    session.stop()


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
        yield h.rpc("mon.activate", HEALTH)

    run_proc(cluster, client(session.connect(0, collective=False)))
    sim.run(until=0.5)
    session.fail_rank(7)            # a leaf dies mid-run
    sim.run(until=3.0)
    views = root_views(session)
    assert views, "no completed views at the root"
    assert views[-1]["brokers"] == n - 1
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
