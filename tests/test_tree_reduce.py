"""The tree-reduction state that ``barrier``, ``mon`` and ``health``
share (``repro.cmb.modules.reduce``), and the liveness rule its epoch
users follow: a rank waits for itself and every child in its own
``broker.children``, so a crashed child holds the epoch until
``live.down`` takes it out."""

from collections import Counter

import pytest

from repro.cmb.broker import Broker
from repro.cmb.modules import (BarrierModule, HealthModule, HeartbeatModule,
                               LiveModule, MonModule, StatsModule)
from repro.cmb.modules.reduce import HISTORY, STALE_EPOCHS, TreeReduce
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kvs import KvsClient, KvsModule
from repro.sim import FaultPlan
from repro.sim.cluster import make_cluster


def _add(a, b):
    return a + b


# ----------------------------------------------------------------------
# the state type
# ----------------------------------------------------------------------
def test_a_contributors_largest_count_stands():
    red = TreeReduce(_add)
    st = red.slot("k")
    assert st.put(0, 1, 10)              # the local share
    assert st.put(3, 2, 20)
    assert not st.put(3, 2, 20)          # a duplicate
    assert not st.put(3, 1, 5)           # a stale re-emission
    assert st.total == 3 and st.contributors() == [0, 3]
    assert red.take("k", [0, 3, 4]) is None       # 4 still to come
    assert st.put(4, 1, 7)
    assert red.take("k", [0, 3, 4]) == 37
    assert "k" not in red


def test_an_epoch_folds_only_its_members():
    red = TreeReduce(_add)
    st = red.slot(7)
    for rank, value in ((0, 1), (5, 100), (1, 10)):
        st.put(rank, 1, value)
    assert red.take(7, [0, 1, 2]) is None         # 5 is no member
    assert red.take(7, [0, 1]) == 11


def test_a_dropped_child_stops_counting_until_it_contributes_again():
    red = TreeReduce()
    st = red.slot("k")
    st.put(3, 2)
    st.put(4, 1)
    red.drop_child(3)
    assert st.total == 1 and st.contributors() == [4]
    assert list(st.parts) == [3, 4]      # recorded, at zero
    assert st.put(3, 1)
    assert st.total == 2 and st.contributors() == [3, 4]


def test_unfinished_and_stale_keys():
    red = TreeReduce(_add)
    for epoch in range(1, 12):
        red.slot(epoch).put(0, 1, epoch)
    red.slot(12)                         # nothing contributed yet
    assert red.unfinished() == list(range(1, 12))
    assert red.gc(11) == 11 - STALE_EPOCHS
    assert sorted(red) == list(range(12 - STALE_EPOCHS, 13))


# ----------------------------------------------------------------------
# the epoch reducers on the rank's own liveness view
# ----------------------------------------------------------------------
PERIOD = 0.05


def epoch_session(n=7, modules=(), max_epochs=30, fault_plan=None):
    cluster = make_cluster(n, seed=3)
    cluster.network.fault_plan = fault_plan
    session = CommsSession(
        cluster, topology=TreeTopology(n, arity=2),
        modules=[*modules,
                 ModuleSpec(MonModule, samplers={"one": lambda b: 1.0}),
                 ModuleSpec(HealthModule),
                 ModuleSpec(HeartbeatModule, period=PERIOD,
                            max_epochs=max_epochs),
                 ModuleSpec(LiveModule)]).start()
    return cluster.sim, session


def activate(sim, session):
    def client():
        h = session.connect(0, collective=False)
        yield h.rpc("mon.activate", {"name": "one", "op": "sum"})
        yield h.rpc("health.activate", {})

    sim.run_until_complete(sim.spawn(client()))


def watch_down(session):
    """``[(time, rank, epoch, done)]`` of every ``live.down`` at the
    root, ``done`` being the mon epochs the root completed by then."""
    seen = []
    mon = session.module_at(0, "mon")

    def on_down(msg):
        seen.append((session.cluster.sim.now, msg.payload["rank"],
                     msg.payload["epoch"], {e for _n, e in mon.results}))

    session.brokers[0].subscribe("live.down", on_down)
    return seen


def test_crashed_child_holds_the_epoch_until_live_down():
    """Leaf 6 dies between pulses.  Its parent 2 does not consult an
    oracle: it waits for 6 until ``live.down``, and right after it the
    held epochs complete with the six survivors."""
    sim, session = epoch_session()
    activate(sim, session)
    downs = watch_down(session)
    sim.run(until=0.42)
    mon = session.module_at(0, "mon")
    kill_epoch = max(e for _n, e in mon.results)
    session.fail_rank(6)
    sim.run()
    t_down, rank, _epoch, done_at_down = downs[0]
    assert rank == 6
    assert max(done_at_down) == kill_epoch          # held, not guessed
    results = {e: v for (_n, e), v in mon.results.items()}
    held = range(kill_epoch + 1, max(results) + 1)
    assert len(held) > 3
    assert all(results[e] == 6.0 for e in held)
    views = {v["epoch"]: v for v in session.module_at(0, "health").views}
    assert all(views[e]["brokers"] == 6 for e in held)
    # The held epochs completed within a few hops of the detection.
    first_after = min(v["t"] for e, v in views.items() if e > kill_epoch)
    assert t_down <= first_after < t_down + 1e-3


def test_duplicated_child_contribution_leaves_the_result_unchanged(
        monkeypatch):
    """Every ``mon.sample`` / ``health.sample`` leaves its rank twice,
    as two requests the broker cannot fold into one: the parent keeps
    one contribution per child, so each epoch still counts 7 ranks."""
    send = Broker.rpc_parent_cb

    def twice(self, topic, payload, callback, *args, **kw):
        send(self, topic, payload, callback, *args, **kw)
        if topic in ("mon.sample", "health.sample"):
            send(self, topic, dict(payload), callback, *args, **kw)

    monkeypatch.setattr(Broker, "rpc_parent_cb", twice)
    sim, session = epoch_session(max_epochs=10)
    activate(sim, session)
    sim.run()
    results = session.module_at(0, "mon").results
    views = session.module_at(0, "health").views
    assert len(results) >= 8 and set(results.values()) == {7.0}
    assert len(views) >= 8 and {v["brokers"] for v in views} == {7}


def test_mon_results_keep_the_newest_epochs():
    cluster = make_cluster(3, seed=3)
    session = CommsSession(
        cluster, topology=TreeTopology(3, arity=2),
        modules=[ModuleSpec(KvsModule),
                 ModuleSpec(MonModule, samplers={"one": lambda b: 1.0}),
                 ModuleSpec(HeartbeatModule, period=0.01,
                            max_epochs=HISTORY + 20)]).start()
    sim = cluster.sim

    def client(h):
        yield h.rpc("mon.activate", {"name": "one", "op": "sum"})
        yield sim.timeout(0.01 * (HISTORY + 25))
        res = yield h.rpc("mon.results", {"name": "one"})
        first = yield KvsClient(h).get("mon.one.1")
        return res["results"], first

    results, first = sim.run_until_complete(
        sim.spawn(client(session.connect(0, collective=False))))
    last = HISTORY + 20
    assert sorted(map(int, results)) == list(range(last - HISTORY + 1,
                                                   last + 1))
    assert first == 3.0                  # older epochs stay in the KVS


def test_stats_aggregate_answers_with_the_survivors():
    """Leaf 6 is killed and not yet declared down: the root's
    ``stats.aggregate`` waits on it through rank 2 and answers with the
    six survivors once ``live.down`` fails the pending hop."""
    sim, session = epoch_session(modules=[ModuleSpec(StatsModule)])
    downs = watch_down(session)
    sim.run(until=0.2)
    session.fail_rank(6)
    assert 6 in session.brokers[2].children

    def query():
        h = session.connect(0, collective=False)
        resp = yield h.rpc("stats.aggregate", {})
        return sim.now, resp

    t_answer, resp = sim.run_until_complete(sim.spawn(query()))
    assert resp["ranks"] == 6
    assert downs and t_answer >= downs[0][0]


@pytest.mark.parametrize("fault_seed", range(1, 11))
def test_lossy_session_with_barrier_mon_and_health_and_a_kill(fault_seed):
    """31 ranks, 1% drop + 1% dup, barrier + mon + health together, and
    interior rank 5 killed: each barrier entry is released exactly
    once, before and after the kill, and the epochs after the detection
    report the 30 survivors.  Seeds 3, 4, 5, 9 and 10 lose a
    ``mon.activate`` or ``health.activate`` on the way down; the root
    announces it again once its epochs go stale."""
    sim, session = epoch_session(
        n=31, modules=[ModuleSpec(BarrierModule)], max_epochs=24,
        fault_plan=FaultPlan(seed=fault_seed, drop_rate=0.01,
                             dup_rate=0.01))
    activate(sim, session)
    downs = watch_down(session)
    released = Counter()

    def member(h, name, nprocs, at):
        yield sim.timeout(at)
        yield h.barrier(name, nprocs)
        released[(name, h.rank, id(h))] += 1

    before = [session.connect(r) for r in range(31) for _ in range(2)]
    procs = [sim.spawn(member(h, "before", 62, 0.0)) for h in before]
    sim.run(until=0.3)
    assert all(p.ok for p in procs) and len(released) == 62
    session.fail_rank(5)
    after = [session.connect(r) for r in range(31) if r != 5
             for _ in range(2)]
    procs = [sim.spawn(member(h, "after", 60, 0.6)) for h in after]
    sim.run(until=2.0)
    assert all(p.ok for p in procs)
    assert len(released) == 122 and set(released.values()) == {1}
    # The kill is detected once; a rank buried by mistake on the lossy
    # fabric leaves its count out until its reattach, never counted
    # twice.
    detected = [e for _t, rank, e, _d in downs if rank == 5]
    assert len(detected) == 1
    results = {e: v for (_n, e), v in
               session.module_at(0, "mon").results.items()}
    views = {v["epoch"]: v["brokers"]
             for v in session.module_at(0, "health").views}
    later = sorted(e for e in results if e > detected[0])
    assert len(later) >= 5
    assert all(results[e] <= 30.0 for e in later)
    assert results[later[-1]] == 30.0
    assert all(v <= 31.0 for v in results.values())
    assert all(views[e] == results[e] for e in later if e in views)
