"""The barrier reduces at tree speed: a broker forwards its tally the
moment its subtree is complete, and only a partly joined subtree waits
for the aggregation window.  Tallies are one-way and cumulative: the
exit is their only acknowledgement, and a refusal travels down."""

from collections import Counter

import pytest

from repro.cmb.errors import EHOSTUNREACH, EINVAL, RpcError
from repro.cmb.modules import BarrierModule, HeartbeatModule, LiveModule
from repro.cmb.modules.barrier import _BARRIER_WINDOW
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kap import KapConfig, run_kap
from repro.sim import FaultPlan
from repro.sim.cluster import make_cluster
from repro.sim.network import Network


def make_session(n):
    cluster = make_cluster(n, seed=3)
    session = CommsSession(cluster, topology=TreeTopology(n, arity=2),
                           modules=[ModuleSpec(BarrierModule)]).start()
    return cluster.sim, session


def enter_all(sim, handles, name, nprocs):
    """Spawn one ``barrier(name, nprocs)`` per handle; returns the
    processes and the list their release times are appended to."""
    released = []

    def member(h):
        yield h.barrier(name, nprocs)
        released.append(sim.now)

    return [sim.spawn(member(h)) for h in handles], released


def test_whole_session_barrier_is_one_relay_per_rank(barrier_relays):
    sim, session = make_session(63)
    handles = [session.connect(r) for r in range(63) for _ in range(16)]
    procs, released = enter_all(sim, handles, "all", 63 * 16)
    sim.run()
    assert all(p.ok for p in procs)
    # One tally per non-root rank, carrying its whole subtree.
    assert Counter(src for _t, src, _n in barrier_relays) == {
        r: 1 for r in range(1, 63)}
    assert all(n == session.subtree_procs(src)
               for _t, src, n in barrier_relays)
    assert max(released) < 100e-6       # five levels, no window waited for


def test_partly_joined_subtrees_complete_through_the_window(barrier_relays):
    sim, session = make_session(15)
    handles = [session.connect(r) for r in range(15) for _ in range(4)]
    joining = handles[::2]              # two of each node's four clients
    procs, released = enter_all(sim, joining, "half", len(joining))
    sim.run()
    assert all(p.ok for p in procs) and len(released) == 30
    # No subtree ever completes, so every tally waited for a window.
    assert min(t for t, _src, _n in barrier_relays) >= _BARRIER_WINDOW
    # Tallies are cumulative: each rank's grow, and the root's children
    # end on their whole subtrees.
    last = {}
    for _t, src, n in barrier_relays:
        assert n > last.get(src, 0)
        last[src] = n
    assert last[1] + last[2] == 28


def test_barrier_after_an_interior_broker_failed(barrier_relays):
    sim, session = make_session(15)
    handles = [session.connect(r) for r in range(15) for _ in range(2)]
    session.fail_rank(1)
    session.heal_around(1)              # 3 and 4 now hang off the root
    alive = [h for h in handles if h.rank != 1]
    procs, released = enter_all(sim, alive, "healed", len(alive))
    sim.run()
    assert all(p.ok for p in procs) and len(released) == 28
    # The expected count skipped the dead broker: still one tally per
    # surviving rank, none through the window.
    assert Counter(src for _t, src, _n in barrier_relays) == {
        r: 1 for r in range(2, 15)}
    assert max(released) < _BARRIER_WINDOW


def test_client_connecting_after_its_siblings_entered():
    sim, session = make_session(7)
    handles = [session.connect(r) for r in range(7)]
    procs, released = enter_all(sim, handles, "late", 8)

    def latecomer():
        yield sim.timeout(1e-3)
        # Rank 5's subtree was complete (and forwarded) at one client.
        yield session.connect(5).barrier("late", 8)
        released.append(sim.now)

    procs.append(sim.spawn(latecomer()))
    sim.run()
    assert all(p.ok for p in procs) and len(released) == 8
    assert min(released) > 1e-3


def test_mismatched_nprocs_fails_the_refused_rank():
    """Ranks 3 and 4 share parent 1: whichever tally reaches it second
    contradicts the barrier it is collecting.  The ``EINVAL`` used to
    land in a ``lambda resp: None`` and both clients hung."""
    sim, session = make_session(7)
    outcome = {}

    def member(rank, nprocs):
        try:
            yield session.connect(rank).barrier("clash", nprocs)
            outcome[rank] = "released"
        except RpcError as exc:
            outcome[rank] = exc.code

    sim.spawn(member(3, 2))
    sim.spawn(member(4, 3))
    sim.run()
    assert outcome == {4: EINVAL}       # rank 3 still waits for a second
    assert "clash" not in session.module_at(4, "barrier")._states
    sim.spawn(member(6, 2))
    sim.run()
    assert outcome == {3: "released", 4: EINVAL, 6: "released"}


def test_refusal_reaches_the_entries_below_the_refused_rank():
    """Rank 7's tally climbs through rank 3 and is refused at rank 1,
    whose barrier has another ``nprocs``: rank 1 tells rank 3, which
    tells rank 7, whose client fails too instead of hanging."""
    sim, session = make_session(15)
    handles = {r: session.connect(r) for r in (1, 5, 7)}
    outcome = {}

    def member(rank, nprocs, at):
        yield sim.timeout(at)
        try:
            yield handles[rank].barrier("clash", nprocs)
            outcome[rank] = "released"
        except RpcError as exc:
            outcome[rank] = exc.code

    for args in ((1, 2, 0.0), (7, 3, 1e-3), (5, 2, 2e-3)):
        sim.spawn(member(*args))
    sim.run()
    assert outcome == {1: "released", 5: "released", 7: EINVAL}
    for rank in (3, 7):
        assert "clash" not in session.module_at(rank, "barrier")._states


def test_exit_flood_has_nothing_queued_ahead_of_it():
    """A relayed tally is one-way: the completing one leaves no ack on
    the root's NIC in front of the ``barrier.exit`` copies (nor does a
    fence contribution in front of the ``setroot`` ones), so on the
    64 x 16 ``kap_get_1k`` shape the largest fence latency is
    0.0780365 ms (0.0778930 before a contribution carried its origin
    keys, 0.0856721 when contributions waited for whole subtrees,
    0.0977958 with acknowledged relays)."""
    res = run_kap(KapConfig(nnodes=64, procs_per_node=16, value_size=8,
                            dir_width=128, nconsumers=0))
    assert res.max_sync_latency * 1e3 == pytest.approx(0.0780364583,
                                                       abs=1e-9)


@pytest.mark.parametrize("fault_seed,lost", [
    (5, {"barrier.enter"}),                       # a tally on the way up
    (12, {"barrier.exit", "barrier.release"}),    # the exit, and its repair
    (0, {"barrier.enter"}),
    (1, {"barrier.exit", "barrier.release"}),
])
def test_lossy_barrier_releases_every_entry_exactly_once(monkeypatch,
                                                         fault_seed, lost):
    """1% drop + 1% dup on a 31-node heartbeat session, plus the loss
    of the first relayed tally (or of the first exit and of the release
    that repairs it): cumulative tallies re-sent on the pulse and exits
    handed down again to a child that missed them release all 62
    entries, each once."""
    dropped = set()

    def drop(_dst, msg):
        # A client's own entry carries no count: only relays are lost.
        if msg.topic in lost - dropped and (
                msg.topic != "barrier.enter" or "count" in msg.payload):
            dropped.add(msg.topic)
            return True
        return False

    drop_sends(monkeypatch, drop)
    cluster = make_cluster(31, seed=3)
    cluster.network.fault_plan = FaultPlan(seed=fault_seed, drop_rate=0.01,
                                           dup_rate=0.01)
    session = CommsSession(
        cluster, topology=TreeTopology(31, arity=2),
        modules=[ModuleSpec(BarrierModule),
                 ModuleSpec(HeartbeatModule, period=1e-3,
                            max_epochs=100)]).start()
    handles = [session.connect(r) for r in range(31) for _ in range(2)]
    procs, released = enter_all(cluster.sim, handles, "lossy", 62)
    cluster.sim.run()
    assert lost <= dropped
    assert all(p.ok for p in procs) and len(released) == 62
    assert session.message_counts()[("barrier", "ipc", "response")] == 62
    assert all(session.module_at(r, "barrier")._states == {}
               for r in range(31))


def heartbeat_session(n, period=1e-3, max_epochs=40, live=False):
    cluster = make_cluster(n, seed=3)
    modules = [ModuleSpec(BarrierModule),
               ModuleSpec(HeartbeatModule, period=period,
                          max_epochs=max_epochs)]
    if live:
        modules.append(ModuleSpec(LiveModule))
    session = CommsSession(cluster, topology=TreeTopology(n, arity=2),
                           modules=modules).start()
    return cluster.sim, session


def drop_sends(monkeypatch, drop):
    """Lose every message ``drop(dst node, msg)`` picks on the fabric."""
    send = Network.send

    def lossy(self, src, dst, payload, size, **kw):
        if not drop(dst, payload[1]):
            send(self, src, dst, payload, size, **kw)

    monkeypatch.setattr(Network, "send", lossy)


def member(sim, handle, name, nprocs, at, outcome):
    """Enter ``name`` at time ``at``; ``outcome[rank]`` is the release
    time or the error code."""
    yield sim.timeout(at)
    try:
        yield handle.barrier(name, nprocs)
        outcome[handle.rank] = sim.now
    except RpcError as exc:
        outcome[handle.rank] = exc.code


def test_reused_name_after_an_exit_lost_at_a_rank_that_did_not_join(
        monkeypatch):
    """Ranks 0, 1 and 3 hold barrier ``b``; rank 4 (a child of 1) does
    not join, and the exit to it is lost, so it still counts ``b`` as
    generation 0.  When ``b`` is reused, its tally climbs as generation
    0 and rank 1, which counted no tally of rank 4's in that barrier,
    answers with a renewal, not a release: rank 4's client waits for
    ranks 5 and 6 like every other member of the new barrier."""
    drop_sends(monkeypatch, lambda dst, msg: (
        dst == 4 and msg.topic == "barrier.exit"
        and msg.payload.get("gen", 0) == 0))
    sim, session = heartbeat_session(7)
    handles = {r: session.connect(r) for r in range(7)}
    first, second = {}, {}
    for r in (0, 1, 3):
        sim.spawn(member(sim, handles[r], "b", 3, 0.0, first))
    sim.run(until=2e-3)
    assert set(first) == {0, 1, 3}
    assert session.module_at(4, "barrier")._gens.get("b", 0) == 0
    assert session.module_at(1, "barrier")._gens["b"] == 1
    late = 10e-3
    sim.spawn(member(sim, handles[4], "b", 3, 2e-3, second))
    for r in (5, 6):
        sim.spawn(member(sim, handles[r], "b", 3, late, second))
    sim.run()
    assert set(second) == {4, 5, 6}
    assert min(second.values()) >= late
    assert all(session.module_at(r, "barrier")._states == {}
               for r in range(7))


def test_false_death_and_reattach_count_a_subtree_once(barrier_relays):
    """Rank 1 buries its live child 3 by mistake and adopts 3's children
    7 and 8, which re-send their tallies to it; the reattach hands them
    back to 3.  Rank 1 drops their tallies then, so when 3's own (which
    carries theirs) arrives again it is not counted beside them, and the
    barrier does not exit before its last member at the root entered."""
    sim, session = heartbeat_session(15, live=True)
    outcome = {}
    for r in range(15):
        sim.spawn(member(sim, session.connect(r), "b", 16, 0.0, outcome))
    late = 20e-3
    sim.spawn(member(sim, session.connect(0), "b", 16, late, outcome))
    root = session.brokers[0]
    root.after(2.5e-3, lambda: root.publish(
        "live.down", {"rank": 3, "epoch": 2}))
    root.after(8.5e-3, lambda: root.publish("live.reattach", {"rank": 3}))
    sim.run()
    assert session.brokers[7].parent == 3
    # Rank 1's subtree holds 7 entries, and it never claimed more.
    assert max(n for _t, src, n in barrier_relays if src == 1) == 7
    assert len(outcome) == 15 and min(outcome.values()) >= late


def test_tally_sent_through_a_dead_parent_fails_when_its_barrier_is_over(
        monkeypatch):
    """Rank 3's tally of barrier ``b`` was counted through rank 1, then
    the exit to rank 3 was lost and rank 1 died before the next pulse.
    The root, which adopts rank 3, never counted a tally of rank 3's.
    A release would be right here, but a client that entered after the
    lost exit leaves rank 3 with the same state, which belongs to the
    next ``b``: with nobody left who knows, the entry fails with
    ``EHOSTUNREACH`` rather than being released or carried over on a
    guess."""
    drop_sends(monkeypatch, lambda dst, msg: (
        dst == 3 and msg.topic == "barrier.exit"))
    sim, session = heartbeat_session(7)
    outcome = {}
    for r in range(7):
        sim.spawn(member(sim, session.connect(r), "b", 7, 0.0, outcome))
    sim.run(until=0.5e-3)
    assert set(outcome) == set(range(7)) - {3}
    session.fail_rank(1)
    session.heal_around(1)
    sim.run()
    assert outcome[3] == EHOSTUNREACH
    assert session.module_at(3, "barrier")._states == {}


def test_kap_setup_runs_at_tree_speed():
    res = run_kap(KapConfig(nnodes=256, procs_per_node=16, value_size=8,
                            nconsumers=0))
    assert res.setup_time < 0.1e-3
