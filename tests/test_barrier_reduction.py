"""The barrier reduces at tree speed: a broker forwards its tally the
moment its subtree is complete, and only a partly joined subtree waits
for the aggregation window."""

from collections import Counter

import pytest

from repro.cmb.errors import EINVAL, RpcError
from repro.cmb.modules import BarrierModule
from repro.cmb.modules.barrier import _BARRIER_WINDOW
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kap import KapConfig, run_kap
from repro.sim.cluster import make_cluster


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
    assert sum(n for _t, src, n in barrier_relays if src in (1, 2)) == 28


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


def test_tally_is_counted_before_it_is_acknowledged():
    """With the windows gone the root's ack to its last child would
    otherwise sit on the root's NIC in front of the ``barrier.exit``
    flood: every non-root process starts one message time late
    relative to the root's own, and the largest fence latency on the
    64 x 16 ``kap_get_1k`` shape moves 0.0977958 -> 0.0996567 ms."""
    res = run_kap(KapConfig(nnodes=64, procs_per_node=16, value_size=8,
                            dir_width=128, nconsumers=0))
    assert res.max_sync_latency * 1e3 == pytest.approx(0.0977958333,
                                                       abs=1e-9)


def test_kap_setup_runs_at_tree_speed():
    res = run_kap(KapConfig(nnodes=256, procs_per_node=16, value_size=8,
                            nconsumers=0))
    assert res.setup_time < 0.1e-3
