"""Multi-master KVS: subtree ownership delegation + root failover.

Exercises the two coupled tentpole moves end to end:

- **delegation** — a directory subtree handed to an interior broker
  that becomes its master (own root ref/version sequence), with the
  root tree binding a link object so cross-subtree reads compose;
- **replication + failover** — the root master streams its commit log
  to standbys; killing the root promotes the most-caught-up replica
  via the deterministic ring election and the namespace keeps serving.
"""

import pytest

from repro import make_cluster, standard_session
from repro.cmb.errors import (EEXIST, EHOSTUNREACH, EINVAL, ENOENT,
                              ETIMEDOUT, RpcError)
from repro.cmb.message import MessageType
from repro.kvs import KvsClient
from repro.kvs.hashtree import lookup, lookup_ref
from repro.kvs.store import is_link_obj, link_of
from repro.sim import FaultPlan
from repro.sim.network import Network


def _session(n, seed, **kw):
    cluster = make_cluster(n, seed=seed)
    session = standard_session(cluster, **kw).start()
    return cluster, session


def _run(sim, gen, budget=30.0):
    proc = sim.spawn(gen)
    sim.run(until=sim.now + budget)
    assert proc.triggered, "scenario hung"
    return proc.value


# ----------------------------------------------------------------------
# delegation: routing, link objects, recall
# ----------------------------------------------------------------------
def test_delegated_subtree_routes_and_reads_compose():
    cluster, session = _session(8, seed=3)
    sim = cluster.sim

    def scenario():
        kvs5 = KvsClient(session.connect(5))
        yield kvs5.put("job.1.pre", "before")
        yield kvs5.put("other.x", 1)
        yield kvs5.commit()

        resp = yield kvs5.delegate("job.1", 3)
        assert resp["pfx"] == "job.1" and resp["rank"] == 3
        table = yield kvs5.owners()
        assert table["owners"] == {"job.1": 3}

        # The owner hosts the subtree master.
        table3 = yield KvsClient(session.connect(3)).owners()
        assert table3["hosted"] == ["job.1"]

        # Writes from other ranks land at the owner; mixed commits
        # split between owner and root and report per-subtree roots.
        kvs6 = KvsClient(session.connect(6), timeout=5.0, retries=8)
        yield kvs6.put("job.1.a", 11)
        yield kvs6.put("other.y", 2)
        resp = yield kvs6.commit()
        assert "job.1" in resp.get("subroots", {})

        # Reads route through the ownership table (and through the
        # link object for walkers that reach it via the root tree).
        kvs2 = KvsClient(session.connect(2), timeout=5.0, retries=8)
        assert (yield kvs2.get("job.1.a")) == 11
        assert (yield kvs2.get("job.1.pre")) == "before"
        assert (yield kvs2.get("other.y")) == 2
        assert sorted((yield kvs2.get_dir("job.1"))) == ["a", "pre"]

        # The root tree itself binds a link object at the prefix.
        root = session.module_at(0, "kvs")
        sub_sha = root.master.subtree_ref("job") and None
        sha = lookup_ref(root.master.store, root.master.root_sha, "job.1")
        obj = root.master.store.get(sha)
        assert is_link_obj(obj)
        assert link_of(obj) == {"prefix": "job.1", "rank": 3}
        del sub_sha
        return "ok"

    assert _run(sim, scenario()) == "ok"
    session.stop()


def test_delegated_namespace_has_own_version_sequence():
    cluster, session = _session(8, seed=4)
    sim = cluster.sim

    def scenario():
        kvs = KvsClient(session.connect(1), timeout=5.0, retries=8)
        yield kvs.delegate("job.7", 5)
        root_v0 = (yield kvs.get_version())["version"]
        # Commits confined to the delegated namespace bump only the
        # delegate's sequence, not the root's.
        for i in range(3):
            yield kvs.put(f"job.7.k{i}", i)
            yield kvs.commit()
        root_v1 = (yield kvs.get_version())["version"]
        assert root_v1 == root_v0
        dm = session.module_at(5, "kvs").delegates["job.7"]
        assert dm.version >= 3
        return "ok"

    assert _run(sim, scenario()) == "ok"
    session.stop()


def test_fence_spans_root_and_delegated_namespaces():
    cluster, session = _session(8, seed=5)
    sim = cluster.sim

    def scenario():
        admin = KvsClient(session.connect(0))
        yield admin.delegate("job.2", 4)

        def fencer(idx, rank):
            k = KvsClient(session.connect(rank), timeout=5.0, retries=8)
            yield k.put(f"job.2.f{idx}", idx)
            yield k.put(f"root.f{idx}", idx * 10)
            yield k.fence("span.f", 2)
            # Fence ack implies the *delegated* parts are readable too.
            assert (yield k.get(f"job.2.f{1 - idx}")) == 1 - idx
            assert (yield k.get(f"root.f{1 - idx}")) == (1 - idx) * 10

        p1 = sim.spawn(fencer(0, 1))
        p2 = sim.spawn(fencer(1, 7))
        yield sim.all_of([p1, p2])
        return "ok"

    assert _run(sim, scenario()) == "ok"
    session.stop()


def test_in_broker_commit_under_a_delegated_prefix():
    """An in-broker service's commit of a delegated key is one write:
    the part goes to the owner and never through the root master, the
    callback fires only once the owner serves the key, and the value's
    pin at the writer is dropped."""
    cluster, session = _session(8, seed=3)
    sim = cluster.sim
    kvs0 = session.module_at(0, "kvs")
    owner = session.module_at(3, "kvs")

    def scenario():
        yield KvsClient(session.connect(0)).delegate("job.1", 3)
        version, pinned = kvs0.version, len(kvs0.cache._pinned)
        kvs0.local_put("svc", "job.1.out", "hello")
        committed = sim.event()

        def callback(ver, _rootref):
            dm = owner.delegates["job.1"]
            committed.succeed((ver, lookup(dm.store, dm.root_sha,
                                           "job.1.out")))

        kvs0.local_commit("svc", callback)
        assert (yield committed) == (version, "hello")
        assert kvs0.version == version
        assert len(kvs0.cache._pinned) == pinned
        return "ok"

    assert _run(sim, scenario()) == "ok"
    session.stop()


def _sends(monkeypatch, sim, topic):
    """``(time, src, msg)`` of every ``topic`` message put on the
    fabric from now on."""
    log = []
    send = Network.send

    def spy(self, src, dst, payload, size, **kw):
        msg = payload[1]
        if msg.topic == topic:
            log.append((sim.now, src, msg))
        send(self, src, dst, payload, size, **kw)

    monkeypatch.setattr(Network, "send", spy)
    return log


@pytest.mark.parametrize("owner,dead", [(3, 3), (7, 3)],
                         ids=["dead-owner", "dead-interior"])
def test_in_broker_commit_waits_for_a_lost_part(monkeypatch, owner, dead):
    """A part that cannot reach its owner fails the in-broker commit:
    its data stays stashed for the retry, one attempt per 5 ms, instead
    of being dropped behind a callback that reports success."""
    cluster, session = _session(8, seed=3)
    sim = cluster.sim
    kvs0 = session.module_at(0, "kvs")
    fired = []
    log = _sends(monkeypatch, sim, "kvs.flush")

    def scenario():
        yield KvsClient(session.connect(0)).delegate("job.1", owner)
        session.fail_rank(dead)
        log.clear()
        sha = kvs0.local_put("svc", "job.1.out", "hello")
        kvs0.local_commit("svc", lambda ver, _ref: fired.append(ver))
        yield sim.timeout(0.05)
        return sha

    sha = _run(sim, scenario(), budget=0.1)
    assert fired == []
    assert kvs0._dirty["svc"].ops == [["job.1.out", sha]]
    assert kvs0._door_held == []
    assert len(log) <= 2 * 21      # a request and its refusal per try
    session.stop()


def test_fence_retries_its_completion_after_a_failed_part():
    """A fence whose delegated part fails retryably is completed again
    5 ms later: one root commit, and both namespaces hold the data."""
    cluster, session = _session(8, seed=5)
    sim = cluster.sim
    root = session.module_at(0, "kvs")
    real = root._owner_flush
    calls = []

    def flaky(pfx, ops, objs, done, **kw):
        calls.append(sim.now)
        if len(calls) == 1:
            done(root._local_response({}, "lost", EHOSTUNREACH))
            return
        real(pfx, ops, objs, done, **kw)

    def scenario():
        admin = KvsClient(session.connect(0))
        yield admin.delegate("job.2", 4)
        root._owner_flush = flaky
        version = root.version
        k = KvsClient(session.connect(1), timeout=5.0, retries=8)
        yield k.put("job.2.a", 1)
        yield k.put("root.a", 2)
        yield k.fence("retry.f", 1)
        assert root.version == version + 1
        assert (yield k.get("job.2.a")) == 1
        assert (yield k.get("root.a")) == 2
        return "ok"

    assert _run(sim, scenario()) == "ok"
    assert len(calls) == 2 and calls[1] - calls[0] >= 5e-3
    session.stop()


@pytest.mark.parametrize("owner,dead", [(3, 3), (7, 3)],
                         ids=["dead-owner", "dead-interior"])
def test_read_toward_a_dead_rank_fails_at_once(monkeypatch, owner, dead):
    """Without a heartbeat nobody heals the overlay: a read of a prefix
    whose owner, or a rank on the way to it, is dead fails retryably at
    once instead of bouncing between two live ranks."""
    cluster, session = _session(8, seed=3)
    sim = cluster.sim
    log = _sends(monkeypatch, sim, "kvs.get")

    def scenario():
        admin = KvsClient(session.connect(0))
        yield admin.delegate("job.1", owner)
        yield admin.put("job.1.out", 5)
        yield admin.commit()
        session.fail_rank(dead)
        t0 = sim.now
        reader = KvsClient(session.connect(6), timeout=0.002, retries=0)
        with pytest.raises(RpcError) as err:
            yield reader.get("job.1.out")
        return err.value.code, sim.now - t0

    code, took = _run(sim, scenario(), budget=0.05)
    assert code == EHOSTUNREACH and took < 1e-4
    assert len([m for _t, _s, m in log
                if m.mtype is MessageType.REQUEST]) <= 3


def test_forwarded_request_past_its_deadline_is_answered(monkeypatch):
    """A rank-addressed request is passed on by the kvs module, not the
    broker, so the module answers ETIMEDOUT once its deadline passed."""
    cluster, session = _session(8, seed=3)
    sim = cluster.sim
    log = _sends(monkeypatch, sim, "kvs.get")

    def scenario():
        admin = KvsClient(session.connect(0))
        yield admin.delegate("job.1", 3)
        yield admin.put("job.1.out", 5)
        yield admin.commit()
        log.clear()
        ev = session.connect(6, collective=False).rpc(
            "kvs.get", {"key": "job.1.out", "dst": 3}, timeout=1e-5)
        with pytest.raises(RpcError):
            yield ev
        yield sim.timeout(0.01)

    _run(sim, scenario(), budget=0.05)
    # 6 -> 2 -> 0 takes two ~3.3 us hops; the deadline passes before 0
    # would send it on toward 1 and the owner, 3.
    assert [src for _t, src, m in log
            if m.mtype is MessageType.REQUEST] == [6, 2]
    assert {(m.errnum, m.err_rank) for _t, _s, m in log
            if m.mtype is MessageType.RESPONSE} == {(ETIMEDOUT, 0)}


def test_recall_folds_subtree_back_and_clears_table():
    cluster, session = _session(8, seed=6)
    sim = cluster.sim

    def scenario():
        kvs = KvsClient(session.connect(2), timeout=5.0, retries=8)
        yield kvs.put("job.3.before", 1)
        yield kvs.commit()
        yield kvs.delegate("job.3", 6)
        yield kvs.put("job.3.during", 2)
        yield kvs.commit()
        yield kvs.recall("job.3")

        table = yield kvs.owners()
        assert table["owners"] == {}
        assert session.module_at(6, "kvs").delegates == {}
        # Everything — pre-delegation and delegated-era writes — now
        # lives in the root tree as plain directories.
        assert (yield kvs.get("job.3.before")) == 1
        assert (yield kvs.get("job.3.during")) == 2
        root = session.module_at(0, "kvs")
        sha = lookup_ref(root.master.store, root.master.root_sha, "job.3")
        assert not is_link_obj(root.master.store.get(sha))
        return "ok"

    assert _run(sim, scenario()) == "ok"
    session.stop()


def test_delegate_validation_errors():
    cluster, session = _session(8, seed=7)
    sim = cluster.sim

    def scenario():
        kvs = KvsClient(session.connect(1))
        yield kvs.delegate("job.9", 3)
        with pytest.raises(RpcError) as ei:
            yield kvs.delegate("job.9", 5)      # already delegated
        assert ei.value.code == EEXIST
        with pytest.raises(RpcError) as ei:
            yield kvs.delegate("job.8", 0)      # owner == root master
        assert ei.value.code == EINVAL
        for rank in (99, -1, "3"):              # not a session rank
            with pytest.raises(RpcError) as ei:
                yield kvs.delegate("job.8", rank)
            assert ei.value.code == EINVAL
        with pytest.raises(RpcError) as ei:
            yield kvs.recall("never.delegated")
        assert ei.value.code == ENOENT
        return "ok"

    assert _run(sim, scenario()) == "ok"
    session.stop()


def test_nested_delegation_is_refused_and_writes_stay_readable():
    """A prefix under a delegated prefix would get an owner seeded from
    the root tree, where only the outer link exists: it would start
    empty and shadow the outer owner's keys."""
    cluster, session = _session(8, seed=8)
    sim = cluster.sim

    def scenario():
        kvs = KvsClient(session.connect(1))
        yield kvs.put("a.b.c", "acked")
        yield kvs.commit()
        yield kvs.delegate("a", 3)
        with pytest.raises(RpcError) as ei:
            yield kvs.delegate("a.b", 5)
        assert ei.value.code == EEXIST
        assert (yield kvs.get("a.b.c")) == "acked"
        assert (yield kvs.owners())["owners"] == {"a": 3}
        return "ok"

    assert _run(sim, scenario()) == "ok"
    session.stop()


def test_delegation_above_a_delegated_prefix_is_refused():
    """The reverse order used to be accepted: the outer owner's snapshot
    carried the inner link, and recalling the inner prefix then
    overwrote the outer link in the root tree — the inner keys answered
    ``'a.b' is a link to another master`` from then on."""
    cluster, session = _session(8, seed=8)
    sim = cluster.sim

    def scenario():
        kvs = KvsClient(session.connect(1), timeout=5.0, retries=8)
        yield kvs.put("a.b.c", "acked")
        yield kvs.put("a.z", 2)
        yield kvs.put("ab.c", 3)
        yield kvs.commit()
        yield kvs.delegate("a.b", 5)
        with pytest.raises(RpcError) as ei:
            yield kvs.delegate("a", 3)
        assert ei.value.code == EEXIST
        assert "'a.b'" in ei.value.error        # names the inner prefix
        assert (yield kvs.owners())["owners"] == {"a.b": 5}
        # A sibling that merely shares the characters is not "above".
        yield kvs.delegate("ab", 3)
        yield kvs.recall("a.b")
        assert (yield kvs.get("a.b.c")) == "acked"
        assert (yield kvs.get("a.z")) == 2
        assert (yield kvs.get("ab.c")) == 3
        # With the inner one recalled the outer prefix is free again.
        yield kvs.delegate("a", 3)
        assert (yield kvs.get("a.b.c")) == "acked"
        assert (yield kvs.owners())["owners"] == {"a": 3, "ab": 3}
        return "ok"

    assert _run(sim, scenario()) == "ok"
    session.stop()


def test_migration_under_load_is_sanitizer_clean():
    """Delegate and recall a prefix *while* clients write under it:
    every acknowledged write survives the moves and the runtime
    sanitizers (SAN102 stale reads / SAN103 lost acks) stay silent."""
    cluster, session = _session(8, seed=8)
    san = session.enable_sanitizers()
    sim = cluster.sim
    acked = []

    def writer(idx, rank):
        kvs = KvsClient(session.connect(rank), timeout=5.0, retries=10)
        for i in range(6):
            key = f"job.5.w{idx}.{i}"
            yield kvs.put(key, [idx, i])
            yield kvs.commit()
            acked.append((key, [idx, i]))
            yield sim.timeout(0.002)

    def admin():
        kvs = KvsClient(session.connect(0), timeout=5.0, retries=10)
        yield sim.timeout(0.004)
        yield kvs.delegate("job.5", 3)      # mid-stream handover
        yield sim.timeout(0.01)
        yield kvs.recall("job.5")           # and fold it back
        yield sim.timeout(0.004)
        yield kvs.delegate("job.5", 6)      # second hop
        yield sim.timeout(0.01)
        yield kvs.recall("job.5")

    writers = [sim.spawn(writer(i, r)) for i, r in
               enumerate((1, 2, 6, 7))]
    aproc = sim.spawn(admin())
    sim.run(until=30.0)
    assert all(p.triggered and p.ok for p in writers)
    assert aproc.triggered and aproc.ok

    def verify():
        kvs = KvsClient(session.connect(4), timeout=5.0, retries=10)
        for key, want in acked:
            assert (yield kvs.get(key)) == want, key
        return "ok"

    assert _run(sim, verify()) == "ok"
    assert list(san.finish()) == []
    session.stop()


# ----------------------------------------------------------------------
# root replication + ring-election failover
# ----------------------------------------------------------------------
def test_replicas_track_root_commit_log():
    cluster, session = _session(8, seed=9, kvs_replicas=(1, 2))
    sim = cluster.sim

    def scenario():
        kvs = KvsClient(session.connect(5), timeout=5.0, retries=8)
        for i in range(4):
            yield kvs.put(f"rep.k{i}", i)
            yield kvs.commit()
        return "ok"

    assert _run(sim, scenario()) == "ok"
    root = session.module_at(0, "kvs").master
    for r in (1, 2):
        standby = session.module_at(r, "kvs")._standby
        assert standby is not None
        assert (standby.version, standby.root_sha) == (root.version,
                                                       root.root_sha)
    session.stop()


def test_root_death_promotes_replica_and_serves():
    """Kill rank 0 (root master + tree root): the minimum live rank
    takes over the overlay, the ring election promotes the
    most-caught-up standby, and both old and new writes are served."""
    cluster, session = _session(
        8, seed=10, kvs_replicas=(1, 2), with_heartbeat=True,
        hb_period=0.05, hb_max_epochs=100000)
    sim = cluster.sim

    def before():
        kvs = KvsClient(session.connect(5), timeout=5.0, retries=8)
        yield kvs.put("pre.k", "survives")
        yield kvs.commit()
        return "ok"

    assert _run(sim, before(), budget=5.0) == "ok"

    session.fail_rank(0)
    sim.run(until=sim.now + 3.0)    # detection + election + recovery

    promoted = [r for r in (1, 2)
                if session.module_at(r, "kvs").master is not None]
    assert len(promoted) == 1, promoted
    new_master = promoted[0]
    for r in range(1, 8):
        mod = session.module_at(r, "kvs")
        assert mod.master_rank == new_master

    def after():
        kvs = KvsClient(session.connect(6), timeout=2.0, retries=10)
        assert (yield kvs.get("pre.k")) == "survives"
        yield kvs.put("post.k", "works")
        yield kvs.commit()
        assert (yield kvs.get("post.k")) == "works"

        def fencer(idx, rank):
            k = KvsClient(session.connect(rank), timeout=2.0, retries=10)
            yield k.put(f"post.f{idx}", idx)
            yield k.fence("post.fence", 2)
            assert (yield k.get(f"post.f{1 - idx}")) == 1 - idx

        p1 = sim.spawn(fencer(0, 3))
        p2 = sim.spawn(fencer(1, 7))
        yield sim.all_of([p1, p2])
        return "ok"

    assert _run(sim, after(), budget=10.0) == "ok"
    session.stop()


@pytest.mark.parametrize("plan", ["none", "installed_after_start"])
def test_root_killed_before_its_first_pulse_is_detected(plan):
    """The orphan watchdog is armed with or without a fault plan: a root
    killed before its first ``hb.pulse`` is still declared down, a
    standby is promoted, and a later commit succeeds."""
    cluster, session = _session(
        15, seed=1, kvs_replicas=(1, 2), with_heartbeat=True,
        hb_period=0.05, hb_max_epochs=2000)
    if plan == "installed_after_start":
        cluster.network.fault_plan = FaultPlan(seed=1)
    sim = cluster.sim
    sim.run(until=1.6e-4)
    session.fail_rank(0)

    def writer():
        yield sim.timeout(0.3 - sim.now)
        kvs = KvsClient(session.connect(5), timeout=0.5, retries=8)
        yield kvs.put("late.k", "kept")
        yield kvs.commit()
        return (yield kvs.get("late.k"))

    assert _run(sim, writer(), budget=20.0) == "kept"
    assert 0 in session.module_at(5, "live").announced
    assert [r for r in (1, 2)
            if session.module_at(r, "kvs").master is not None] != []
    session.stop()


def _failover_session(seed):
    """15 nodes, standbys at ranks 1 and 2, and the heartbeat."""
    return _session(15, seed=seed, kvs_replicas=(1, 2),
                    with_heartbeat=True, hb_period=0.05,
                    hb_max_epochs=100000)


def _kill_root_and_wait(sim, session):
    sim.run(until=max(sim.now, 0.3))
    session.fail_rank(0)
    sim.run(until=sim.now + 3.0)    # detection + election + recovery
    [new_master] = [r for r in (1, 2)
                    if session.module_at(r, "kvs").master is not None]
    return new_master


def test_nonroot_master_chain_caches():
    """Fault-in toward a promoted (non-root) master still populates the
    slave caches along the path."""
    cluster, session = _failover_session(seed=13)
    sim = cluster.sim
    new_master = _kill_root_and_wait(sim, session)
    assert new_master == 1

    def writer():
        kvs = KvsClient(session.connect(new_master), timeout=2.0,
                        retries=10)
        yield kvs.put("probe.data", "payload")
        yield kvs.commit()
        return (yield kvs.get_version())["version"]

    version = _run(sim, writer(), budget=10.0)

    def reader():
        # Rank 14 sits under rank 2: its reads cross to rank 1's side.
        kvs = KvsClient(session.connect(14), timeout=2.0, retries=10)
        yield kvs.wait_version(version)
        return (yield kvs.get("probe.data"))

    assert _run(sim, reader(), budget=10.0) == "payload"
    for rank in (14, 6, 2):     # root dir, "probe" dir and the value
        assert len(session.module_at(rank, "kvs").cache) >= 3, rank
    session.stop()


def test_standby_that_missed_the_masters_death_still_elects():
    """Standby 2 never hears the ``live.down`` of rank 0 (a lost event
    on a lossy fabric): when standby 1's election token reaches it, it
    joins the election instead of ignoring the token, so one replica is
    promoted and writes are served again."""
    cluster = make_cluster(8, seed=10)
    session = standard_session(cluster, kvs_replicas=(1, 2),
                               with_heartbeat=True, hb_period=0.05,
                               hb_max_epochs=100000)
    deaf = session.module_at(2, "kvs")
    heard = deaf._on_live_down
    deaf._on_live_down = lambda msg: (None if msg.payload.get("rank") == 0
                                      else heard(msg))
    session.start()
    sim = cluster.sim
    sim.run(until=0.3)
    session.fail_rank(0)
    sim.run(until=sim.now + 3.0)
    promoted = [r for r in (1, 2)
                if session.module_at(r, "kvs").master is not None]
    assert len(promoted) == 1, promoted

    def after():
        kvs = KvsClient(session.connect(6), timeout=2.0, retries=10)
        yield kvs.put("post.k", "works")
        yield kvs.commit()
        return (yield kvs.get("post.k"))

    assert _run(sim, after(), budget=10.0) == "works"
    session.stop()


def test_promoted_standby_releases_a_round_the_old_master_committed():
    """Standby 1 holds a client of fence ``f`` and misses the notice of
    its completion; rank 0 dies before a pull could bring it.  Once
    promoted, rank 1 knows from the replicated digest that ``f``
    committed, and releases its client instead of holding the round
    forever (it never pulls, and no re-emission can complete a round
    twice)."""
    cluster = make_cluster(8, seed=10)
    session = standard_session(cluster, kvs_replicas=(1, 2),
                               with_heartbeat=True, hb_period=0.05,
                               hb_max_epochs=100000)
    standby = session.module_at(1, "kvs")
    notice = standby._on_setroot_event
    standby._on_setroot_event = lambda msg: (
        None if msg.payload.get("fence") == "f" else notice(msg))
    session.start()
    sim = cluster.sim
    sim.run(until=0.31)

    def member(rank):
        kvs = KvsClient(session.connect(rank), timeout=5.0)
        yield kvs.put(f"f.k{rank}", rank)
        version = (yield kvs.fence("f", 2))["version"]
        if rank == 5:
            session.fail_rank(0)        # before any pulse reaches 1
        return version

    procs = [sim.spawn(member(r)) for r in (1, 5)]
    sim.run(until=sim.now + 3.0)
    assert standby.master is not None
    assert [p.triggered and p.ok for p in procs] == [True, True]
    assert procs[0].value == procs[1].value
    assert standby.waiter_census()["fences"] == {}
    session.stop()


def test_delegation_survives_root_failover():
    """Replicas, delegation and a root kill together: the link object
    is part of the replicated root tree and the ownership table lives
    at every rank, so the promoted master keeps routing, splitting
    mixed commits and can still recall the subtree."""
    cluster, session = _failover_session(seed=14)
    sim = cluster.sim

    def before():
        kvs = KvsClient(session.connect(9), timeout=5.0, retries=8)
        yield kvs.delegate("job.1", 3)
        yield kvs.put("job.1.a", 1)
        yield kvs.put("other.a", 10)
        resp = yield kvs.commit()
        assert "job.1" in resp["subroots"]
        return "ok"

    assert _run(sim, before(), budget=5.0) == "ok"
    new_master = _kill_root_and_wait(sim, session)

    def after():
        kvs = KvsClient(session.connect(12), timeout=2.0, retries=10)
        assert (yield kvs.get("job.1.a")) == 1
        assert (yield kvs.get("other.a")) == 10
        yield kvs.put("job.1.b", 2)
        yield kvs.put("other.b", 20)
        resp = yield kvs.commit()
        assert "job.1" in resp["subroots"]
        assert (yield kvs.get("job.1.b")) == 2
        assert (yield kvs.get("other.b")) == 20
        table = yield kvs.owners()
        assert table["owners"] == {"job.1": 3}

        yield kvs.recall("job.1")
        assert (yield kvs.owners())["owners"] == {}
        assert session.module_at(3, "kvs").delegates == {}
        assert (yield kvs.get("job.1.a")) == 1
        assert (yield kvs.get("job.1.b")) == 2
        master = session.module_at(new_master, "kvs").master
        sha = lookup_ref(master.store, master.root_sha, "job.1")
        assert not is_link_obj(master.store.get(sha))
        return "ok"

    assert _run(sim, after(), budget=20.0) == "ok"
    session.stop()


def test_legacy_fence_record_is_self_contained_and_survives_failover():
    """A fence on a loss-free fabric carrying a value the master rank
    had already stored (the heartbeat is loaded, so the fence travels in
    the shares format): the commit journal sees that object as not-new,
    yet every standby must end up holding every object reachable from
    its root — and serve them all once promoted."""
    cluster, session = _session(
        8, seed=12, kvs_replicas=(1, 2), with_heartbeat=True,
        hb_period=0.05, hb_max_epochs=100000)
    sim = cluster.sim

    root = session.module_at(0, "kvs").master

    def standbys_hold_everything():
        want = root.reachable_objects()
        for r in (1, 2):
            standby = session.module_at(r, "kvs")._standby
            assert (standby.version, standby.root_sha) == (root.version,
                                                           root.root_sha)
            assert standby.reachable_objects() == want

    def scenario():
        # A master-rank put stores its object in the master's store at
        # once — long before any commit could replicate it.
        seeder = KvsClient(session.connect(0), timeout=5.0, retries=8)
        yield seeder.put("seed", "dup")

        def fencer(idx, rank, value):
            k = KvsClient(session.connect(rank), timeout=5.0, retries=8)
            yield k.put(f"g.k{idx}", value)
            yield k.fence("g", 3)

        yield sim.all_of([sim.spawn(fencer(0, 0, "dup")),
                          sim.spawn(fencer(1, 3, "dup")),
                          sim.spawn(fencer(2, 5, "fresh"))])
        standbys_hold_everything()
        yield seeder.commit()
        return "ok"

    assert _run(sim, scenario(), budget=5.0) == "ok"
    standbys_hold_everything()

    # Only the pulse-starvation watchdog can notice the *root* dying.
    sim.run(until=sim.now + 0.2)
    session.fail_rank(0)
    sim.run(until=sim.now + 3.0)
    assert [r for r in (1, 2)
            if session.module_at(r, "kvs").master is not None] != []

    def after():
        kvs = KvsClient(session.connect(6), timeout=2.0, retries=10)
        values = []
        for key in ("seed", "g.k0", "g.k1", "g.k2"):
            values.append((yield kvs.get(key)))
        return values

    assert _run(sim, after(), budget=10.0) == ["dup", "dup", "dup", "fresh"]
    session.stop()


def test_interior_death_mid_fence_completes_once(fencedata_log, pad=0):
    """An interior broker dies after forwarding its subtree's share of
    a fence (heartbeat + ``live``, loss-free fabric): after
    ``live.down`` every surviving contributor re-sends its shares over
    the healed route, the per-origin merge counts each client once, and
    the fence commits exactly once at the exact encoded sizes."""
    cluster, session = _session(15, seed=21, with_heartbeat=True,
                                hb_period=0.05, hb_max_epochs=200)
    sim = cluster.sim
    root = session.module_at(0, "kvs")
    before = root.master.version
    ranks = [5, 6, 0, 1, 3, 4, 7, 8, 9, 10, 11, 12]     # 5, 6: under 2
    down_at = []
    session.brokers[0].subscribe(
        "live.down", lambda msg: down_at.append(sim.now))

    def value(i):
        return f"{i}-".ljust(pad, "x") if pad else i

    def member(i):
        k = KvsClient(session.connect(ranks[i]), timeout=5.0, retries=8)
        yield k.put(f"ik.k{i}", value(i))
        yield sim.timeout(0.0 if i < 4 else 0.4 if i < 10 else 0.6)
        version = (yield k.fence("ik", len(ranks)))["version"]
        return version, (yield k.get(f"ik.k{(i + 1) % len(ranks)}"))

    def counted():
        return root._fences["ik"].total

    procs = [sim.spawn(member(i)) for i in range(len(ranks))]
    sim.run(until=0.12)
    assert counted() == 4
    session.fail_rank(2)
    sim.run(until=0.5)
    # Ten of twelve are in, the two early ones under the corpse counted
    # once although their shares arrived again over the healed route.
    assert down_at and down_at[0] < 0.4
    assert counted() == 10
    assert root.master.version == before
    sim.run(until=20.0)
    assert [p.value for p in procs] == [
        (before + 1, value((i + 1) % len(ranks)))
        for i in range(len(ranks))]
    assert root.master.version == before + 1
    for r in range(15):
        if r != 2:
            assert session.module_at(r, "kvs").waiter_census()[
                "fences"] == {}
    # Ranks 1, 5 and 6 contributed before the failure and again after.
    assert {m.src for m in fencedata_log if m.time < 0.12} >= {1, 5, 6}
    assert {m.src for m in fencedata_log
            if m.time >= down_at[0]} >= {1, 5, 6}
    assert [m for m in fencedata_log if m.accounted != m.encoded] == []
    session.stop()


def test_interior_death_mid_fence_with_600_kb_values(fencedata_log):
    """The same failure with values of 600 KB, each more than a
    message's worth: the re-sent shares carry every object in full and
    are still charged at their exact encoded size."""
    test_interior_death_mid_fence_completes_once(fencedata_log,
                                                 pad=600_000)


def test_single_master_state_untouched_by_feature_plumbing():
    """With no replicas and no delegations, the multi-master state on
    every module stays inert — the event-identity guarantee's
    structural half (the behavioural half is the untouched tier-1
    suite and the byte-identical ablation table)."""
    cluster, session = _session(8, seed=11)
    sim = cluster.sim

    def scenario():
        kvs = KvsClient(session.connect(3))
        yield kvs.put("plain.k", 1)
        yield kvs.commit()
        yield kvs.fence("plain.f", 1)
        return (yield kvs.get("plain.k"))

    assert _run(sim, scenario()) == 1
    for r in range(8):
        mod = session.module_at(r, "kvs")
        assert mod.owners == {} and mod.delegates == {}
        assert mod.replicas == () and mod._standby is None
        assert mod._repl_log == [] and not mod._failed_over
    session.stop()
