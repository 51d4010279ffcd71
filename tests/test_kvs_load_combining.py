"""Tree-combined ``kvs.load``: the fault-in path on the walk's combiner.

A cold read on the default path faults every missing object in through
the chain of slave caches.  Each rank keeps one ``kvs.load`` request
outstanding — two once every child is itself blocked on a load parked
here, or, at a rank with no children, once each of its job processes
has a read waiting — and SHAs asked for meanwhile queue and leave as
one list ``{"shas": [...]}``; the answer is ``{"objs": [obj | null,
...]}``.
These tests pin what a batch may and may not share: one round trip,
yes; one object's fate, no.
"""

import pytest

from repro import make_cluster, standard_session
from repro.cmb.errors import EINVAL, EIO, ETIMEDOUT, RpcError
from repro.cmb.message import HEADER_BYTES, Message, MessageType
from repro.jsonutil import canonical_size, sha1_of
from repro.kvs import KvsClient, make_val_obj
from repro.kvs.hashtree import lookup_ref
from repro.sim.faults import FaultPlan
from repro.sim.network import Network

LEAF = 7            # depth 3 in the 8-node binary tree: 7 -> 3 -> 1 -> 0
NKEYS = 16


def _seeded(n=8, seed=7, fault_plan=None, **kw):
    """A session whose master holds ``w.k0..w.k15`` while every slave
    cache is cold."""
    cluster = make_cluster(n, seed=seed)
    cluster.network.fault_plan = fault_plan
    session = standard_session(cluster, **kw).start()

    def writer():
        kvs = KvsClient(session.connect(0, collective=False))
        for i in range(NKEYS):
            yield kvs.put(f"w.k{i}", i * 10)
        yield kvs.commit()

    proc = cluster.sim.spawn(writer())
    cluster.sim.run(until=0.4)     # setroot reaches every rank
    assert proc.ok
    return cluster, session


def _val(i):
    """The SHA of ``w.k{i}``'s value object."""
    return sha1_of(make_val_obj(i * 10))


def _ref(session, key):
    """The SHA of ``key``'s terminal object at the master."""
    master = session.module_at(0, "kvs").master
    return lookup_ref(master.store, master.root_sha, key)


class _LoadSpy:
    """Record every ``kvs.load`` request ``mod`` sends master-ward as
    ``(payload, ctx)`` in ``sent``.  The first ``hold_first`` ones are
    captured instead of sent (``held``), to be released by hand."""

    def __init__(self, mod, hold_first=0):
        self.sent = []
        self.held = []
        self._held = []
        real = mod._toward_master_cb

        def spy(topic, payload, callback, ctx=None, **kw):
            if topic == "kvs.load":
                if len(self._held) < hold_first:
                    self.held.append((payload, ctx))
                    self._held.append(lambda: real(
                        topic, payload, callback, ctx=ctx, **kw))
                    return
                self.sent.append((payload, ctx))
            real(topic, payload, callback, ctx=ctx, **kw)

        mod._toward_master_cb = spy

    def release(self, i=0):
        self._held[i]()


def _gets(session, sim, rank, keys, **client_kw):
    procs = []
    for key in keys:
        kvs = KvsClient(session.connect(rank, collective=False),
                        **client_kw)

        def reader(kvs=kvs, key=key):
            try:
                return (yield kvs.get(key))
            except RpcError as exc:
                return exc

        procs.append(sim.spawn(reader()))
    return procs


def _read(sim, kvs, key):
    """Spawn one read of ``key`` through the client ``kvs``."""
    def reader():
        return (yield kvs.get(key))

    return sim.spawn(reader())


def _warm(session, sim, rank):
    """Fault the root and ``w`` into ``rank``'s path (reading w.k0)."""
    proc, = _gets(session, sim, rank, ["w.k0"])
    sim.run()
    assert proc.value == 0


IDLE = {"outstanding": 0, "batches": 0, "parked": 0, "queued": 0,
        "shas": []}


def _idle(session):
    """No rank still holds an outstanding or queued load."""
    return all(session.module_at(b.rank, "kvs").waiter_census()["loads"]
               == IDLE for b in session.brokers if b.alive)


# ----------------------------------------------------------------------
# (a) distinct SHAs share one request; a SHA in flight is joined
# ----------------------------------------------------------------------
def test_distinct_shas_of_one_request_leave_as_one():
    """A child's load of N objects that rank 3 lacks goes on as one
    request (the handler pumps once per request, not once per SHA)."""
    cluster, session = _seeded()
    sim = cluster.sim
    _warm(session, sim, 3)
    sent = _LoadSpy(session.module_at(3, "kvs")).sent
    shas = [_val(i) for i in range(1, 9)]
    ev = session.connect(3, collective=False).rpc("kvs.load",
                                                  {"shas": shas})
    sim.run()
    assert ev.value == {"objs": [make_val_obj(i * 10) for i in range(1, 9)]}
    assert [p for p, _ctx in sent] == [{"shas": shas}]
    assert _idle(session)


def test_burst_of_cold_gets_shares_round_trips():
    cluster, session = _seeded()
    sim = cluster.sim
    _warm(session, sim, LEAF)
    leaf = session.module_at(LEAF, "kvs")
    sent = _LoadSpy(leaf).sent
    faults = leaf.cache.stats.faults
    procs = _gets(session, sim, LEAF, [f"w.k{i}" for i in range(1, NKEYS)])
    sim.run()
    assert [p.value for p in procs] == [i * 10 for i in range(1, NKEYS)]
    # Self-clocked: the first miss leaves alone, the other fourteen
    # queue behind it and leave as one list when it returns.
    assert [len(p["shas"]) for p, _ctx in sent] == [1, NKEYS - 2]
    assert leaf.cache.stats.faults - faults == NKEYS - 1
    assert _idle(session)


def test_sha_in_flight_is_joined_not_resent():
    cluster, session = _seeded()
    sim = cluster.sim
    leaf = session.module_at(LEAF, "kvs")
    hold = _LoadSpy(leaf, hold_first=1)
    first, = _gets(session, sim, LEAF, ["w.k1"])
    sim.run()
    root = leaf.root_sha
    assert hold.held[0][0] == {"shas": [root]}
    again = _gets(session, sim, LEAF, ["w.k1", "w.k2"])
    sim.run()
    assert leaf.waiter_census()["loads"] == {
        "outstanding": 1, "batches": 1, "parked": 0, "queued": 0,
        "shas": [root]}
    assert not hold.sent
    hold.release()
    sim.run()
    assert first.value == 10 and [p.value for p in again] == [10, 20]
    assert all(root not in p["shas"] for p, _ctx in hold.sent)
    assert _idle(session)


def test_batch_rides_first_waiters_context_unchanged():
    """No failfast flag and no deadline of its own: a fault-in keeps the
    context of the read that started its queue."""
    cluster, session = _seeded()
    sim = cluster.sim
    _warm(session, sim, LEAF)
    hold = _LoadSpy(session.module_at(LEAF, "kvs"), hold_first=1)
    first, = _gets(session, sim, LEAF, ["w.k1"], timeout=9.0)
    sim.run(until=sim.now + 1e-3)
    t0 = sim.now
    later = [_gets(session, sim, LEAF, [f"w.k{i}"], timeout=t)[0]
             for i, t in ((2, 5.0), (3, 2.0), (4, None))]
    sim.run(until=t0 + 1e-3)
    hold.release()
    sim.run(until=t0 + 1.0)
    assert first.value == 10 and [p.value for p in later] == [20, 30, 40]
    (_p, first_ctx), = hold.held
    (payload, ctx), = hold.sent
    assert payload == {"shas": [_val(2), _val(3), _val(4)]}
    assert not ctx.failfast and not first_ctx.failfast
    assert ctx.deadline == pytest.approx(t0 + 5.0)   # w.k2's, not w.k3's


# ----------------------------------------------------------------------
# (b) the second-batch gate
# ----------------------------------------------------------------------
def test_second_batch_waits_until_every_child_is_parked():
    """Rank 1 (children 3 and 4) holds one load in flight.  A child's
    load parks here; the queue waits while the other child may yet
    ask, leaves as a second batch once both are parked, and never
    makes a third.  A settled batch answers its waiters before the
    gate is asked again: the children it answered are unparked by
    then, so a load queued behind it waits for the batch still in
    flight rather than taking the freed slot."""
    cluster, session = _seeded()
    sim = cluster.sim
    mod = session.module_at(1, "kvs")
    hold = _LoadSpy(mod, hold_first=2)
    own, = _gets(session, sim, 1, ["w.k0"])
    sim.run()
    root = mod.root_sha
    answers = {3: [], 4: []}

    def child_load(child, i):
        session.brokers[child].rpc_parent_cb(
            "kvs.load", {"shas": [_val(i)]}, answers[child].append)
        sim.run()
        return mod.waiter_census()["loads"]

    assert child_load(3, 5) == {"outstanding": 1, "batches": 1,
                                "parked": 1, "queued": 1,
                                "shas": [root, _val(5)]}
    assert len(hold.held) == 1          # child 4 may yet ask
    # Child 4 parks too: every child is blocked here, the queue leaves.
    assert child_load(4, 6) == {"outstanding": 3, "batches": 2,
                                "parked": 2, "queued": 0,
                                "shas": [root, _val(5), _val(6)]}
    assert [p for p, _ctx in hold.held] == [
        {"shas": [root]}, {"shas": [_val(5), _val(6)]}]
    assert child_load(3, 7)["queued"] == 1
    assert not hold.sent                # never a third in flight
    hold.release(1)
    sim.run()
    assert [r.payload for r in answers[3]] == [{"objs": [make_val_obj(50)]}]
    assert [r.payload for r in answers[4]] == [{"objs": [make_val_obj(60)]}]
    # Child 4 was answered, so it no longer blocks here: the freed slot
    # stays free and w.k7's value waits for the root batch.
    assert mod.waiter_census()["loads"] == {"outstanding": 1, "batches": 1,
                                            "parked": 1, "queued": 1,
                                            "shas": [root, _val(7)]}
    assert not hold.sent and not own.triggered
    hold.release(0)
    sim.run()
    assert own.value == 0
    # It left when the root batch settled and rank 1's own read, which
    # that batch answered, had gone on to ``w``: the two leave together.
    assert [p["shas"] for p, _ctx in hold.sent][0] == [
        _val(7), _ref(session, "w")]
    assert [r.payload for r in answers[3]][1:] == [
        {"objs": [make_val_obj(70)]}]
    assert _idle(session)


def test_follow_up_misses_ride_the_pumped_batch():
    """Seven ranks, every slave cache cold: leaves 3 and 4 read values
    under two directories, ``a`` and ``b``, while rank 1 (their parent)
    reads its own value under ``a``.  Rank 1 answers a settled batch
    before its gate is asked again, so a child it just answered is no
    longer blocked there and the queue waits for it: the two leaves'
    value SHAs, each asked right after its directory arrived, leave
    rank 1 in one ``kvs.load`` instead of one each."""
    cluster = make_cluster(7, seed=7)
    session = standard_session(cluster).start()
    sim = cluster.sim

    def writer():
        kvs = KvsClient(session.connect(0, collective=False))
        for key, value in (("a.x", 1), ("a.y", 2), ("b.z", 3)):
            yield kvs.put(key, value)
        yield kvs.commit()

    proc = sim.spawn(writer())
    sim.run(until=0.4)
    assert proc.ok
    sent = _LoadSpy(session.module_at(1, "kvs")).sent
    procs = [_gets(session, sim, rank, [key])[0]
             for rank, key in ((3, "a.x"), (4, "b.z"), (1, "a.y"))]
    sim.run()
    assert [p.value for p in procs] == [1, 3, 2]
    vals = [sha1_of(make_val_obj(v)) for v in (1, 3, 2)]
    batches = [p["shas"] for p, _ctx in sent]
    # root, a, b and rank 1's own value went one by one; the leaves'
    # follow-up misses share the last request.
    assert [len(b) for b in batches] == [1, 1, 1, 1, 2]
    assert batches[3:] == [[vals[2]], vals[:2]]
    assert _idle(session)


def test_follow_up_misses_of_a_batchs_readers_leave_together():
    """Two cold reads on one rank share the root's load.  Each resumes
    its path walk one kernel event after that load answers, and the
    queue is held until both have: their next misses, ``a`` and ``b``,
    leave as one request, and so do their values."""
    cluster = make_cluster(7, seed=7)
    session = standard_session(cluster).start()
    sim = cluster.sim

    def writer():
        kvs = KvsClient(session.connect(0, collective=False))
        for key, value in (("a.k1", 1), ("b.k2", 2)):
            yield kvs.put(key, value)
        yield kvs.commit()

    proc = sim.spawn(writer())
    sim.run(until=0.4)
    assert proc.ok
    sent = _LoadSpy(session.module_at(3, "kvs")).sent
    procs = _gets(session, sim, 3, ["a.k1", "b.k2"])
    sim.run()
    assert [p.value for p in procs] == [1, 2]
    assert [p["shas"] for p, _ctx in sent] == [
        [session.module_at(3, "kvs").root_sha],
        [_ref(session, "a"), _ref(session, "b")],
        [_ref(session, "a.k1"), _ref(session, "b.k2")]]
    assert _idle(session)


def test_leaf_sends_a_second_batch_once_every_client_is_blocked():
    """A leaf has no children: its own job processes are its sources.
    With four connected, the first cold read leaves alone and the next
    two queue behind it; the queue leaves as a second batch when the
    fourth process blocks — not before, and before the first batch
    returns."""
    cluster, session = _seeded()
    sim = cluster.sim
    _warm(session, sim, LEAF)           # a tool's read: counts no process
    leaf = session.module_at(LEAF, "kvs")
    hold = _LoadSpy(leaf, hold_first=1)
    procs = [KvsClient(session.connect(LEAF)) for _ in range(4)]
    first = [_read(sim, kvs, f"w.k{i}") for i, kvs in enumerate(procs[:3], 1)]
    sim.run()
    assert [p for p, _ctx in hold.held] == [{"shas": [_val(1)]}]
    assert leaf.waiter_census()["loads"] == {
        "outstanding": 1, "batches": 1, "parked": 0, "queued": 2,
        "shas": [_val(1), _val(2), _val(3)]}
    assert not hold.sent                # the fourth may yet ask
    last = _read(sim, procs[3], "w.k4")
    sim.run()
    assert [p for p, _ctx in hold.sent] == [
        {"shas": [_val(2), _val(3), _val(4)]}]
    assert not first[0].triggered       # the first batch is still out
    hold.release()
    sim.run()
    assert [p.value for p in first + [last]] == [10, 20, 30, 40]
    assert _idle(session)


def test_leaf_keeps_one_batch_while_a_client_is_idle():
    """Chaos's shape, one reader beside an idle process, climbs the
    tree one batch at a time; and a queue behind a batch in flight
    waits for it while any connected process is not blocked here."""
    cluster, session = _seeded()
    sim = cluster.sim
    leaf = session.module_at(LEAF, "kvs")
    sent = _LoadSpy(leaf).sent
    _idler, one, two = (KvsClient(session.connect(LEAF)) for _ in range(3))
    reader = _read(sim, one, "w.k1")
    sim.run()
    assert reader.value == 10
    assert [p["shas"] for p, _ctx in sent] == [
        [leaf.root_sha], [_ref(session, "w")], [_val(1)]]
    hold = _LoadSpy(leaf, hold_first=1)
    both = [_read(sim, one, "w.k2"), _read(sim, two, "w.k3")]
    sim.run()
    assert leaf.waiter_census()["loads"]["queued"] == 1
    assert not hold.sent                # three processes, two blocked
    hold.release()
    sim.run()
    assert [p.value for p in both] == [20, 30]
    assert [p for p, _ctx in hold.sent] == [{"shas": [_val(3)]}]
    assert _idle(session)


def test_interior_rank_waits_for_its_children_not_its_clients():
    """Rank 3's two job processes are both blocked, but its child (leaf
    7) is not: an interior rank's gate counts children only, so the
    queue waits until the child parks a load here."""
    cluster, session = _seeded()
    sim = cluster.sim
    _warm(session, sim, LEAF)           # rank 3 holds the root and ``w``
    mod = session.module_at(3, "kvs")
    hold = _LoadSpy(mod, hold_first=2)
    own = [_read(sim, KvsClient(session.connect(3)), f"w.k{i}")
           for i in (1, 2)]
    sim.run()
    assert mod.waiter_census()["loads"]["queued"] == 1
    assert [p for p, _ctx in hold.held] == [{"shas": [_val(1)]}]
    below, = _gets(session, sim, LEAF, ["w.k3"])
    sim.run()
    assert [p for p, _ctx in hold.held] == [
        {"shas": [_val(1)]}, {"shas": [_val(2), _val(3)]}]
    hold.release(0)
    hold.release(1)
    sim.run()
    assert [p.value for p in own + [below]] == [10, 20, 30]
    assert _idle(session)


def test_dead_childs_parked_count_is_dropped_on_live_down():
    """Rank 3 dies with leaf 7's load parked at rank 1: its count goes
    with it (a corpse neither opens nor closes the gate), and the
    orphaned leaf, adopted by rank 1, re-asks there and counts from
    then on."""
    cluster, session = _seeded(
        n=15, with_heartbeat=True, hb_period=0.05, hb_max_epochs=100)
    sim = cluster.sim
    mod = session.module_at(1, "kvs")
    hold = _LoadSpy(mod, hold_first=1)
    own, = _gets(session, sim, 1, ["w.k0"], timeout=3.0)
    below, = _gets(session, sim, 7, ["w.k1"], timeout=3.0)
    sim.run(until=sim.now + 0.01)
    assert mod._loads.parked == {3: 1}
    session.fail_rank(3)
    sim.run(until=sim.now + 1.0)          # detection takes 0.55 s
    assert sorted(session.brokers[1].children) == [4, 7, 8]
    assert mod._loads.parked == {7: 1}
    hold.release()
    sim.run(until=sim.now + 1.0)
    assert (own.value, below.value) == (0, 10)
    assert _idle(session)


# ----------------------------------------------------------------------
# (c) per-item results
# ----------------------------------------------------------------------
def test_null_entry_fails_only_its_read():
    """Two reads share a batch; the parent answers one of its objects
    null.  That read fails with the retryable EIO of an object lost in
    transit; its neighbour gets its value."""
    cluster, session = _seeded()
    sim = cluster.sim
    _warm(session, sim, LEAF)
    leaf = session.module_at(LEAF, "kvs")
    real = leaf._toward_master_cb
    lost = _val(3)

    def lossy(topic, payload, callback, **kw):
        def answer(resp):
            if resp.error is None and lost in payload["shas"]:
                objs = list(resp.payload["objs"])
                objs[payload["shas"].index(lost)] = None
                resp = Message(topic=topic, mtype=MessageType.RESPONSE,
                               payload={"objs": objs})
            callback(resp)

        real(topic, payload, answer, **kw)

    leaf._toward_master_cb = lossy
    hold = _LoadSpy(leaf, hold_first=1)
    procs = _gets(session, sim, LEAF, ["w.k1", "w.k2", "w.k3", "w.k4"])
    sim.run()
    hold.release()
    sim.run()
    assert [len(p["shas"]) for p, _ctx in hold.sent] == [3]
    good1, good2, bad, good4 = (p.value for p in procs)
    assert (good1, good2, good4) == (10, 20, 40)
    assert bad.code == EIO and bad.retryable
    assert "lost in transit" in str(bad)
    assert _idle(session)


def test_unknown_sha_is_null_at_the_master_and_through_a_slave():
    cluster, session = _seeded()
    sim = cluster.sim
    bogus = "0" * 40
    for rank in (0, 3):
        ev = session.connect(rank, collective=False).rpc(
            "kvs.load", {"shas": [_val(1), bogus, _val(2)]})
        sim.run()
        assert ev.value == {"objs": [make_val_obj(10), None,
                                     make_val_obj(20)]}
    assert _idle(session)


@pytest.mark.parametrize("payload", [
    {}, {"sha": _val(1)}, {"shas": _val(1)}, {"shas": {"a": 1}},
    {"shas": [1]}, {"shas": [_val(1), None]}, {"shas": [[_val(1)]]}])
@pytest.mark.parametrize("rank", [0, 3])
def test_shas_not_a_list_of_strings_is_einval(payload, rank):
    cluster, session = _seeded()
    ev = session.connect(rank, collective=False).rpc("kvs.load", payload)
    cluster.sim.run()
    assert not ev.ok and ev._exc.code == EINVAL
    assert "shas" in ev._exc.error
    assert _idle(session)


# ----------------------------------------------------------------------
# (d) cost: a lone load is a list of one; sizes are exact
# ----------------------------------------------------------------------
def _load_traffic(monkeypatch):
    """Record ``(msg, size)`` of every inter-node message."""
    log = []
    real = Network.send

    def send(self, src, dst, payload, size, port=Network.DEFAULT_PORT):
        if src != dst:
            log.append((payload[1], size))
        real(self, src, dst, payload, size, port)

    monkeypatch.setattr(Network, "send", send)
    return log


def test_lone_cold_get_costs_what_it_did_before_batching(monkeypatch):
    """On an idle tree a cold get is one single-SHA load per object per
    hop: 18 messages and 45 events, as with one load per SHA."""
    cluster, session = _seeded(n=15)
    sim = cluster.sim
    log = _load_traffic(monkeypatch)
    spies = [_LoadSpy(session.module_at(r, "kvs")).sent for r in (14, 6, 2)]
    before = sim.event_count
    proc, = _gets(session, sim, 14, ["w.k3"])
    sim.run()
    assert proc.value == 30
    assert [[len(p["shas"]) for p, _ctx in sent] for sent in spies] == [
        [1] * 3, [1] * 3, [1] * 3]
    assert len(log) == 18 and {m.topic for m, _s in log} == {"kvs.load"}
    assert sim.event_count - before == 45


def test_sizes_by_construction_equal_canonical_size(monkeypatch):
    cluster, session = _seeded()
    sim = cluster.sim
    _warm(session, sim, LEAF)
    log = _load_traffic(monkeypatch)
    procs = _gets(session, sim, LEAF, [f"w.k{i}" for i in range(1, NKEYS)])
    odd = session.connect(3, collective=False).rpc(
        "kvs.load", {"shas": ["0" * 40, 'not "a" sha', _val(1)]})
    sim.run()
    assert [p.value for p in procs] == [i * 10 for i in range(1, NKEYS)]
    assert odd.value == {"objs": [None, None, make_val_obj(10)]}
    loads = [(m, size) for m, size in log if m.topic == "kvs.load"]
    kinds = {m.mtype for m, _s in loads}
    assert kinds == {MessageType.REQUEST, MessageType.RESPONSE}
    assert any(len(m.payload.get("shas", ())) > 1 for m, _s in loads)
    assert any(None in m.payload.get("objs", ()) for m, _s in loads)
    for msg, size in loads:
        assert size == HEADER_BYTES + canonical_size(msg.payload)


# ----------------------------------------------------------------------
# (e) a batch a hop gave up on does not wedge later reads
# ----------------------------------------------------------------------
def test_abandoned_load_is_dropped_past_its_deadline():
    """Rank 1's load of the root toward the master is lost on the wire
    and its retransmissions too, so rank 1 gives up on it quietly.
    Once the cold read's deadline has passed, the next read at rank 1
    drops the dead batch instead of joining it and faults the root in
    afresh."""
    plan = FaultPlan(seed=1)
    cluster = make_cluster(7, seed=1)
    cluster.network.fault_plan = plan
    session = standard_session(cluster, with_heartbeat=True,
                               hb_max_epochs=40).start()
    sim = cluster.sim

    def writer():
        kvs = KvsClient(session.connect(0, collective=False))
        yield kvs.put("a.b", 1)
        yield kvs.commit()

    proc = sim.spawn(writer())
    sim.run(until=0.4)
    assert proc.ok
    plan.drop_next(session.node_of_rank(1), session.node_of_rank(0),
                   count=14)
    cold, = _gets(session, sim, 3, ["a.b"], timeout=0.1)
    sim.run(until=1.0)
    assert cold.value.code == ETIMEDOUT
    later, = _gets(session, sim, 1, ["a.b"], timeout=0.1, retries=8)
    sim.run(until=5.0)
    assert later.value == 1
    assert _idle(session)


def test_abandoned_load_without_a_deadline_fails_fast():
    """The same lost load, but the cold get at rank 3 has no timeout, so
    the batch rank 1 sends rides a context with no deadline to drop it
    by.  Such a load is failfast: the hop that gives up on it answers
    at once — the cold get fails retryably — and rank 1's later read
    faults the root in afresh instead of joining a batch nobody will
    ever answer."""
    plan = FaultPlan(seed=1)
    cluster = make_cluster(7, seed=1)
    cluster.network.fault_plan = plan
    session = standard_session(cluster, with_heartbeat=True,
                               hb_max_epochs=40).start()
    sim = cluster.sim

    def writer():
        kvs = KvsClient(session.connect(0, collective=False))
        yield kvs.put("a.b", 1)
        yield kvs.commit()

    proc = sim.spawn(writer())
    sim.run(until=0.4)
    assert proc.ok
    plan.drop_next(session.node_of_rank(1), session.node_of_rank(0),
                   count=14)
    cold, = _gets(session, sim, 3, ["a.b"])
    sim.run(until=1.0)
    later, = _gets(session, sim, 1, ["a.b"], timeout=0.1, retries=8)
    sim.run(until=5.0)
    assert later.value == 1
    assert cold.value.code == EIO       # retryable: lost in transit
    assert _idle(session)
