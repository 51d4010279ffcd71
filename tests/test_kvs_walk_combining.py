"""Tree-combined ``kvs.walk``: batching, per-item results, failure
semantics of a batch.

In dedup mode a cold read ships its *walk* master-ward.  Each rank
keeps one ``kvs.walk`` request outstanding — two once every child is
itself blocked on a walk parked here (at a leaf: once each of its job
processes has a read waiting), when waiting longer could merge nothing
more; cold reads that arrive meanwhile queue, deduplicated by
``(key, root, ref)``, and leave as one list.  These tests pin what a
batch may and may not share: one round trip, yes; one item's fate, no.
"""

from collections import Counter

import pytest

from repro import make_cluster, standard_session
from repro.cmb.errors import (EHOSTUNREACH, EINVAL, ENOENT, ETIMEDOUT,
                              RETRYABLE_CODES, RpcError)
from repro.cmb.message import HEADER_BYTES, Message, MessageType
from repro.jsonutil import canonical_size, sha1_of
from repro.kap import KapConfig, driver, run_kap
from repro.kvs import KvsClient, make_val_obj
from repro.sim.faults import FaultPlan
from repro.sim.network import Network

LEAF = 7            # depth 3 in the 8-node binary tree: 7 -> 3 -> 1 -> 0
NKEYS = 16


def _seeded(n=8, seed=7, fault_plan=None, **kw):
    """A dedup session whose master holds ``w.k0..w.k15`` while every
    slave cache is cold."""
    cluster = make_cluster(n, seed=seed)
    cluster.network.fault_plan = fault_plan
    session = standard_session(cluster, kvs_dedup=True, **kw).start()

    def writer():
        kvs = KvsClient(session.connect(0, collective=False))
        for i in range(NKEYS):
            yield kvs.put(f"w.k{i}", i * 10)
        yield kvs.commit()

    proc = cluster.sim.spawn(writer())
    cluster.sim.run(until=0.4)     # setroot reaches every rank
    assert proc.ok
    return cluster, session


class _WalkSpy:
    """Record every ``kvs.walk`` request ``mod`` sends master-ward as
    ``(payload, ctx)`` in ``sent``.  With ``hold_first`` the first one
    (``hold_first=2``: the first two) is captured instead of sent, to
    be released or failed by hand; ``held`` lists their payloads."""

    def __init__(self, mod, hold_first=False):
        self.sent = []
        self.held = []
        self._held = []
        real = mod._toward_master_cb

        def spy(topic, payload, callback, ctx=None, **kw):
            if topic == "kvs.walk":
                if len(self._held) < hold_first:
                    self.held.append(payload)
                    self._held.append((callback, lambda: real(
                        topic, payload, callback, ctx=ctx, **kw)))
                    return
                self.sent.append((payload, ctx))
            real(topic, payload, callback, ctx=ctx, **kw)

        mod._toward_master_cb = spy

    def release(self, i=0):
        self._held[i][1]()

    def fail(self, code, i=0):
        self._held[i][0](Message(topic="kvs.walk",
                                 mtype=MessageType.RESPONSE,
                                 error="uplink gone", errnum=code,
                                 err_rank=3))


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


def _idle(session):
    """No rank still holds an outstanding or queued walk."""
    return all(
        session.module_at(b.rank, "kvs").waiter_census()["walks"]
        == {"outstanding": 0, "batches": 0, "parked": 0, "queued": 0,
            "keys": []}
        for b in session.brokers if b.alive)


# ----------------------------------------------------------------------
# (a) a burst of cold reads shares round trips
# ----------------------------------------------------------------------
def test_burst_of_cold_gets_combines_into_two_requests():
    cluster, session = _seeded()
    sim = cluster.sim
    leaf = session.module_at(LEAF, "kvs")
    sent = _WalkSpy(leaf).sent
    procs = _gets(session, sim, LEAF, [f"w.k{i}" for i in range(NKEYS)])
    sim.run()
    assert [p.value for p in procs] == [i * 10 for i in range(NKEYS)]
    # Self-clocked: the first read leaves alone, the other fifteen
    # queue behind it and leave as one list when it returns.
    assert len(sent) <= 2
    assert sum(len(p["items"]) for p, _ctx in sent) == NKEYS
    assert leaf._cv_walks.data[("kvs",)] == NKEYS   # same logical reads
    assert _idle(session)


def test_identical_cold_gets_are_deduplicated():
    cluster, session = _seeded()
    sim = cluster.sim
    sent = _WalkSpy(session.module_at(LEAF, "kvs")).sent
    procs = _gets(session, sim, LEAF, ["w.k3"] * 8)
    sim.run()
    assert [p.value for p in procs] == [30] * 8
    assert sum(len(p["items"]) for p, _ctx in sent) == 1


# ----------------------------------------------------------------------
# (b) per-item results
# ----------------------------------------------------------------------
def test_batch_answers_per_item():
    cluster, session = _seeded()
    sim = cluster.sim
    root = session.module_at(3, "kvs").root_sha
    handle = session.connect(3, collective=False)
    ev = handle.rpc("kvs.walk", {"roots": [root],
                                 "items": [["w.k1", 0, False],
                                           ["w.nope", 0, False],
                                           ["w.k2", 0, True],
                                           ["w", 0, False]]})
    sim.run()
    present, missing, ref, listing = ev.value["res"]
    assert present == {"value": 10}
    assert missing["errnum"] == ENOENT and missing["rank"] == 0
    assert missing["error"] == "key 'w.nope' not found"   # not repr-quoted
    assert set(ref) == {"ref"} and len(ref["ref"]) == 40
    assert listing == {"dir": sorted(f"k{i}" for i in range(NKEYS))}


def test_enoent_item_does_not_fail_its_neighbours():
    cluster, session = _seeded()
    sim = cluster.sim
    hold = _WalkSpy(session.module_at(LEAF, "kvs"), hold_first=True)
    first, = _gets(session, sim, LEAF, ["w.k0"])
    sim.run()
    good, bad = _gets(session, sim, LEAF, ["w.k5", "w.nope"])
    ref = session.connect(LEAF, collective=False).rpc(
        "kvs.get", {"key": "w.k6", "ref": True})
    sim.run()
    hold.release()
    sim.run()
    (payload, _ctx), = hold.sent
    assert len(payload["items"]) == 3
    assert first.value == 0 and good.value == 50
    assert len(ref.value["ref"]) == 40
    assert bad.value.code == ENOENT and not bad.value.retryable


@pytest.mark.parametrize("items", [
    [["w.k1"]], [[7, 0, False]], [["w.k1", None, False]], "w.k1",
    # index -1, len(roots), a float, a bool; the old per-item root
    [["w.k1", -1, False]], [["w.k1", 1, False]], [["w.k1", 0.0, False]],
    [["w.k1", False, False]], [["w.k1", "root", False]],
    # whole payloads: no roots table, not a list, not of strings
    {"items": [["w.k1", 0, False]]},
    {"roots": "root", "items": [["w.k1", 0, False]]},
    {"roots": [7], "items": [["w.k1", 0, False]]}])
def test_malformed_items_are_rejected(items):
    """One wire shape: a required ``roots`` list of strings and, per
    item, ``[key, index, ref]`` with an in-range int index into it.
    Anything else is EINVAL.  A list is sent under the seeded root."""
    cluster, session = _seeded()
    root = session.module_at(3, "kvs").root_sha
    payload = (items if isinstance(items, dict)
               else {"roots": [root], "items": items})
    ev = session.connect(3, collective=False).rpc("kvs.walk", payload)
    cluster.sim.run()
    assert not ev.ok and ev._exc.code == EINVAL


# ----------------------------------------------------------------------
# (c) a walk that lands on a delegation link reads from the owner
# ----------------------------------------------------------------------
def test_walk_crossing_a_link_reads_from_the_owner():
    cluster, session = _seeded()
    sim = cluster.sim

    def setup():
        kvs = KvsClient(session.connect(5, collective=False))
        yield kvs.put("job.1.a", 11)
        yield kvs.commit()
        yield kvs.delegate("job.1", 3)

    setup_proc = sim.spawn(setup())
    sim.run(until=sim.now + 1.0)
    assert setup_proc.ok
    reader = session.module_at(6, "kvs")
    reader.owners.clear()       # stale table: the read meets the link
    faults = reader.cache.stats.faults
    hops = []
    real = reader._hop_rpc

    def spy(dst, topic, *args, **kw):
        hops.append((dst, topic))
        return real(dst, topic, *args, **kw)

    reader._hop_rpc = spy
    proc, = _gets(session, sim, 6, ["job.1.a"])
    sim.run(until=sim.now + 1.0)
    assert proc.value == 11
    assert reader._cv_walks.data[("kvs",)] == 1
    assert hops == [(3, "kvs.get")]
    assert reader.cache.stats.faults == faults


# ----------------------------------------------------------------------
# (d) a failed batch fails retryably, and the queue moves on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", [EHOSTUNREACH, ETIMEDOUT])
def test_failed_batch_is_retryable_and_queue_is_pumped(code):
    cluster, session = _seeded()
    sim = cluster.sim
    leaf = session.module_at(LEAF, "kvs")
    hold = _WalkSpy(leaf, hold_first=True)
    doomed = _gets(session, sim, LEAF, ["w.k0", "w.k0"])
    sim.run()
    queued = _gets(session, sim, LEAF, ["w.k1", "w.k2"])
    sim.run()
    assert leaf.waiter_census()["walks"] == {
        "outstanding": 1, "batches": 1, "parked": 0, "queued": 2,
        "keys": ["w.k0", "w.k1", "w.k2"]}
    assert not hold.sent
    hold.fail(code)
    sim.run()
    assert code in RETRYABLE_CODES
    for proc in doomed:
        assert proc.value.code == code and proc.value.retryable
        assert proc.value.rank == 3
    # The queue left the moment the failure landed — nobody stranded.
    (payload, _ctx), = hold.sent
    assert len(payload["items"]) == 2
    assert [p.value for p in queued] == [10, 20]
    assert _idle(session)


#: Retransmission is part of the hardened protocol the heartbeat turns
#: on; a 1 s period keeps ``live`` from declaring the cut leaf dead.
_SLOW_HB = dict(with_heartbeat=True, hb_period=1.0, hb_max_epochs=40)


def _cut(cluster, session, plan, src, dst, rate):
    plan.set_link(session.node_of_rank(src), session.node_of_rank(dst),
                  drop_rate=rate)


def test_lost_batch_does_not_wedge_later_reads():
    """A batch lost on a dead link whose only waiter gave up must not
    block the rank's reads for good: the hop that stops retransmitting
    it fails it out loud, so the combiner is idle again."""
    plan = FaultPlan(seed=1)
    cluster, session = _seeded(fault_plan=plan, **_SLOW_HB)
    sim = cluster.sim
    leaf = session.module_at(LEAF, "kvs")
    _cut(cluster, session, plan, LEAF, 3, 1.0)
    doomed, = _gets(session, sim, LEAF, ["w.k0"], timeout=0.01, retries=0)
    sim.run(until=sim.now + 1.0)
    assert doomed.value.code == ETIMEDOUT
    assert leaf.waiter_census()["walks"]["outstanding"] == 0
    _cut(cluster, session, plan, LEAF, 3, 0.0)
    fresh = _gets(session, sim, LEAF, ["w.k1", "w.k2"],
                  timeout=1.0, retries=5)
    sim.run(until=sim.now + 30.0)
    assert [p.value for p in fresh] == [10, 20]
    assert _idle(session)


def test_reads_queued_behind_a_lost_batch_are_released():
    """Reads already queued when the outstanding batch is lost get the
    retryable ETIMEDOUT of the give-up (not silence), so their clients'
    retries succeed once the link heals — with no fresh read needed to
    revive anything."""
    plan = FaultPlan(seed=1)
    cluster, session = _seeded(fault_plan=plan, **_SLOW_HB)
    sim = cluster.sim
    _cut(cluster, session, plan, LEAF, 3, 1.0)
    doomed, = _gets(session, sim, LEAF, ["w.k0"], timeout=0.01, retries=0)
    queued = _gets(session, sim, LEAF, ["w.k1", "w.k2", "w.k3"],
                   timeout=1.0, retries=5)
    heal = sim.timeout(0.5)
    heal.add_callback(
        lambda _e: _cut(cluster, session, plan, LEAF, 3, 0.0))
    sim.run(until=sim.now + 30.0)
    assert doomed.value.code == ETIMEDOUT
    assert [p.value for p in queued] == [10, 20, 30]
    # The give-up is in the flight recorder for the post-mortem.
    assert any(r[2] == "giveup" and r[3] == "kvs.walk"
               for r in session.brokers[LEAF].flight.records())
    assert _idle(session)


def test_no_stranded_waiters_across_root_failover():
    """Master killed with walks in flight on a lossy fabric: live.down
    fails or reroutes every outstanding batch, promotion + newmaster
    re-route the retries, and every combiner ends idle."""
    cluster, session = _seeded(
        n=15, seed=9, fault_plan=FaultPlan(seed=13, drop_rate=0.01),
        with_heartbeat=True, hb_period=0.05, hb_max_epochs=400,
        kvs_replicas=(1, 2))
    sim = cluster.sim
    procs = []
    for rank in range(7, 15):
        procs += _gets(session, sim, rank,
                       [f"w.k{rank}", f"w.k{rank - 7}"],
                       timeout=0.5, retries=10)
    kill = sim.timeout(2.5e-5)      # some walks answered, most in flight
    kill.add_callback(lambda _e: session.fail_rank(0))
    sim.run(until=sim.now + 15.0)
    assert [p.value for p in procs] == [
        v for rank in range(7, 15) for v in (rank * 10, (rank - 7) * 10)]
    assert session.module_at(1, "kvs").master is not None
    # The reads in flight at the kill failed retryably and walked again.
    assert sum(session.module_at(r, "kvs")._cv_walks.data[("kvs",)]
               for r in range(7, 15)) > len(procs)
    assert _idle(session)


# ----------------------------------------------------------------------
# (e) deadlines and replay
# ----------------------------------------------------------------------
def test_batch_carries_earliest_deadline_and_is_never_replayed():
    cluster, session = _seeded()
    sim = cluster.sim
    hold = _WalkSpy(session.module_at(LEAF, "kvs"), hold_first=True)
    first, = _gets(session, sim, LEAF, ["w.k0"])
    sim.run()
    t0 = sim.now
    procs = [_gets(session, sim, LEAF, [key], timeout=timeout)[0]
             for key, timeout in (("w.k1", 5.0), ("w.k2", 2.0),
                                  ("w.k3", None), ("w.k4", 9.0))]
    sim.run(until=t0 + 1e-3)
    hold.release()
    sim.run(until=t0 + 1.0)
    assert first.value == 0
    assert [p.value for p in procs] == [10, 20, 30, 40]
    (payload, ctx), = hold.sent
    assert len(payload["items"]) == 4
    assert ctx.deadline == pytest.approx(t0 + 2.0)
    # Two batches, two idempotency keys at the parent; nothing replayed.
    parent = session.brokers[3]
    keys = [k for k in parent._replay["kvs"] if k[2] == "kvs.walk"]
    assert len(keys) == 2 and len({k[1] for k in keys}) == 2
    assert sum(b.replay_hits for b in session.brokers) == 0


def test_expired_waiter_is_dropped_at_pump_not_batched():
    """A read whose deadline passed while it sat in the queue is
    answered ETIMEDOUT here; it neither rides nor dates the batch, so
    its neighbours keep their own (later, or no) deadlines."""
    cluster, session = _seeded()
    sim = cluster.sim
    hold = _WalkSpy(session.module_at(LEAF, "kvs"), hold_first=True)
    first, = _gets(session, sim, LEAF, ["w.k0"])
    sim.run()
    t0 = sim.now
    short, = _gets(session, sim, LEAF, ["w.k1"], timeout=1e-3)
    late, = _gets(session, sim, LEAF, ["w.k2"], timeout=5.0)
    free, = _gets(session, sim, LEAF, ["w.k3"])
    sim.run(until=t0 + 0.01)          # ``short`` expires in the queue
    assert short.value.code == ETIMEDOUT
    hold.release()
    sim.run(until=t0 + 1.0)
    (payload, ctx), = hold.sent
    assert [i[0] for i in payload["items"]] == ["w.k2", "w.k3"]
    assert ctx.deadline == pytest.approx(t0 + 5.0) and ctx.failfast
    assert (first.value, late.value, free.value) == (0, 20, 30)
    assert _idle(session)


def test_all_waiters_expired_sends_nothing():
    cluster, session = _seeded()
    sim = cluster.sim
    hold = _WalkSpy(session.module_at(LEAF, "kvs"), hold_first=True)
    first, = _gets(session, sim, LEAF, ["w.k0"])
    sim.run()
    short, = _gets(session, sim, LEAF, ["w.k1"], timeout=1e-3)
    sim.run(until=sim.now + 0.01)
    hold.release()
    sim.run(until=sim.now + 1.0)
    assert first.value == 0 and short.value.code == ETIMEDOUT
    assert not hold.sent and _idle(session)
    after, = _gets(session, sim, LEAF, ["w.k2"])     # combiner still works
    sim.run(until=sim.now + 1.0)
    assert after.value == 20


# ----------------------------------------------------------------------
# (f) observers do not perturb a combining run
# ----------------------------------------------------------------------
def test_sanitized_run_agrees_with_tight_loop_with_combining():
    kw = dict(nnodes=32, procs_per_node=8, value_size=64, seed=3,
              dedup=True)
    tight = run_kap(KapConfig(**kw))
    hooked = run_kap(KapConfig(**kw), sanitize=True)
    assert hooked.sanitizer_findings == []
    assert hooked.events == tight.events
    assert hooked.bytes_sent == tight.bytes_sent
    assert hooked.total_time == tight.total_time
    assert hooked.max_consumer_latency == tight.max_consumer_latency
    fault_in = run_kap(KapConfig(**{**kw, "dedup": False}))
    assert tight.bytes_sent < fault_in.bytes_sent


# ----------------------------------------------------------------------
# (g) double buffering: a second batch leaves when every child is
#     already blocked here
# ----------------------------------------------------------------------
def _kap_reads(monkeypatch, dedup):
    """A 63 x 16 binary-tree KAP run: its result, every ``(key, value)``
    a consumer read, and the item count of each ``kvs.walk`` request
    that reached the master."""
    reads, at_master = [], []

    class Recording(KvsClient):
        def get(self, key, timeout=None):
            ev = super().get(key, timeout)
            ev.add_callback(lambda e: reads.append((key, e.value)))
            return ev

    real = Network.send

    def send(self, src, dst, payload, size, port=Network.DEFAULT_PORT):
        msg = payload[1]
        if (dst == 0 != src and msg.topic == "kvs.walk"
                and msg.mtype == MessageType.REQUEST):
            at_master.append(len(msg.payload["items"]))
        real(self, src, dst, payload, size, port)

    monkeypatch.setattr(driver, "KvsClient", Recording)
    monkeypatch.setattr(Network, "send", send)
    res = run_kap(KapConfig(nnodes=63, procs_per_node=16, value_size=64,
                            seed=1, dedup=dedup))
    return res, sorted(reads), at_master


def test_convoy_regression_binary_tree_keeps_batches_large(monkeypatch):
    """Hop-by-hop stop-and-wait doubles the cycle per level, which a
    fan-in of two exactly cancels: every request rank 1 sent carried one
    leaf's batch and the master's NIC idled 40% of the read phase."""
    walk, walk_reads, at_master = _kap_reads(monkeypatch, dedup=True)
    _fault, fault_reads, none = _kap_reads(monkeypatch, dedup=False)
    assert walk_reads == fault_reads and len(walk_reads) == 63 * 16
    assert not none
    assert walk.max_consumer_latency < 0.20e-3      # parent: 0.297 ms
    assert len(at_master) <= 50                     # parent: 66
    assert sum(at_master) == 62 * 16    # nothing sent twice, nothing lost


def _in_flight_peaks(session):
    """Highest number of ``kvs.walk`` requests each rank ever had
    unanswered toward the master."""
    live, peak = Counter(), Counter()
    for broker in session.brokers:
        mod = session.module_at(broker.rank, "kvs")

        def spy(topic, payload, callback, _real=mod._toward_master_cb,
                _rank=broker.rank, **kw):
            if topic != "kvs.walk":
                return _real(topic, payload, callback, **kw)
            live[_rank] += 1
            peak[_rank] = max(peak[_rank], live[_rank])

            def done(resp):
                live[_rank] -= 1
                callback(resp)

            _real(topic, payload, done, **kw)

        mod._toward_master_cb = spy
    return peak


def test_at_most_two_in_flight_one_at_leaves_and_beside_an_idle_child():
    cluster, session = _seeded(n=15)
    sim = cluster.sim
    peak = _in_flight_peaks(session)
    # Under rank 1 all four leaves read; under rank 2 only leaf 11, so
    # rank 5 (children 11, 12) and rank 2 (5, 6) each keep an idle child.
    # Each starts at a key of its own: an item already in flight would
    # be joined, not queued.
    readers = (7, 8, 9, 10, 11)
    order = {rank: [(rank - 7 + i) % NKEYS for i in range(NKEYS)]
             for rank in readers}
    procs = [p for rank in readers for p in _gets(
        session, sim, rank, [f"w.k{i}" for i in order[rank]])]
    sim.run()
    assert [p.value for p in procs] == [
        i * 10 for rank in readers for i in order[rank]]
    assert max(peak.values()) == 2
    assert peak[1] == peak[3] == peak[4] == 2   # every child blocked here
    assert all(peak[leaf] == 1 for leaf in readers)
    assert peak[5] == peak[2] == 1      # the idle child may yet ask
    assert _idle(session)


def _two_in_flight():
    """Rank 3 (one child, the leaf) with two batches held on the wire:
    ``w.k0`` asked here, then ``w.k1`` by the leaf — whose walk parks,
    so every child is blocked and the queue leaves as a second batch."""
    cluster, session = _seeded()
    sim = cluster.sim
    mod = session.module_at(3, "kvs")
    hold = _WalkSpy(mod, hold_first=2)
    own, = _gets(session, sim, 3, ["w.k0"])
    sim.run()
    below, = _gets(session, sim, LEAF, ["w.k1"])
    sim.run()
    assert mod.waiter_census()["walks"] == {
        "outstanding": 2, "batches": 2, "parked": 1, "queued": 0,
        "keys": ["w.k0", "w.k1"]}
    return session, sim, mod, hold, own, below


def test_item_in_flight_in_either_batch_is_joined_not_resent():
    session, sim, mod, hold, own, below = _two_in_flight()
    again = _gets(session, sim, 3, ["w.k0", "w.k1", "w.k2"])
    sim.run()
    assert mod.waiter_census()["walks"] == {
        "outstanding": 2, "batches": 2, "parked": 1, "queued": 1,
        "keys": ["w.k0", "w.k1", "w.k2"]}
    assert not hold.sent                # never a third in flight
    hold.release(0)
    hold.release(1)
    sim.run()
    assert (own.value, below.value) == (0, 10)
    assert [p.value for p in again] == [0, 10, 20]
    payloads = hold.held + [p for p, _ctx in hold.sent]
    assert [[i[0] for i in p["items"]] for p in payloads] == [
        ["w.k0"], ["w.k1"], ["w.k2"]]
    assert _idle(session)


def test_two_batches_in_flight_fail_independently():
    session, sim, _mod, hold, own, below = _two_in_flight()
    queued, = _gets(session, sim, 3, ["w.k2"])
    sim.run()
    hold.fail(EHOSTUNREACH, 0)
    sim.run()
    assert own.value.code == EHOSTUNREACH and own.value.retryable
    assert not below.triggered          # the other batch is untouched
    (payload, _ctx), = hold.sent        # ... and the queue pumped once
    assert [i[0] for i in payload["items"]] == ["w.k2"]
    assert queued.value == 20
    hold.release(1)
    sim.run()
    assert below.value == 10
    assert _idle(session)


def test_lone_cold_get_on_an_idle_tree_is_what_it_always_was():
    cluster, session = _seeded(n=15)
    sim = cluster.sim
    spies = [_WalkSpy(session.module_at(r, "kvs")).sent
             for r in (14, 6, 2)]
    before = sim.event_count
    proc, = _gets(session, sim, 14, ["w.k3"])
    sim.run()
    assert proc.value == 30
    # One single-item request per hop, forwarded at once.
    assert [[len(p["items"]) for p, _ctx in sent] for sent in spies] == [
        [1], [1], [1]]
    # As with one in flight; 18 since a get no longer runs as a
    # process (its start and completion events are gone).
    assert sim.event_count - before == 18


def test_child_killed_mid_read_strands_no_walk():
    """Rank 3 dies with its own and its leaves' walks parked at rank 1:
    its parked count goes with it (a corpse neither opens nor closes
    the gate), the orphaned leaves re-issue through rank 1 and count as
    its children from then on, and every combiner ends idle."""
    cluster, session = _seeded(
        n=15, seed=9, fault_plan=FaultPlan(seed=13, drop_rate=0.01),
        with_heartbeat=True, hb_period=0.05, hb_max_epochs=400)
    sim = cluster.sim
    procs = []
    for rank in range(7, 15):
        procs += _gets(session, sim, rank,
                       [f"w.k{rank}", f"w.k{rank - 7}"],
                       timeout=0.5, retries=10)
    kill = sim.timeout(2.5e-5)
    kill.add_callback(lambda _e: session.fail_rank(3))
    sim.run(until=sim.now + 5.0)        # detection takes 0.55 s
    assert [p.value for p in procs] == [
        v for rank in range(7, 15) for v in (rank * 10, (rank - 7) * 10)]
    assert sorted(session.brokers[1].children) == [4, 7, 8]
    assert 3 not in session.module_at(1, "kvs")._walks.parked
    assert _idle(session)


def _read(sim, kvs, key):
    """Spawn one read of ``key`` through the client ``kvs``."""
    def reader():
        return (yield kvs.get(key))

    return sim.spawn(reader())


def _keys(payloads):
    return [[i[0] for i in p["items"]] for p in payloads]


def test_leaf_sends_a_second_batch_once_every_client_is_blocked():
    """A leaf has no children: its own job processes are its sources.
    With four connected, the first cold read leaves alone and the next
    two queue behind it; the queue leaves as a second batch when the
    fourth process blocks — not before, and before the first batch
    returns."""
    cluster, session = _seeded()
    sim = cluster.sim
    leaf = session.module_at(LEAF, "kvs")
    hold = _WalkSpy(leaf, hold_first=True)
    procs = [KvsClient(session.connect(LEAF)) for _ in range(4)]
    first = [_read(sim, kvs, f"w.k{i}") for i, kvs in enumerate(procs[:3], 1)]
    sim.run()
    assert _keys(hold.held) == [["w.k1"]]
    assert leaf.waiter_census()["walks"]["queued"] == 2
    assert not hold.sent                # the fourth may yet ask
    last = _read(sim, procs[3], "w.k4")
    sim.run()
    assert _keys(p for p, _ctx in hold.sent) == [["w.k2", "w.k3", "w.k4"]]
    assert not first[0].triggered       # the first batch is still out
    hold.release()
    sim.run()
    assert [p.value for p in first + [last]] == [10, 20, 30, 40]
    assert _idle(session)


def test_leaf_keeps_one_batch_while_a_client_is_idle():
    """Beside an idle process, the queue behind a batch in flight waits
    for that batch: the idle one may yet ask."""
    cluster, session = _seeded()
    sim = cluster.sim
    leaf = session.module_at(LEAF, "kvs")
    hold = _WalkSpy(leaf, hold_first=True)
    _idler, one, two = (KvsClient(session.connect(LEAF)) for _ in range(3))
    both = [_read(sim, one, "w.k1"), _read(sim, two, "w.k2")]
    sim.run()
    assert leaf.waiter_census()["walks"]["queued"] == 1
    assert not hold.sent                # three processes, two blocked
    hold.release()
    sim.run()
    assert [p.value for p in both] == [10, 20]
    assert _keys(p for p, _ctx in hold.sent) == [["w.k2"]]
    assert _idle(session)


def test_interior_rank_waits_for_its_children_not_its_clients():
    """Rank 3's two job processes are both blocked, but its child (leaf
    7) is not: an interior rank's gate counts children only, so the
    queue waits until the child parks a walk here."""
    cluster, session = _seeded()
    sim = cluster.sim
    mod = session.module_at(3, "kvs")
    hold = _WalkSpy(mod, hold_first=2)
    own = [_read(sim, KvsClient(session.connect(3)), f"w.k{i}")
           for i in (1, 2)]
    sim.run()
    assert mod.waiter_census()["walks"]["queued"] == 1
    assert _keys(hold.held) == [["w.k1"]]
    below, = _gets(session, sim, LEAF, ["w.k3"])
    sim.run()
    assert _keys(hold.held) == [["w.k1"], ["w.k2", "w.k3"]]
    hold.release(0)
    hold.release(1)
    sim.run()
    assert [p.value for p in own + [below]] == [10, 20, 30]
    assert _idle(session)


# ----------------------------------------------------------------------
# (h) the wire: one roots table per batch, results carry only the value
# ----------------------------------------------------------------------
def _walk_traffic(monkeypatch):
    """Record ``(msg, size)`` of every ``kvs.walk`` message on the
    fabric."""
    log = []
    real = Network.send

    def send(self, src, dst, payload, size, port=Network.DEFAULT_PORT):
        if src != dst and payload[1].topic == "kvs.walk":
            log.append((payload[1], size))
        real(self, src, dst, payload, size, port)

    monkeypatch.setattr(Network, "send", send)
    return log


def test_value_results_cost_the_value_and_items_carry_no_root(monkeypatch):
    cluster, session = _seeded()
    sim = cluster.sim
    log = _walk_traffic(monkeypatch)
    procs = _gets(session, sim, LEAF, [f"w.k{i}" for i in range(NKEYS)])
    sim.run()
    assert [p.value for p in procs] == [i * 10 for i in range(NKEYS)]
    root = session.module_at(LEAF, "kvs").root_sha
    requests = [m for m, _size in log if m.mtype == MessageType.REQUEST]
    assert requests
    for msg in requests:
        assert msg.payload["roots"] == [root]
        assert all(i[1] == 0 for i in msg.payload["items"])
    # Per value result: {"value": v} and its comma in the list, inside
    # the {"res":[...]} frame — no sha rides along.
    responses = [(m, size) for m, size in log
                 if m.mtype == MessageType.RESPONSE]
    assert responses
    for msg, size in responses:
        res = msg.payload["res"]
        assert all(set(r) == {"value"} for r in res)
        assert size == HEADER_BYTES + 9 + sum(
            canonical_size(r) + 1 for r in res)


def test_batch_mixing_two_roots_resolves_each_under_its_own():
    cluster, session = _seeded()
    sim = cluster.sim
    old = session.module_at(3, "kvs").root_sha

    def rewrite():
        kvs = KvsClient(session.connect(0, collective=False))
        yield kvs.put("w.k1", "new")
        yield kvs.commit()

    proc = sim.spawn(rewrite())
    sim.run(until=sim.now + 0.4)
    assert proc.ok
    new = session.module_at(3, "kvs").root_sha
    assert new != old
    sent = _WalkSpy(session.module_at(3, "kvs")).sent
    ev = session.connect(3, collective=False).rpc(
        "kvs.walk", {"roots": [new, old],
                     "items": [["w.k1", 1, False], ["w.k1", 0, False],
                               ["w.k2", 1, False]]})
    sim.run()
    assert ev.value["res"] == [{"value": 10}, {"value": "new"},
                               {"value": 20}]
    # Rank 3's combiner re-indexed them into its own table, one entry
    # per snapshot.
    (payload, _ctx), = sent
    roots = payload["roots"]
    assert sorted(roots) == sorted([old, new])
    assert [[k, roots[i]] for k, i, _f in payload["items"]] == [
        ["w.k1", old], ["w.k1", new], ["w.k2", old]]


def test_walk_caches_no_value_and_a_repeat_get_walks_again():
    cluster, session = _seeded()
    sim = cluster.sim
    path = [session.module_at(r, "kvs") for r in (LEAF, 3, 1)]
    before = [len(mod.cache) for mod in path]
    first, = _gets(session, sim, LEAF, ["w.k3"])
    sim.run()
    assert first.value == 30
    assert [len(mod.cache) for mod in path] == before
    assert all(sha1_of(make_val_obj(30)) not in mod.cache for mod in path)
    again, = _gets(session, sim, LEAF, ["w.k3"])
    sim.run()
    assert again.value == 30
    assert path[0]._cv_walks.data[("kvs",)] == 2
    assert _idle(session)
