"""``kvs.get`` answers in its handler, with no simulated process.

A read that hits the cache is answered before ``req_get`` returns; a
miss continues from a callback on the ``_fault`` event that brings the
missing object in.  Each case below checks that every get is answered
exactly once and that the kernel never runs a ``kvs-get`` process (no
``start:kvs-get[r]`` bootstrap, no ``kvs-get[r]`` completion).
"""

from repro import make_cluster, standard_session
from repro.cmb.errors import EIO, ENOENT, RpcError
from repro.cmb.message import Message, MessageType
from repro.kvs import KvsClient

LEAF = 7            # depth 3 in the 8-node binary tree: 7 -> 3 -> 1 -> 0


class _Names:
    """Kernel recorder keeping the name of every processed event."""

    chunk = 1 << 20

    def __init__(self):
        self.entries = []

    def flush(self):
        pass

    def names(self):
        return [ev.name for _t, _p, _s, ev in self.entries]


def _seeded(dedup=False):
    """A session whose master holds ``a.b.c``, ``a.b.d`` and ``a.x``
    while every slave cache below the root is cold."""
    cluster = make_cluster(8, seed=3)
    session = standard_session(cluster, kvs_dedup=dedup).start()

    def writer():
        kvs = KvsClient(session.connect(0, collective=False))
        yield kvs.put("a.b.c", 1)
        yield kvs.put("a.b.d", 2)
        yield kvs.put("a.x", 3)
        yield kvs.commit()

    proc = cluster.sim.spawn(writer())
    cluster.sim.run(until=0.4)
    assert proc.ok
    return cluster, session


def _answers(mod):
    """Count ``mod``'s responses per ``kvs.get`` msgid."""
    counts = {}
    real = mod.respond

    def spy(msg, *args, **kw):
        if msg.topic == "kvs.get":
            counts[msg.msgid] = counts.get(msg.msgid, 0) + 1
        return real(msg, *args, **kw)

    mod.respond = spy
    return counts


def _read(cluster, session, keys, rank=LEAF):
    """Issue every get of ``keys`` at one instant; run to quiescence
    under a recorder.  Returns (results, answer counts, event names)."""
    sim = cluster.sim
    counts = _answers(session.module_at(rank, "kvs"))
    rec = sim.recorder = _Names()
    procs = []
    for key in keys:
        kvs = KvsClient(session.connect(rank, collective=False))

        def reader(kvs=kvs, key=key):
            try:
                return (yield kvs.get(key))
            except RpcError as exc:
                return exc

        procs.append(sim.spawn(reader()))
    sim.run(until=sim.now + 1.0)
    sim.recorder = None
    return [p.value for p in procs], counts, rec.names()


def _no_get_process(names):
    return not any(n.startswith("start:kvs-get") or n.startswith("kvs-get[")
                   for n in names)


def test_two_level_fault_in():
    cluster, session = _seeded()
    leaf = session.module_at(LEAF, "kvs")
    faults = leaf.cache.stats.faults
    values, counts, names = _read(cluster, session, ["a.b.c"])
    assert values == [1]
    assert leaf.cache.stats.faults - faults >= 2     # a, then a.b, ...
    assert list(counts.values()) == [1]
    assert _no_get_process(names)
    # Warm now: the same read is answered inside its handler.
    values, counts, names = _read(cluster, session, ["a.b.c"])
    assert values == [1] and list(counts.values()) == [1]
    assert leaf.cache.stats.faults - faults >= 2
    assert _no_get_process(names)


def test_enoent_after_a_fault_in():
    cluster, session = _seeded()
    leaf = session.module_at(LEAF, "kvs")
    faults = leaf.cache.stats.faults
    (err,), counts, names = _read(cluster, session, ["a.b.nope"])
    assert isinstance(err, RpcError) and err.code == ENOENT
    assert leaf.cache.stats.faults > faults
    assert list(counts.values()) == [1]
    assert _no_get_process(names)


def test_eio_when_the_fault_brings_nothing():
    cluster, session = _seeded()
    leaf = session.module_at(LEAF, "kvs")
    real = leaf._toward_master_cb

    def lossy(topic, payload, callback, **kw):
        if topic != "kvs.load":
            return real(topic, payload, callback, **kw)
        callback(Message(topic=topic, mtype=MessageType.RESPONSE,
                         error="gone", errnum=ENOENT, err_rank=3))

    leaf._toward_master_cb = lossy
    (err,), counts, names = _read(cluster, session, ["a.x"])
    assert isinstance(err, RpcError) and err.code == EIO
    assert "lost in transit" in str(err)
    assert list(counts.values()) == [1]
    assert _no_get_process(names)


def test_two_gets_coalesce_on_one_fault():
    def faults_of(keys):
        cluster, session = _seeded()
        leaf = session.module_at(LEAF, "kvs")
        faults = leaf.cache.stats.faults
        out = _read(cluster, session, keys)
        return leaf.cache.stats.faults - faults, out

    one, _ = faults_of(["a.b.c"])
    two, (values, counts, names) = faults_of(["a.b.c", "a.b.d"])
    assert values == [1, 2]
    assert two == one + 1       # a.b's loads are shared; d is its own
    assert sorted(counts.values()) == [1, 1]
    assert _no_get_process(names)


def test_walk_crossing_a_link_is_answered_in_the_handler():
    cluster, session = _seeded(dedup=True)
    sim = cluster.sim

    def setup():
        kvs = KvsClient(session.connect(5, collective=False))
        yield kvs.put("job.1.a", 11)
        yield kvs.commit()
        yield kvs.delegate("job.1", 3)

    proc = sim.spawn(setup())
    sim.run(until=sim.now + 1.0)
    assert proc.ok
    reader = session.module_at(6, "kvs")
    reader.owners.clear()       # stale table: the read meets the link
    faults = reader.cache.stats.faults
    hops = []
    real = reader._hop_rpc

    def spy(dst, topic, *args, **kw):
        hops.append((dst, topic))
        return real(dst, topic, *args, **kw)

    reader._hop_rpc = spy
    values, counts, names = _read(cluster, session, ["job.1.a"], rank=6)
    assert values == [11]
    assert hops == [(3, "kvs.get")]
    assert reader.cache.stats.faults == faults
    assert list(counts.values()) == [1]
    assert _no_get_process(names)
