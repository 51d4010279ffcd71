"""Per-layer micro-benchmarks: a layer's unit cost without a full run.

Each calls one layer's public functions in a loop and reports the
median of five repeats, in host nanoseconds per operation.  They are
informational: no bound applies, and a gain is claimed with the
end-to-end metrics.
"""

import statistics
import time

REPEATS = 5


def _ns_per_op(run, ops):
    """Median ns per op of ``run()``, which performs ``ops`` ops."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()  # repro: noqa[DET001]
        run()
        samples.append(
            (time.perf_counter() - t0) * 1e9 / ops)  # repro: noqa[DET001]
    return statistics.median(samples)


def kernel_pingpong(n=20000):
    """Two processes exchanging timeouts: ns per kernel event."""
    from repro.sim import Simulation

    def run():
        sim = Simulation(seed=1)

        def player():
            for _ in range(n):
                yield sim.timeout(1e-6)

        sim.spawn(player())
        sim.spawn(player())
        sim.run()

    return _ns_per_op(run, 2 * n)


def network_send(n=20000):
    """``Network.send`` to inbox delivery: ns per message."""
    from repro import make_cluster

    def run():
        cluster = make_cluster(2, seed=1)
        net, sim = cluster.network, cluster.sim
        inbox = net.inbox(1)

        def receiver():
            for _ in range(n):
                yield inbox.get()

        proc = sim.spawn(receiver())
        for i in range(n):
            net.send(0, 1, i, 64)
        sim.run_until_complete(proc)

    return _ns_per_op(run, n)


def broker_hop(n=2000):
    """One request/response across a 2-broker session: ns per RPC.
    The KVS is loaded at the root only, so ``kvs.getversion`` from
    rank 1 is routed up one hop and answered there."""
    from repro import CommsSession, KvsModule, ModuleSpec, make_cluster

    def run():
        cluster = make_cluster(2, seed=1)
        session = CommsSession(
            cluster, modules=[ModuleSpec(KvsModule, max_depth=0)]).start()
        handle = session.connect(1, collective=False)

        def client():
            for _ in range(n):
                yield handle.rpc("kvs.getversion")

        cluster.sim.run_until_complete(cluster.sim.spawn(client()))
        session.stop()

    return _ns_per_op(run, n)


def _dir_object(tag):
    """A 128-entry directory object, as the Fig. 4b layout stores."""
    from repro.kvs.store import make_dir_obj
    return make_dir_obj({f"o{tag}-{i}": f"{i:040x}" for i in range(128)})


def jsonutil_costs(n=200):
    """``canonical_size`` / ``digest_and_size`` per KB of a 128-entry
    directory object, on fresh objects and on interned ones."""
    from repro import jsonutil
    objs = [_dir_object(i) for i in range(n)]
    kb = sum(len(jsonutil.canonical_dumps(o)) for o in objs) / 1024.0

    def sizes():
        for o in objs:
            jsonutil.canonical_size(o)

    def digests():
        for o in objs:
            jsonutil.digest_and_size(o)

    out = {"jsonutil.size_ns_per_kb": _ns_per_op(sizes, kb),
           "jsonutil.digest_ns_per_kb": _ns_per_op(digests, kb)}
    for o in objs:
        sha, size = jsonutil.digest_and_size(o)
        jsonutil.intern_fragment(o, size, sha=sha)
    out["jsonutil.size_interned_ns_per_kb"] = _ns_per_op(sizes, kb)
    out["jsonutil.digest_interned_ns_per_kb"] = _ns_per_op(digests, kb)
    jsonutil.clear_intern_table()
    return out


def store_put_obj(n=5000):
    """``ObjectStore.put_obj`` of distinct 64-byte values: ns per put."""
    from repro.kvs.store import ObjectStore, make_val_obj
    objs = [make_val_obj(f"u{i}-" + "x" * 58) for i in range(n)]

    def run():
        store = ObjectStore()
        for o in objs:
            store.put_obj(o)

    return _ns_per_op(run, n)


def hashtree_apply_updates(n=4096):
    """``apply_updates`` of one fence-sized batch into 128-entry
    directories: ns per key."""
    from repro.kvs.hashtree import apply_updates
    from repro.kvs.store import EMPTY_DIR_SHA, ObjectStore
    ops = [(f"kap.d{i // 128}.o{i}", f"{i:040x}") for i in range(n)]

    def run():
        apply_updates(ObjectStore(), EMPTY_DIR_SHA, ops)

    return _ns_per_op(run, n)


def run_all():
    """The ``micro`` block: ``{name: ns}``."""
    out = {
        "sim.kernel.pingpong_ns": kernel_pingpong(),
        "sim.network.send_ns": network_send(),
        "cmb.broker.hop_ns": broker_hop(),
        "kvs.store.put_obj_ns": store_put_obj(),
        "kvs.hashtree.apply_updates_ns_per_key": hashtree_apply_updates(),
    }
    out.update(jsonutil_costs())
    return out
