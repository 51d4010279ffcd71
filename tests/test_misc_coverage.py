"""Coverage for remaining corners: ring routing around failures,
channel semantics under cancellation, PMI misuse, reads and unlinks at a
delegated owner, and jsonutil details."""

import pytest

from repro import ModuleSpec, make_cluster, standard_session
from repro.cmb.api import RpcError
from repro.cmb.message import Message
from repro.cmb.module import CommsModule
from repro.cmb.session import CommsSession
from repro.cmb.topology import TreeTopology
from repro.jsonutil import canonical_dumps, sha1_of
from repro.kvs import KvsClient, KvsModule
from repro.sim.cluster import make_cluster as mk


class EchoModule(CommsModule):
    name = "echo"

    def req_ping(self, msg: Message) -> None:
        self.respond(msg, {"rank": self.rank})


def run(cluster, gen):
    proc = cluster.sim.spawn(gen)
    return cluster.sim.run_until_complete(proc)


class TestJsonUtilCorners:
    def test_unicode_sizes_are_byte_counts(self):
        # 'é' is two UTF-8 bytes.
        assert len(canonical_dumps({"k": "é"})) == len(b'{"k":"\xc3\xa9"}')

    def test_nested_key_sorting_recursive(self):
        a = canonical_dumps({"z": {"b": 1, "a": 2}, "a": 0})
        b = canonical_dumps({"a": 0, "z": {"a": 2, "b": 1}})
        assert a == b

    def test_sha1_of_list_vs_tuple_payloads(self):
        # JSON has no tuples; lists define identity.
        assert sha1_of([1, 2]) == sha1_of([1, 2])
        assert sha1_of([1, 2]) != sha1_of([2, 1])

    def test_numbers_formatting_stable(self):
        assert canonical_dumps(1.5) == b"1.5"
        assert canonical_dumps(10) == b"10"


class TestRingRobustness:
    def test_ring_rpc_through_many_hops(self):
        cluster = mk(16, seed=91)
        session = CommsSession(cluster, topology=TreeTopology(16),
                               modules=[ModuleSpec(EchoModule)]).start()

        def client():
            out = []
            h = session.connect(0, collective=False)
            for dst in (1, 8, 15):
                resp = yield h.rpc_rank(dst, "echo.ping", {})
                out.append(resp["rank"])
            return out

        assert run(cluster, client()) == [1, 8, 15]

    def test_concurrent_ring_rpcs_interleave(self):
        cluster = mk(8, seed=92)
        session = CommsSession(cluster, topology=TreeTopology(8),
                               modules=[ModuleSpec(EchoModule)]).start()

        def client():
            h = session.connect(3, collective=False)
            evs = [h.rpc_rank(d, "echo.ping", {}) for d in range(8)]
            results = yield cluster.sim.all_of(evs)
            return [r["rank"] for r in results]

        assert run(cluster, client()) == list(range(8))


class TestChannelCancellation:
    def test_abandoned_getter_skipped(self):
        from repro.sim import Simulation
        sim = Simulation(seed=0)
        ch = sim.channel()
        # First getter abandoned before any put: the item must go to
        # the second getter, not vanish.
        g1 = ch.get()
        g2 = ch.get()
        g1.succeed("cancelled-elsewhere")  # simulates a raced waiter
        ch.put("item")
        sim.run()
        assert g2.value == "item"


class TestPmiMisuse:
    def test_get_before_fence_fails_cleanly(self):
        from repro.cmb.pmi import PmiClient
        cluster = make_cluster(2, seed=93)
        session = standard_session(cluster).start()

        def rank0():
            pmi = PmiClient(session.connect(0), "mj", 0, 2)
            yield pmi.put("card.0", "mine")
            # Peer's card not fenced in yet: get must error, not hang.
            with pytest.raises(RpcError):
                yield pmi.get("card.1")
            return "ok"

        assert run(cluster, rank0()) == "ok"


class TestDelegatedDirsAndRefs:
    """Directory listings, reference reads and unlinks of keys whose
    master is an interior owner (rank 5), issued from other ranks."""

    def _session(self, pfx):
        cluster = mk(8, seed=94)
        session = CommsSession(cluster, topology=TreeTopology(8),
                               modules=[ModuleSpec(KvsModule)]).start()
        cluster.sim.run_until_complete(
            KvsClient(session.connect(0)).delegate(pfx, 5))
        return cluster, session

    def test_get_dir_routes_to_owner(self):
        cluster, session = self._session("ns")

        def flow():
            kvs = KvsClient(session.connect(3))
            yield kvs.put("ns.a", 1)
            yield kvs.put("ns.b", 2)
            yield kvs.commit()
            return (yield kvs.get_dir("ns"))

        assert run(cluster, flow()) == ["a", "b"]

    def test_get_ref_roundtrip(self):
        cluster, session = self._session("refs")

        def flow():
            kvs = KvsClient(session.connect(6))
            yield kvs.put("refs.x", "val")
            yield kvs.commit()
            r = yield kvs.get_ref("refs.x")
            return r["ref"]

        assert len(run(cluster, flow())) == 40

    def test_unlink_at_owner(self):
        cluster, session = self._session("dead")

        def flow():
            kvs = KvsClient(session.connect(2))
            yield kvs.put("dead.key", 1)
            yield kvs.commit()
            yield kvs.unlink("dead.key")
            yield kvs.commit()
            with pytest.raises(RpcError, match="key 'dead.key' not found"):
                yield kvs.get("dead.key")
            return "ok"

        assert run(cluster, flow()) == "ok"
        assert session.module_at(5, "kvs").delegates["dead"].version >= 2


class TestRemovedOptions:
    def test_are_type_errors(self):
        """One KVS module named ``kvs`` with its master at rank 0, and no
        ``sim.trace.Tracer``: the options that said otherwise are gone,
        not ignored."""
        cluster = mk(4, seed=95)
        session = CommsSession(cluster, topology=TreeTopology(4))
        broker = session.brokers[0]
        for make in (lambda: KvsModule(broker, name="x"),
                     lambda: KvsModule(broker, master_rank=1),
                     lambda: KvsClient(session.connect(0), module="kvs0"),
                     lambda: CommsSession(cluster, tracer=object())):
            with pytest.raises(TypeError):
                make()


class TestStandardSessionShape:
    def test_all_table1_modules_present(self):
        cluster = make_cluster(4, seed=95)
        session = standard_session(cluster, with_heartbeat=True,
                                   hb_max_epochs=1).start()
        mods = set(session.brokers[0].modules)
        assert {"kvs", "barrier", "log", "group", "resvc", "wexec",
                "mon", "hb", "live"} <= mods

    def test_heartbeat_off_by_default(self):
        cluster = make_cluster(2, seed=95)
        session = standard_session(cluster).start()
        assert "hb" not in session.brokers[0].modules
        cluster.sim.run()  # drains: no recurring timers
        assert cluster.sim.now < 1.0


class TestRpcTimeout:
    def test_lost_response_times_out(self):
        cluster = mk(15, seed=96)
        session = CommsSession(
            cluster, topology=TreeTopology(15),
            modules=[ModuleSpec(EchoModule, max_depth=0)]).start()

        def client():
            h = session.connect(14, collective=False)
            # Kill an interior node on the upstream path (14 -> 6 ->
            # 2 -> 0): the request dies en route, no response comes.
            session.fail_rank(2)
            with pytest.raises(RpcError, match="timeout"):
                yield h.rpc("echo.ping", {}, timeout=0.05)
            return cluster.sim.now

        t = run(cluster, client())
        assert t == pytest.approx(0.05, abs=0.01)

    def test_timeout_does_not_fire_on_success(self):
        cluster = mk(4, seed=97)
        session = CommsSession(cluster, topology=TreeTopology(4),
                               modules=[ModuleSpec(KvsModule)]).start()

        def client():
            h = session.connect(3, collective=False)
            resp = yield h.rpc("kvs.getversion", {}, timeout=5.0)
            return resp["version"]

        assert run(cluster, client()) == 0
        cluster.sim.run()
        # The armed timer was abandoned: the clock never reached 5 s.
        assert cluster.sim.now < 1.0

    def test_stale_response_after_timeout_is_dropped(self):
        cluster = mk(2, seed=98)
        session = CommsSession(cluster, topology=TreeTopology(2),
                               modules=[ModuleSpec(KvsModule)]).start()

        def client():
            h = session.connect(1, collective=False)
            # Absurdly short timeout: expires before the response's IPC
            # hop completes; the late response must not blow up.
            with pytest.raises(RpcError, match="timeout"):
                yield h.rpc("kvs.getversion", {}, timeout=1e-7)
            yield cluster.sim.timeout(0.01)
            # Handle still usable afterwards.
            resp = yield h.rpc("kvs.getversion", {})
            return resp["version"]

        assert run(cluster, client()) == 0
