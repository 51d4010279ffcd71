"""Integration tests for broker routing, sessions, and client handles."""

import pytest

from repro.cmb.api import RpcError
from repro.cmb.message import Message
from repro.cmb.module import CommsModule
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology, flat_topology
from repro.sim.cluster import make_cluster


class EchoModule(CommsModule):
    """Test module: echoes payloads back, annotated with its rank."""

    name = "echo"

    def req_ping(self, msg: Message) -> None:
        self.respond(msg, {"pong": msg.payload.get("data"),
                           "served_by": self.rank})

    def req_boom(self, msg: Message) -> None:
        self.respond(msg, error="exploded")


class CountingModule(CommsModule):
    """Counts events it observes."""

    name = "counter"

    def __init__(self, broker):
        super().__init__(broker)
        self.seen = []

    def start(self):
        self.broker.subscribe("tick", lambda m: self.seen.append(
            m.payload["n"]))


def make_session(n=8, arity=2, modules=(), node_ids=None):
    cluster = make_cluster(n if node_ids is None else max(node_ids) + 1,
                           seed=1)
    size = n if node_ids is None else len(node_ids)
    session = CommsSession(cluster, node_ids=node_ids,
                           topology=TreeTopology(size, arity=arity),
                           modules=list(modules)).start()
    return cluster, session


def run_client(cluster, session, rank, fn):
    """Run generator fn(handle) as a simulated client process."""
    handle = session.connect(rank, collective=False)
    proc = cluster.sim.spawn(fn(handle))
    return cluster.sim.run_until_complete(proc)


class TestRpcRouting:
    def test_local_module_serves_request(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            resp = yield h.rpc("echo.ping", {"data": 42})
            return resp

        resp = run_client(cluster, session, 5, client)
        assert resp == {"pong": 42, "served_by": 5}

    def test_request_routes_upstream_to_first_match(self):
        # Module only at the root: leaf requests climb the tree.
        cluster, session = make_session(
            modules=[ModuleSpec(EchoModule, max_depth=0)])

        def client(h):
            resp = yield h.rpc("echo.ping", {"data": "up"})
            return resp

        resp = run_client(cluster, session, 7, client)
        assert resp["served_by"] == 0

    def test_depth_limited_loading(self):
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(EchoModule, max_depth=1)])
        # Rank 7 (depth 3) routes up; ranks 1-2 (depth 1) serve locally.
        assert "echo" not in session.brokers[7].modules
        assert "echo" in session.brokers[1].modules

        def client(h):
            return (yield h.rpc("echo.ping", {}))

        assert run_client(cluster, session, 7, client)["served_by"] == 1

    def test_unknown_module_gets_error_at_root(self):
        cluster, session = make_session(modules=[])

        def client(h):
            try:
                yield h.rpc("nosuch.thing", {})
            except RpcError as exc:
                return str(exc)

        msg = run_client(cluster, session, 3, client)
        assert "no module matches" in msg

    def test_module_error_response_raises_rpcerror(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            with pytest.raises(RpcError, match="exploded"):
                yield h.rpc("echo.boom", {})
            return "ok"

        assert run_client(cluster, session, 2, client) == "ok"

    def test_missing_handler_is_error(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            with pytest.raises(RpcError, match="no handler"):
                yield h.rpc("echo.nothing", {})
            return "ok"

        assert run_client(cluster, session, 2, client) == "ok"

    def test_rpc_latency_grows_with_depth(self):
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(EchoModule, max_depth=0)])
        sim = cluster.sim
        times = {}

        def client_at(rank):
            def client(h):
                t0 = sim.now
                yield h.rpc("echo.ping", {})
                times[rank] = sim.now - t0
            return client

        for rank in (1, 7):
            run_client(cluster, session, rank, client_at(rank))
        assert times[7] > times[1]  # depth 3 vs depth 1


class TestEvents:
    def test_event_reaches_all_brokers(self):
        cluster, session = make_session(
            modules=[ModuleSpec(CountingModule)])
        session.brokers[5].publish("tick", {"n": 1})
        cluster.sim.run()
        for rank in range(8):
            mod = session.module_at(rank, "counter")
            assert mod.seen == [1], f"rank {rank} missed the event"

    def test_events_totally_ordered(self):
        cluster, session = make_session(
            modules=[ModuleSpec(CountingModule)])
        # Publish from two different ranks back to back.
        session.brokers[3].publish("tick", {"n": 1})
        session.brokers[6].publish("tick", {"n": 2})
        session.brokers[0].publish("tick", {"n": 3})
        cluster.sim.run()
        orders = {tuple(session.module_at(r, "counter").seen)
                  for r in range(8)}
        assert len(orders) == 1  # same total order everywhere

    def test_client_subscribe_and_wait_event(self):
        cluster, session = make_session()

        def client(h):
            ev = h.wait_event("custom.")
            h.publish("custom.thing", {"v": 9})
            msg = yield ev
            return msg.payload

        assert run_client(cluster, session, 4, client) == {"v": 9}

    def test_unsubscribed_topic_not_delivered(self):
        cluster, session = make_session(
            modules=[ModuleSpec(CountingModule)])
        session.brokers[0].publish("other.topic", {"n": 99})
        cluster.sim.run()
        assert session.module_at(3, "counter").seen == []


class TestRing:
    def test_rank_addressed_rpc(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            resp = yield h.rpc_rank(6, "echo.ping", {"data": "ring"})
            return resp

        resp = run_client(cluster, session, 2, client)
        assert resp == {"pong": "ring", "served_by": 6}

    def test_ring_to_self(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            return (yield h.rpc_rank(2, "echo.ping", {}))

        assert run_client(cluster, session, 2, client)["served_by"] == 2

    def test_ring_rpc_always_pays_the_full_loop(self):
        # On a unidirectional ring the request travels d hops and the
        # response size-d hops, so every rank-addressed RPC costs one
        # full loop — the "high latency of a ring" the paper accepts
        # for debugging tools.
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])
        sim = cluster.sim
        times = {}

        def client_to(dst):
            def client(h):
                t0 = sim.now
                yield h.rpc_rank(dst, "echo.ping", {})
                times[dst] = sim.now - t0
            return client

        run_client(cluster, session, 0, client_to(1))
        run_client(cluster, session, 0, client_to(7))
        assert times[7] == pytest.approx(times[1], rel=0.05)

    def test_ring_slower_than_local_module(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])
        sim = cluster.sim
        spans = {}

        def client(h):
            t0 = sim.now
            yield h.rpc("echo.ping", {})  # served on the local broker
            spans["local"] = sim.now - t0
            t0 = sim.now
            yield h.rpc_rank(5, "echo.ping", {})
            spans["ring"] = sim.now - t0

        run_client(cluster, session, 2, client)
        assert spans["ring"] > 3 * spans["local"]


class TestSessionShape:
    def test_session_over_node_subset(self):
        # Session ranks map onto arbitrary cluster nodes.
        cluster, session = make_session(
            n=4, node_ids=[2, 5, 7, 9],
            modules=[ModuleSpec(EchoModule, max_depth=0)])
        assert session.node_of_rank(0) == 2
        assert session.node_of_rank(3) == 9

        def client(h):
            return (yield h.rpc("echo.ping", {}))

        assert run_client(cluster, session, 3, client)["served_by"] == 0

    def test_topology_size_mismatch_rejected(self):
        cluster = make_cluster(4)
        with pytest.raises(ValueError):
            CommsSession(cluster, topology=TreeTopology(8))

    def test_flat_topology_session(self):
        cluster, session = make_session(
            n=6, arity=5, modules=[ModuleSpec(EchoModule, max_depth=0)])
        assert session.brokers[0].children == [1, 2, 3, 4, 5]

    def test_duplicate_module_rejected(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])
        with pytest.raises(ValueError):
            session.load_module(ModuleSpec(EchoModule))

    def test_subtree_procs_tracks_connects(self):
        cluster, session = make_session(n=7)
        session.connect(3)
        session.connect(3)
        session.connect(1)
        assert session.subtree_procs(3) == 2
        assert session.subtree_procs(1) == 3  # 1 + subtree {3, 4}
        assert session.subtree_procs(0) == 3
        assert session.total_procs == 3

    def test_disconnect_updates_counts(self):
        cluster, session = make_session(n=3)
        h = session.connect(2)
        assert session.subtree_procs(0) == 1
        h.close()
        assert session.subtree_procs(0) == 0

    @staticmethod
    def _counts(session, rank):
        return (session.local_procs[rank], session.subtree_procs(rank),
                session.subtree_procs(0), session.brokers[rank].clients)

    def test_closing_a_tool_handle_unregisters_nothing(self):
        cluster, session = make_session(n=3)
        session.connect(1)
        tool = session.connect(1, collective=False)
        tool.close()
        assert self._counts(session, 1) == (1, 1, 1, 1)

    def test_closing_a_handle_twice_unregisters_it_once(self):
        cluster, session = make_session(n=3)
        session.connect(1)
        h = session.connect(1)
        h.close()
        h.close()
        assert self._counts(session, 1) == (1, 1, 1, 1)


class TestSelfHealWiring:
    def test_handle_peer_down_reparents_orphans(self):
        cluster, session = make_session(n=15)
        session.fail_rank(1)
        session.heal_around(1)
        assert session.brokers[3].parent == 0
        assert session.brokers[4].parent == 0
        assert 1 not in session.brokers[0].children
        assert 3 in session.brokers[0].children
        assert 4 in session.brokers[0].children

    def test_rpc_works_after_heal(self):
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(EchoModule, max_depth=0)])
        session.fail_rank(1)
        session.heal_around(1)

        def client(h):
            return (yield h.rpc("echo.ping", {"data": 5}))

        # Rank 7 previously routed through 3 -> 1 -> 0; now 3 -> 0.
        resp = run_client(cluster, session, 7, client)
        assert resp == {"pong": 5, "served_by": 0}

    def test_events_flood_around_dead_node(self):
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(CountingModule)])
        session.fail_rank(1)
        session.heal_around(1)
        session.brokers[0].publish("tick", {"n": 1})
        cluster.sim.run()
        for rank in [0, 2, 3, 4, 7, 8, 9, 10]:
            assert session.module_at(rank, "counter").seen == [1]
