"""Tests for the unified RPC service layer: request contexts, structured
errnum-coded errors, the upstream-proxy helper, and per-module message
counters."""

import pytest

from repro import standard_session
from repro.cmb.errors import (EINVAL, ENOENT, ENOSYS, EPROTO, ERROR_CODES,
                              ETIMEDOUT, RpcError)
from repro.cmb.message import Message, MessageType, RequestContext
from repro.cmb.module import CommsModule, request_handler
from repro.cmb.modules.jobmgr import JobManagerModule
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kvs.module import KvsModule
from repro.sim.cluster import make_cluster


class EchoModule(CommsModule):
    name = "echo"

    def req_ping(self, msg):
        self.respond(msg, {"pong": msg.payload.get("data"),
                           "served_by": self.rank})

    @request_handler(required=("a", "b"))
    def req_add(self, msg):
        self.respond(msg, {"sum": msg.payload["a"] + msg.payload["b"]})

    def req_boom(self, msg):
        self.respond(msg, error="exploded")


def make_session(n=8, arity=2, modules=()):
    cluster = make_cluster(n, seed=1)
    session = CommsSession(cluster, topology=TreeTopology(n, arity=arity),
                           modules=list(modules)).start()
    return cluster, session


def run_client(cluster, session, rank, fn):
    handle = session.connect(rank, collective=False)
    proc = cluster.sim.spawn(fn(handle))
    return cluster.sim.run_until_complete(proc)


class TestRequestContext:
    def test_ensure_context_is_idempotent(self):
        msg = Message(topic="a.b", mtype=MessageType.REQUEST, msgid=7)
        msg.ensure_context(origin_rank=3, deadline=1.5)
        ctx = msg.ctx
        assert ctx == RequestContext(reqid=7, origin_rank=3, deadline=1.5)
        msg.ensure_context(origin_rank=9)   # already set: unchanged
        assert msg.ctx is ctx

    def test_expired_is_strict(self):
        ctx = RequestContext(reqid=1, deadline=2.0)
        assert not ctx.expired(2.0)
        assert ctx.expired(2.0000001)
        assert not RequestContext(reqid=1).expired(1e9)

    def test_context_rides_the_header_frame(self):
        # The context must not change the payload frame, so simulated
        # wire sizes (and all benchmark latencies) stay identical.
        bare = Message(topic="kvs.put", mtype=MessageType.REQUEST,
                       payload={"key": "a", "value": 1})
        ctxed = Message(topic="kvs.put", mtype=MessageType.REQUEST,
                        payload={"key": "a", "value": 1})
        ctxed.ensure_context(origin_rank=5, deadline=9.0)
        assert ctxed.size() == bare.size()

    def test_response_inherits_context_and_error_code(self):
        msg = Message(topic="x.y", mtype=MessageType.REQUEST, msgid=11)
        msg.ensure_context(origin_rank=2)
        resp = msg.make_response(error="nope", err_rank=4)
        assert resp.ctx is msg.ctx
        assert resp.errnum == EPROTO       # default code for coded errors
        assert resp.err_rank == 4
        ok = msg.make_response(payload={"fine": 1})
        assert ok.errnum is None and ok.err_rank == -1


class TestStructuredErrors:
    def test_rpc_error_defaults(self):
        exc = RpcError("t.m", "broken")
        assert exc.code == EPROTO and exc.rank == -1
        assert EPROTO in ERROR_CODES

    def test_module_error_carries_code_and_rank(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            try:
                yield h.rpc("echo.boom", {})
            except RpcError as exc:
                return exc

        exc = run_client(cluster, session, 2, client)
        assert exc.code == EPROTO           # un-coded respond() defaults
        assert exc.rank == 2                # the responding broker

    def test_multihop_enosys_records_failing_rank(self):
        # Module loaded at depth <= 1 only; rank 7 (depth 3) routes
        # 7 -> 3 -> 1.  Rank 3 has no module so forwards; rank 1 has the
        # module but no handler -> ENOSYS recorded *at rank 1* and
        # carried losslessly back through the relay hops.
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(EchoModule, max_depth=1)])

        def client(h):
            try:
                yield h.rpc("echo.nothing", {})
            except RpcError as exc:
                return exc

        exc = run_client(cluster, session, 7, client)
        assert "no handler" in exc.error
        assert exc.code == ENOSYS
        assert exc.rank == 1

    def test_unmatched_topic_is_enosys_at_root(self):
        cluster, session = make_session(modules=[])

        def client(h):
            try:
                yield h.rpc("nosuch.thing", {})
            except RpcError as exc:
                return exc

        exc = run_client(cluster, session, 3, client)
        assert "no module matches" in exc.error
        assert exc.code == ENOSYS and exc.rank == 0

    def test_proxy_upstream_propagates_code_and_rank(self):
        # job.info proxies hop by hop to the root, where the unknown
        # jobid produces ENOENT; the proxy relays must not launder the
        # code or the failing rank.
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(JobManagerModule)])

        def client(h):
            try:
                yield h.rpc("job.info", {"jobid": 999})
            except RpcError as exc:
                return exc

        exc = run_client(cluster, session, 7, client)
        assert "unknown job" in exc.error
        assert exc.code == ENOENT and exc.rank == 0

    def test_kvs_missing_key_is_enoent(self):
        cluster, session = make_session(modules=[ModuleSpec(KvsModule)])

        def client(h):
            from repro.kvs.api import KvsClient
            kvs = KvsClient(h)
            try:
                yield kvs.get("absent.key")
            except RpcError as exc:
                return exc

        exc = run_client(cluster, session, 5, client)
        assert exc.code == ENOENT


class TestHandlerRegistry:
    def test_handlers_discovered_with_requirements(self):
        specs = EchoModule.handlers()
        assert specs["ping"] == ()
        assert specs["add"] == ("a", "b")

    def test_missing_required_field_is_einval(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            try:
                yield h.rpc("echo.add", {"a": 1})
            except RpcError as exc:
                return exc

        exc = run_client(cluster, session, 4, client)
        assert exc.code == EINVAL
        assert "missing required payload field" in exc.error
        assert exc.error.endswith("b")

    def test_valid_request_passes_validation(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            return (yield h.rpc("echo.add", {"a": 2, "b": 3}))

        assert run_client(cluster, session, 4, client) == {"sum": 5}


#: Payloads whose *type* is wrong (or that name an object nobody sent).
#: Each one used to raise out of ``sim.run()`` from the broker main loop
#: (AttributeError / TypeError / ValueError / KeyError) instead of being
#: answered.
MALFORMED = [
    ("kvs.get", {"key": 5}), ("kvs.get", {"key": None}),
    ("kvs.get", {"key": ["a"]}),
    ("kvs.put", {"key": 5, "value": 1}),
    ("kvs.put", {"key": "a", "value": 1, "sender": [1]}),
    ("kvs.unlink", {"key": 5}),
    ("kvs.commit", {"sender": [1]}),
    ("kvs.fence", {"name": "f", "nprocs": "2"}),
    ("kvs.fence", {"name": "f", "nprocs": 2, "sender": {}}),
    ("kvs.waitversion", {"version": "x"}),
    ("kvs.waitversion", {"version": None}),
    ("kvs.load", {"shas": [1]}),
    ("kvs.flush", {"ops": "x", "objs": {}}),
    ("kvs.flush", {"ops": [], "objs": []}),
    ("kvs.flush", {"ops": [["k", "0" * 40]], "objs": {}}),
    ("kvs.fencedata", {"name": "f", "nprocs": 2, "shares": {"1": [1, 5]},
                       "objs": {}}),
    ("kvs.fencedata", {"name": "f", "nprocs": 2, "shares": {"x": [1, []]},
                       "objs": {}, "gen": "x"}),
    ("kvs.fencedata", {"name": "f", "nprocs": 2, "shares": 5, "objs": {}}),
    ("kvs.delegate", {"pfx": "job", "rank": "1"}),
    ("kvs.recall", {"pfx": ["job"]}),
    ("barrier.enter", {"name": "b", "nprocs": "x"}),
    ("barrier.enter", {"name": "b", "nprocs": 2, "count": "x"}),
    ("health.activate", {"thresholds": 5}),
    # Right type, impossible value: a barrier of nobody used to complete
    # at once, and a negative tally was acknowledged and subtracted.
    ("barrier.enter", {"name": "b", "nprocs": 0}),
    ("barrier.enter", {"name": "b", "nprocs": 2, "count": -5}),
]


@pytest.mark.parametrize("rank", [0, 5])
@pytest.mark.parametrize("topic,payload", MALFORMED,
                         ids=[f"{t}-{i}" for i, (t, _p) in enumerate(MALFORMED)])
def test_malformed_payload_type_is_answered_einval(topic, payload, rank):
    """The registry checks declared field types, handlers check their
    optional fields, and the master refuses a commit naming an unknown
    object: each is an ``EINVAL`` answer naming the problem, at the
    master rank and through a slave alike, and the session lives on."""
    cluster = make_cluster(7, seed=1)
    session = standard_session(cluster).start()

    def client(h):
        try:
            yield h.rpc(topic, payload, timeout=0.5)
        except RpcError as exc:
            err = exc
        else:
            return None
        # Still serving afterwards.
        yield h.rpc("kvs.put", {"key": "ok", "value": 1})
        yield h.rpc("kvs.commit", {})
        assert (yield h.rpc("kvs.get", {"key": "ok"})) == {"value": 1}
        return err

    exc = run_client(cluster, session, rank, client)
    assert exc is not None and exc.code == EINVAL
    assert (any(f"'{f}'" in exc.error for f in payload)    # names the field
            or "unknown object" in exc.error), exc.error


def test_fence_completed_with_an_unknown_object_fails_its_waiters():
    """A contribution naming an object nobody sent is only found out when
    the master commits the completed fence: the commit is refused and the
    fence requests held at the master rank are told, instead of the
    ``KeyError`` escaping ``sim.run()``."""
    cluster = make_cluster(7, seed=1)
    session = standard_session(cluster).start()

    def client(h):
        before = yield h.rpc("kvs.getversion", {})
        held = h.rpc("kvs.fence", {"name": "f", "nprocs": 2}, timeout=0.5)
        yield h.rpc("kvs.fencedata", {"name": "f", "nprocs": 2, "shares": {
            "5": [1, [["k", "0" * 40]]]}, "objs": {}})
        try:
            yield held
        except RpcError as exc:
            return exc, before, (yield h.rpc("kvs.getversion", {}))

    exc, before, after = run_client(cluster, session, 0, client)
    assert exc.code == EINVAL and "unknown object" in exc.error
    assert after == before


class TestDeadlines:
    def _expire_mid_tree(self):
        # Module at the root only; a request from rank 7 must climb
        # 7 -> 3 -> 1 -> 0.  A deadline in the past at the first forward
        # hop is dropped there with ETIMEDOUT instead of travelling on.
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(EchoModule, max_depth=0)])

        def client(h):
            try:
                yield h.rpc("echo.ping", {}, deadline=h.sim.now + 1e-9)
            except RpcError as exc:
                return exc

        return run_client(cluster, session, 7, client)

    def test_deadline_expiry_mid_tree_is_etimedout(self):
        exc = self._expire_mid_tree()
        assert exc.code == ETIMEDOUT
        assert "deadline expired in transit" in exc.error
        assert exc.rank in (7, 3, 1)      # dropped before reaching root

    def test_deadline_expiry_is_deterministic(self):
        a = self._expire_mid_tree()
        b = self._expire_mid_tree()
        assert (a.rank, a.error) == (b.rank, b.error)

    def test_generous_deadline_still_served(self):
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(EchoModule, max_depth=0)])

        def client(h):
            return (yield h.rpc("echo.ping", {"data": 1}, deadline=1.0))

        assert run_client(cluster, session, 7, client)["served_by"] == 0

    def test_client_timeout_is_etimedout(self):
        # Client-side timer (no module will ever answer nosuch topics on
        # a dead-silent deadline); code is ETIMEDOUT at the client rank.
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(EchoModule, max_depth=0)])
        session.fail_rank(1)   # request dies at the dead interior node

        def client(h):
            try:
                yield h.rpc("echo.ping", {}, timeout=0.05)
            except RpcError as exc:
                return exc

        exc = run_client(cluster, session, 7, client)
        assert exc.code == ETIMEDOUT
        assert "timeout after" in exc.error


class TestMessageCounters:
    def test_counts_requests_responses_and_errors(self):
        cluster, session = make_session(
            n=15, modules=[ModuleSpec(EchoModule, max_depth=0)])

        def client(h):
            yield h.rpc("echo.ping", {})
            try:
                yield h.rpc("echo.boom", {})
            except RpcError:
                pass

        run_client(cluster, session, 7, client)
        counts = session.message_counts()
        by_kind = {}
        for (mod, plane, kind), n in counts.items():
            assert mod == "echo"
            by_kind[kind] = by_kind.get(kind, 0) + n
        # Two requests climbed 3 tree hops each (+ ipc + local dispatch);
        # one response and one error retraced them.
        assert by_kind["request"] >= 2
        assert by_kind["response"] >= 1
        assert by_kind["error"] >= 1

    def test_message_counts_survive_stop(self):
        cluster, session = make_session(modules=[ModuleSpec(EchoModule)])

        def client(h):
            yield h.rpc("echo.ping", {})

        run_client(cluster, session, 3, client)
        session.stop()
        counts = session.message_counts()
        assert any(mod == "echo" and kind == "request"
                   for mod, _plane, kind in counts)
        assert all(isinstance(v, int) and v > 0 for v in counts.values())
