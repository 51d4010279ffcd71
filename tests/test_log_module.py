"""LogModule: hierarchical log reduction (Table I ``log``).

Covers the three behaviours the module docstring promises: severity
filtering at the forwarding boundary, batch-windowed upstream
reduction (one message per window, not per record), and the
fault-triggered circular-buffer dump that lands full debug context in
the root sink.
"""

from repro import make_cluster
from repro.cmb import CommsSession, ModuleSpec, TreeTopology
from repro.cmb.modules import LogModule
from repro.cmb.modules.log import LEVELS


def make_session(n=7):
    cluster = make_cluster(n)
    session = CommsSession(
        cluster, topology=TreeTopology(n),
        modules=[ModuleSpec(LogModule)]).start()
    return cluster, session


def log_mod(session, rank):
    return session.module_at(rank, "log")


class TestForwardLevelFiltering:
    def test_below_threshold_stays_local(self):
        cluster, session = make_session()
        leaf = log_mod(session, 5)
        leaf.append("debug", "noisy detail")
        leaf.append("debug", "routine")
        cluster.sim.run()
        root = log_mod(session, 0)
        assert root.sink == []
        # ... but both stay available in the local circular buffer.
        assert [r["text"] for r in leaf.circular] == \
            ["noisy detail", "routine"]

    def test_at_and_above_threshold_reach_root(self):
        cluster, session = make_session()
        leaf = log_mod(session, 5)
        leaf.append("info", "at threshold")
        leaf.append("crit", "above threshold")
        cluster.sim.run()
        texts = [r["text"] for r in log_mod(session, 0).sink]
        assert texts == ["at threshold", "above threshold"]
        # Origin metadata survives the relay hops.
        assert all(r["rank"] == 5 for r in log_mod(session, 0).sink)

    def test_root_records_skip_the_wire(self):
        cluster, session = make_session()
        log_mod(session, 0).append("err", "root-local")
        assert [r["text"] for r in log_mod(session, 0).sink] == \
            ["root-local"]
        assert cluster.sim.event_count == 0  # no forwarding happened

    def test_levels_total_order(self):
        assert (LEVELS["debug"] < LEVELS["info"] < LEVELS["warn"]
                < LEVELS["err"] < LEVELS["crit"])


class TestBatchWindowing:
    def count_log_requests(self, session):
        # Tree-plane sends only: each request is also tallied again as
        # a plane="local" dispatch at the receiving broker.
        return sum(v for b in session.brokers
                   for (mod, plane, kind), v in b.msg_counts.items()
                   if mod == "log" and kind == "request"
                   and plane == "tree")

    def test_burst_coalesces_into_one_message_per_hop(self):
        cluster, session = make_session(n=3)
        leaf = log_mod(session, 1)  # child of root on the binary tree
        for i in range(10):
            leaf.append("err", f"burst {i}")
        cluster.sim.run()
        sink = log_mod(session, 0).sink
        assert [r["text"] for r in sink] == [f"burst {i}"
                                             for i in range(10)]
        # The reduction: ten records, one log.append request.
        assert self.count_log_requests(session) == 1

    def test_records_after_window_start_ride_same_flush(self):
        cluster, session = make_session(n=3)
        sim = cluster.sim
        leaf = log_mod(session, 1)

        def emitter():
            leaf.append("err", "first")
            yield sim.timeout(5e-4)  # inside the open window
            leaf.append("err", "second")

        sim.spawn(emitter())
        sim.run()
        assert [r["text"] for r in log_mod(session, 0).sink] == \
            ["first", "second"]
        assert self.count_log_requests(session) == 1

    def test_separate_windows_flush_separately(self):
        cluster, session = make_session(n=3)
        sim = cluster.sim
        leaf = log_mod(session, 1)

        def emitter():
            leaf.append("err", "first")
            yield sim.timeout(0.05)  # well past the first flush
            leaf.append("err", "second")

        sim.spawn(emitter())
        sim.run()
        assert [r["text"] for r in log_mod(session, 0).sink] == \
            ["first", "second"]
        assert self.count_log_requests(session) == 2

    def test_multi_hop_rebatching(self):
        # Records from a grandchild are re-batched at the middle hop:
        # the root still sees every record exactly once, in order.
        cluster, session = make_session(n=7)
        grandchild = log_mod(session, 3)  # 3 -> 1 -> 0 on the binary tree
        for i in range(4):
            grandchild.append("err", f"deep {i}")
        cluster.sim.run()
        assert [r["text"] for r in log_mod(session, 0).sink] == \
            [f"deep {i}" for i in range(4)]


class TestFaultDump:
    def test_fault_dumps_circular_buffers_to_root(self):
        cluster, session = make_session()
        sim = cluster.sim
        leaf = log_mod(session, 6)
        # Debug context that would normally never leave the leaf.
        leaf.append("debug", "ctx 1")
        leaf.append("debug", "ctx 2")
        sim.run()
        assert log_mod(session, 0).sink == []

        session.brokers[0].publish("fault", {"reason": "test"})
        sim.run()
        sink = log_mod(session, 0).sink
        texts = [r["text"] for r in sink if r["rank"] == 6]
        assert texts == ["ctx 1", "ctx 2"]
        # Dumped records are flagged so post-mortem tooling can tell
        # context apart from normally-forwarded traffic.
        assert all(r.get("dumped") for r in sink if r["rank"] == 6)

    def test_dump_preserves_capacity_bound(self):
        cluster, session = make_session(n=3)
        leaf = log_mod(session, 2)
        for i in range(140):
            leaf.append("debug", f"d{i}")
        assert len(leaf.circular) == 128
        session.brokers[0].publish("fault", {})
        cluster.sim.run()
        texts = [r["text"] for r in log_mod(session, 0).sink
                 if r["rank"] == 2]
        assert texts == [f"d{i}" for i in range(12, 140)]

    def test_dump_rpc_returns_local_buffer(self):
        cluster, session = make_session()
        sim = cluster.sim
        log_mod(session, 4).append("debug", "local only")

        def client():
            h = session.connect(4, collective=False)
            resp = yield h.rpc("log.dump", {})
            return resp["records"]

        records = sim.run_until_complete(sim.spawn(client()))
        assert [r["text"] for r in records] == ["local only"]

    def test_sink_rpc_reads_session_log(self):
        cluster, session = make_session()
        sim = cluster.sim
        log_mod(session, 3).append("err", "to the file")
        sim.run()

        def client():
            h = session.connect(0, collective=False)
            resp = yield h.rpc("log.sink", {})
            return resp["records"]

        records = sim.run_until_complete(sim.spawn(client()))
        assert [r["text"] for r in records] == ["to the file"]
