"""Tests for the Table I comms modules (hb, live, log, mon, group,
barrier, wexec, resvc)."""

import pytest

from repro.cmb.api import RpcError
from repro.cmb.modules import (BarrierModule, GroupModule, HeartbeatModule,
                               LiveModule, LogModule, MonModule,
                               ResvcModule, WexecModule)
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kvs import KvsClient, KvsModule
from repro.sim.cluster import make_cluster


def make_session(n=8, modules=(), arity=2):
    cluster = make_cluster(n, seed=3)
    session = CommsSession(cluster, topology=TreeTopology(n, arity=arity),
                           modules=list(modules)).start()
    return cluster, session


def run_proc(cluster, gen):
    proc = cluster.sim.spawn(gen)
    return cluster.sim.run_until_complete(proc)


class TestHeartbeat:
    def test_pulses_reach_every_broker(self):
        cluster, session = make_session(modules=[
            ModuleSpec(HeartbeatModule, period=0.1, max_epochs=5)])
        cluster.sim.run()
        for rank in range(8):
            assert session.module_at(rank, "hb").epoch == 5

    def test_max_epochs_bounds_the_run(self):
        cluster, session = make_session(modules=[
            ModuleSpec(HeartbeatModule, period=0.1, max_epochs=3)])
        cluster.sim.run()
        # Three pulses at 0.1s spacing, plus flood time.
        assert cluster.sim.now == pytest.approx(0.3, abs=0.01)

    def test_hb_get_rpc(self):
        cluster, session = make_session(modules=[
            ModuleSpec(HeartbeatModule, period=0.05, max_epochs=4)])
        cluster.sim.run()

        def client(h):
            return (yield h.rpc("hb.get", {}))

        resp = run_proc(cluster, client(session.connect(6, collective=False)))
        assert resp["epoch"] == 4 and resp["period"] == 0.05


class TestLive:
    def _failing_session(self, n=15):
        return make_session(n=n, modules=[
            ModuleSpec(HeartbeatModule, period=0.1, max_epochs=60),
            ModuleSpec(LiveModule, missed_max=3),
        ])

    def test_no_false_positives_when_healthy(self):
        cluster, session = self._failing_session()
        cluster.sim.run()
        for rank in range(15):
            assert session.module_at(rank, "live").announced == set()

    def test_dead_interior_node_detected_and_healed(self):
        cluster, session = self._failing_session()
        cluster.sim.run(until=0.5)
        session.fail_rank(1)
        cluster.sim.run(until=3.0)
        live0 = session.module_at(0, "live")
        assert live0.announced == {1}
        assert session.brokers[3].parent == 0
        assert session.brokers[4].parent == 0
        assert set(session.brokers[0].children) >= {3, 4}

    def test_dead_leaf_detected(self):
        cluster, session = self._failing_session()
        cluster.sim.run(until=0.5)
        session.fail_rank(14)
        cluster.sim.run(until=3.0)
        assert 14 in session.module_at(0, "live").announced
        assert 14 not in session.brokers[6].children

    def test_status_rpc(self):
        cluster, session = self._failing_session(n=7)
        cluster.sim.run(until=0.5)

        def client(h):
            return (yield h.rpc("live.status", {}))

        st = run_proc(cluster, client(session.connect(1, collective=False)))
        assert st["rank"] == 1 and st["parent"] == 0
        assert st["children"] == [3, 4]


class TestLog:
    def test_local_records_forwarded_to_root_sink(self):
        cluster, session = make_session(modules=[ModuleSpec(LogModule)])
        session.brokers[5].log("err", "something bad")
        session.brokers[3].log("info", "something fine")
        cluster.sim.run()
        sink = session.module_at(0, "log").sink
        texts = [r["text"] for r in sink]
        assert "something bad" in texts and "something fine" in texts
        ranks = {r["rank"] for r in sink}
        assert ranks == {5, 3}

    def test_below_threshold_stays_local(self):
        cluster, session = make_session(modules=[ModuleSpec(LogModule)])
        session.brokers[5].log("debug", "chatty")
        cluster.sim.run()
        assert session.module_at(0, "log").sink == []
        # ... but it is in the local circular buffer.
        circ = session.module_at(5, "log").circular
        assert any(r["text"] == "chatty" for r in circ)

    def test_batching_reduces_messages(self):
        cluster, session = make_session(modules=[ModuleSpec(LogModule)])
        before = cluster.network.delivered
        for i in range(50):
            session.brokers[7].log("info", f"msg {i}")
        cluster.sim.run()
        sink = session.module_at(0, "log").sink
        assert len(sink) == 50
        # 50 records from depth 3 without batching would be >= 150
        # messages; batching collapses each hop to a handful.
        assert cluster.network.delivered - before < 20

    def test_circular_buffer_bounded(self):
        cluster, session = make_session(modules=[ModuleSpec(LogModule)])
        for i in range(140):
            session.brokers[2].log("debug", f"m{i}")
        cluster.sim.run()
        circ = session.module_at(2, "log").circular
        assert len(circ) == 128
        assert circ[0]["text"] == "m12"

    def test_fault_event_dumps_context(self):
        cluster, session = make_session(modules=[ModuleSpec(LogModule)])
        session.brokers[6].log("debug", "pre-crash context")
        session.brokers[0].publish("fault", {"rank": 6})
        cluster.sim.run()
        sink = session.module_at(0, "log").sink
        assert any(r["text"] == "pre-crash context" and r.get("dumped")
                   for r in sink)


class TestBarrier:
    def test_all_participants_released_together(self):
        cluster, session = make_session(modules=[ModuleSpec(BarrierModule)])
        release_times = []

        def member(i):
            h = session.connect(i % 8)
            yield cluster.sim.timeout(i * 1e-4)  # staggered arrival
            yield h.barrier("b1", 16)
            release_times.append(cluster.sim.now)

        procs = [cluster.sim.spawn(member(i)) for i in range(16)]
        cluster.sim.run()
        assert all(p.ok for p in procs)
        assert len(release_times) == 16
        # Nobody releases before the last arrival (15 * 1e-4).
        assert min(release_times) >= 15 * 1e-4

    def test_sequential_barriers_with_same_name(self):
        cluster, session = make_session(n=4,
                                        modules=[ModuleSpec(BarrierModule)])

        def member(i):
            h = session.connect(i % 4)
            yield h.barrier("again", 4)
            yield h.barrier("again2", 4)
            return "done"

        procs = [cluster.sim.spawn(member(i)) for i in range(4)]
        cluster.sim.run()
        assert all(p.ok and p.value == "done" for p in procs)

    def test_barrier_of_one(self):
        cluster, session = make_session(n=2,
                                        modules=[ModuleSpec(BarrierModule)])

        def solo():
            h = session.connect(1)
            yield h.barrier("solo", 1)
            return "released"

        assert run_proc(cluster, solo()) == "released"

    def test_nprocs_mismatch_raises(self):
        cluster, session = make_session(n=2,
                                        modules=[ModuleSpec(BarrierModule)])
        module = session.module_at(1, "barrier")
        state = module._state_for("x", 4)
        with pytest.raises(ValueError):
            module._state_for("x", 5)


class TestGroup:
    def test_join_list_leave(self):
        cluster, session = make_session(modules=[
            ModuleSpec(GroupModule, max_depth=0)])

        def client(h):
            r1 = yield h.rpc("group.join",
                             {"name": "g", "rank": h.rank, "client": 1})
            r2 = yield h.rpc("group.join",
                             {"name": "g", "rank": h.rank, "client": 2})
            listing = yield h.rpc("group.list", {"name": "g"})
            yield h.rpc("group.leave",
                        {"name": "g", "rank": h.rank, "client": 1})
            size = yield h.rpc("group.size", {"name": "g"})
            return r1, r2, listing, size

        h = session.connect(5, collective=False)
        r1, r2, listing, size = run_proc(cluster, client(h))
        assert r1["size"] == 1 and r2["size"] == 2
        assert listing["members"] == [[5, 1], [5, 2]]
        assert size["size"] == 1

    def test_duplicate_join_is_idempotent(self):
        cluster, session = make_session(modules=[
            ModuleSpec(GroupModule, max_depth=0)])

        def client(h):
            yield h.rpc("group.join", {"name": "g", "rank": 1, "client": 9})
            r = yield h.rpc("group.join", {"name": "g", "rank": 1, "client": 9})
            return r

        assert run_proc(cluster, client(
            session.connect(1, collective=False)))["size"] == 1

    def test_group_update_events_published(self):
        cluster, session = make_session(modules=[
            ModuleSpec(GroupModule, max_depth=0)])

        def client(h):
            ev = h.wait_event("group.update")
            yield h.rpc("group.join", {"name": "g", "rank": 0, "client": 1})
            msg = yield ev
            return msg.payload

        payload = run_proc(cluster, client(
            session.connect(3, collective=False)))
        assert payload == {"name": "g", "size": 1}


class TestMon:
    def _mon_session(self, sampler=None):
        samplers = {"metric": sampler or (lambda broker: 2.0)}
        return make_session(modules=[
            ModuleSpec(MonModule, samplers=samplers),
            ModuleSpec(HeartbeatModule, period=0.1, max_epochs=10)])

    def test_sum_reduction_counts_all_brokers(self):
        cluster, session = self._mon_session()

        def client(h):
            yield h.rpc("mon.activate", {"name": "metric", "op": "sum"})
            yield cluster.sim.timeout(0.9)
            return (yield h.rpc("mon.results", {"name": "metric"}))

        res = run_proc(cluster, client(session.connect(0, collective=False)))
        assert set(res["results"].values()) == {16.0}  # 8 brokers x 2.0

    def test_max_reduction(self):
        cluster, session = self._mon_session(
            sampler=lambda broker: float(broker.rank))

        def client(h):
            yield h.rpc("mon.activate", {"name": "metric", "op": "max"})
            yield cluster.sim.timeout(0.9)
            return (yield h.rpc("mon.results", {"name": "metric"}))

        res = run_proc(cluster, client(session.connect(0, collective=False)))
        assert set(res["results"].values()) == {7.0}

    def test_avg_reduction(self):
        cluster, session = self._mon_session(
            sampler=lambda broker: float(broker.rank))

        def client(h):
            yield h.rpc("mon.activate", {"name": "metric", "op": "avg"})
            yield cluster.sim.timeout(0.9)
            return (yield h.rpc("mon.results", {"name": "metric"}))

        res = run_proc(cluster, client(session.connect(0, collective=False)))
        assert set(res["results"].values()) == {3.5}  # mean of 0..7

    def test_unknown_sampler_rejected(self):
        cluster, session = self._mon_session()

        def client(h):
            with pytest.raises(RpcError, match="unknown sampler"):
                yield h.rpc("mon.activate", {"name": "nope"})
            return "ok"

        assert run_proc(cluster, client(
            session.connect(0, collective=False))) == "ok"

    def test_deactivate_stops_sampling(self):
        cluster, session = self._mon_session()

        def client(h):
            yield h.rpc("mon.activate", {"name": "metric", "op": "sum"})
            yield cluster.sim.timeout(0.35)
            yield h.rpc("mon.deactivate", {"name": "metric"})
            res1 = yield h.rpc("mon.results", {"name": "metric"})
            yield cluster.sim.timeout(0.5)
            res2 = yield h.rpc("mon.results", {"name": "metric"})
            return len(res1["results"]), len(res2["results"])

        n1, n2 = run_proc(cluster, client(
            session.connect(0, collective=False)))
        assert n1 >= 1
        assert n2 <= n1 + 1  # at most one straggler epoch completes

    def test_results_stored_in_kvs_when_loaded(self):
        samplers = {"watts": lambda broker: 10.0}
        cluster, session = make_session(modules=[
            ModuleSpec(KvsModule),
            ModuleSpec(MonModule, samplers=samplers),
            ModuleSpec(HeartbeatModule, period=0.1, max_epochs=5)])

        def client(h):
            yield h.rpc("mon.activate", {"name": "watts", "op": "sum"})
            yield cluster.sim.timeout(0.45)
            kvs = KvsClient(h)
            return (yield kvs.get("mon.watts.3"))

        value = run_proc(cluster, client(
            session.connect(2, collective=False)))
        assert value == 80.0

    def test_stored_samples_enter_the_replication_log(self):
        """A sample stored at a replicated master must pass through the
        commit log like any other write: committed behind the KVS
        module's back it left every standby waiting for a version that
        never came, and each later client commit timed out."""
        samplers = {"watts": lambda broker: 10.0}
        cluster, session = make_session(modules=[
            ModuleSpec(KvsModule, replicas=(1, 2)),
            ModuleSpec(MonModule, samplers=samplers),
            ModuleSpec(HeartbeatModule, period=0.1, max_epochs=6)])

        def client(h):
            yield h.rpc("mon.activate", {"name": "watts", "op": "sum"})
            yield cluster.sim.timeout(0.25)    # first epoch is stored
            kvs = KvsClient(h, timeout=2.0)
            yield kvs.put("after.mon", 1)
            yield kvs.commit()
            return (yield kvs.get("mon.watts.1"))

        assert run_proc(cluster, client(
            session.connect(5, collective=False))) == 80.0
        cluster.sim.run()
        root = session.module_at(0, "kvs")
        assert root.master.version >= 6 and not root._repl_waiters
        for r in (1, 2):
            standby = session.module_at(r, "kvs")._standby
            assert (standby.version, standby.root_sha) == (
                root.master.version, root.master.root_sha)


def _task_registry():
    def hello(ctx):
        ctx.print(f"hello from {ctx.taskrank}/{ctx.nprocs}")
        yield ctx.sim.timeout(0.001)

    def crasher(ctx):
        yield ctx.sim.timeout(0.001)
        raise RuntimeError("task blew up")

    def sleeper(ctx):
        yield ctx.sim.timeout(100.0)

    return {"hello": hello, "crasher": crasher, "sleeper": sleeper}


class TestWexec:
    def _session(self):
        return make_session(modules=[
            ModuleSpec(KvsModule),
            ModuleSpec(WexecModule, registry=_task_registry())])

    def test_bulk_launch_and_done_event(self):
        cluster, session = self._session()

        def client(h):
            done = h.wait_event("wexec.done")
            yield h.rpc("wexec.run",
                        {"jobid": "j1", "task": "hello", "nprocs": 16})
            msg = yield done
            return msg.payload

        payload = run_proc(cluster, client(
            session.connect(3, collective=False)))
        assert payload["jobid"] == "j1" and payload["status"] == 0
        assert len(payload["rcs"]) == 16

    def test_cyclic_distribution(self):
        cluster, session = self._session()

        def client(h):
            done = h.wait_event("wexec.done")
            yield h.rpc("wexec.run",
                        {"jobid": "j2", "task": "hello", "nprocs": 16})
            yield done

        run_proc(cluster, client(session.connect(0, collective=False)))
        # Task rank r runs on session rank r % 8.
        for rank in range(8):
            wexec = session.module_at(rank, "wexec")
            mine = [tr for (jid, tr) in wexec.output if jid == "j2"]
            assert sorted(mine) == [rank, rank + 8]

    def test_stdout_captured_in_kvs(self):
        cluster, session = self._session()

        def client(h):
            done = h.wait_event("wexec.done")
            yield h.rpc("wexec.run",
                        {"jobid": "j3", "task": "hello", "nprocs": 4})
            yield done
            kvs = KvsClient(h)
            return (yield kvs.get("lwj.j3.2.stdout"))

        out = run_proc(cluster, client(session.connect(1, collective=False)))
        assert out == ["hello from 2/4"]

    def test_failed_task_reports_nonzero_status(self):
        cluster, session = self._session()

        def client(h):
            done = h.wait_event("wexec.done")
            yield h.rpc("wexec.run",
                        {"jobid": "j4", "task": "crasher", "nprocs": 3})
            msg = yield done
            return msg.payload

        payload = run_proc(cluster, client(
            session.connect(0, collective=False)))
        assert payload["status"] == 1

    def test_unknown_task_rejected(self):
        cluster, session = self._session()

        def client(h):
            with pytest.raises(RpcError, match="unknown task"):
                yield h.rpc("wexec.run",
                            {"jobid": "x", "task": "nope", "nprocs": 1})
            return "ok"

        assert run_proc(cluster, client(
            session.connect(5, collective=False))) == "ok"

    def test_signal_kills_tasks(self):
        cluster, session = self._session()

        def client(h):
            done = h.wait_event("wexec.done")
            yield h.rpc("wexec.run",
                        {"jobid": "j5", "task": "sleeper", "nprocs": 4})
            yield cluster.sim.timeout(0.01)
            yield h.rpc("wexec.signal", {"jobid": "j5", "signum": 9})
            msg = yield done
            return msg.payload

        payload = run_proc(cluster, client(
            session.connect(2, collective=False)))
        assert payload["status"] == 128 + 9
        assert cluster.sim.now < 1.0  # killed, not slept out

    def test_restricted_rank_set(self):
        cluster, session = self._session()

        def client(h):
            done = h.wait_event("wexec.done")
            yield h.rpc("wexec.run", {"jobid": "j6", "task": "hello",
                                      "nprocs": 4, "ranks": [2, 3]})
            yield done

        run_proc(cluster, client(session.connect(0, collective=False)))
        for rank in (0, 1, 4):
            wexec = session.module_at(rank, "wexec")
            assert not [1 for (jid, _) in wexec.output if jid == "j6"]
        assert len([1 for (jid, _) in
                    session.module_at(2, "wexec").output if jid == "j6"]) == 2


class TestResvc:
    def _session(self):
        return make_session(modules=[
            ModuleSpec(KvsModule), ModuleSpec(ResvcModule)])

    def test_resources_enumerated_in_kvs(self):
        cluster, session = self._session()

        def client(h):
            kvs = KvsClient(h)
            # Causal consistency: wait for the enumeration commit's root
            # version before reading from this node's slave.
            yield kvs.wait_version(1)
            rec = yield kvs.get("resource.rank.5")
            return rec

        rec = run_proc(cluster, client(session.connect(4, collective=False)))
        assert rec["cores"] == 16 and rec["hostname"] == "node0005"

    def test_alloc_and_free(self):
        cluster, session = self._session()

        def client(h):
            a = yield h.rpc("resvc.alloc", {"jobid": "a", "cores": 24})
            st = yield h.rpc("resvc.status", {})
            yield h.rpc("resvc.free", {"jobid": "a"})
            st2 = yield h.rpc("resvc.status", {})
            return a, st, st2

        a, st, st2 = run_proc(cluster, client(
            session.connect(6, collective=False)))
        assert sum(a["alloc"].values()) == 24
        assert sum(st["free"].values()) == 8 * 16 - 24
        assert sum(st2["free"].values()) == 8 * 16

    def test_exhaustion_rejected(self):
        cluster, session = self._session()

        def client(h):
            yield h.rpc("resvc.alloc", {"jobid": "big", "cores": 128})
            with pytest.raises(RpcError, match="insufficient"):
                yield h.rpc("resvc.alloc", {"jobid": "more", "cores": 1})
            return "ok"

        assert run_proc(cluster, client(
            session.connect(0, collective=False))) == "ok"

    def test_double_alloc_rejected(self):
        cluster, session = self._session()

        def client(h):
            yield h.rpc("resvc.alloc", {"jobid": "j", "cores": 4})
            with pytest.raises(RpcError, match="already allocated"):
                yield h.rpc("resvc.alloc", {"jobid": "j", "cores": 4})
            return "ok"

        assert run_proc(cluster, client(
            session.connect(0, collective=False))) == "ok"

    def test_free_unknown_job_rejected(self):
        cluster, session = self._session()

        def client(h):
            with pytest.raises(RpcError, match="no allocation"):
                yield h.rpc("resvc.free", {"jobid": "ghost"})
            return "ok"

        assert run_proc(cluster, client(
            session.connect(0, collective=False))) == "ok"

    def test_candidate_rank_restriction(self):
        cluster, session = self._session()

        def client(h):
            a = yield h.rpc("resvc.alloc",
                            {"jobid": "r", "cores": 20, "ranks": [3, 4]})
            return a

        a = run_proc(cluster, client(session.connect(0, collective=False)))
        assert set(a["alloc"]) == {"3", "4"}


class TestWexecToolAccess:
    """The wexec.query tool-attachment RPC (Challenge 4)."""

    def _running_job(self):
        def sleeper(ctx):
            ctx.status = f"phase-{ctx.taskrank % 2}"
            yield ctx.sim.timeout(10.0)

        cluster, session = make_session(modules=[
            ModuleSpec(WexecModule, registry={"sleeper": sleeper})])

        def launcher(h):
            yield h.rpc("wexec.run", {"jobid": "q", "task": "sleeper",
                                      "nprocs": 8})

        run_proc(cluster, launcher(session.connect(0, collective=False)))
        return cluster, session

    def test_query_reports_live_tasks(self):
        cluster, session = self._running_job()

        def tool(h):
            out = []
            for rank in range(8):
                resp = yield h.rpc_rank(rank, "wexec.query",
                                        {"jobid": "q"})
                out.extend(resp["tasks"])
            return out

        tasks = run_proc(cluster, tool(session.connect(2,
                                                       collective=False)))
        assert len(tasks) == 8
        assert all(t["alive"] for t in tasks)
        assert {t["status"] for t in tasks} == {"phase-0", "phase-1"}

    def test_query_unknown_job_is_empty(self):
        cluster, session = self._running_job()

        def tool(h):
            return (yield h.rpc("wexec.query", {"jobid": "ghost"}))

        resp = run_proc(cluster, tool(session.connect(1,
                                                      collective=False)))
        assert resp["tasks"] == []

    def test_query_after_completion_shows_nothing_alive(self):
        def quick(ctx):
            yield ctx.sim.timeout(1e-4)

        cluster, session = make_session(modules=[
            ModuleSpec(WexecModule, registry={"quick": quick})])

        def flow(h):
            done = h.wait_event("wexec.done")
            yield h.rpc("wexec.run", {"jobid": "f", "task": "quick",
                                      "nprocs": 4})
            yield done
            return (yield h.rpc("wexec.query", {"jobid": "f"}))

        resp = run_proc(cluster, flow(session.connect(0,
                                                      collective=False)))
        # Job state is dropped on completion: nothing left to report.
        assert resp["tasks"] == []
