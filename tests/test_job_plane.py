"""Job-plane fault tolerance (PR 7 acceptance).

Chaos acceptance on a 31-broker session under 1% message loss: kill an
interior broker — and, separately, rank 0 — mid-job, and the bulk
launch still converges with every taskrank's rc counted exactly once
and its stdout durable in the KVS, sanitizer-clean.  Plus the
guardrails and races around them: retry-budget exhaustion fails fast
instead of hanging, signals arriving before ``wexec.start`` are
buffered, late task finishes keep their accounting, duplicate
submissions under client retry are absorbed, over-limit submissions
shed load with a retryable ``EAGAIN``, and the walltime watchdog
escalates SIGTERM → SIGKILL into the TIMEOUT state.
"""

import pytest

from repro import make_cluster, standard_session
from repro.cmb.api import RpcError
from repro.cmb.errors import EAGAIN, EEXIST, ENOENT
from repro.cmb.modules.wexec import TaskContext
from repro.core import CommsConfig, FluxInstance, JobClient, JobSpec
from repro.kvs import KvsClient
from repro.resource import ResourcePool, build_cluster_graph
from repro.sim import FaultPlan

from repro.chaos import run_job_chaos_workload


# ----------------------------------------------------------------------
# chaos acceptance: broker kills mid-job under 1% loss
# ----------------------------------------------------------------------
class TestJobChaosAcceptance:
    def test_interior_broker_kill_converges(self):
        """Kill an interior broker mid-job: its running tasks are
        respawned on survivors and the tally closes exactly once."""
        rep = run_job_chaos_workload(
            n_nodes=31, nprocs=24, drop_rate=0.01, kills=((3, 0.3),),
            task_work=1.0, run_until=60.0, sanitize=True)
        assert rep.converged, rep.errors
        assert rep.completed and rep.status == "ok"
        assert rep.exactly_once
        assert rep.rcs_got == rep.rcs_expected == 24
        assert rep.stdout_failed == 0 and rep.stdout_verified == 24
        assert rep.respawns >= 1          # the victim hosted tasks
        assert rep.hung_waiters == 0
        assert rep.sanitizer_findings == []
        assert rep.anti_entropy_misses == []

    def test_root_kill_converges(self):
        """Kill rank 0 mid-job: the acting root takes over the
        completion reduction and respawn duty; KVS replicas keep the
        stdout commits durable."""
        rep = run_job_chaos_workload(
            n_nodes=31, nprocs=24, drop_rate=0.01, kills=((0, 0.3),),
            task_work=1.0, run_until=60.0, sanitize=True,
            kvs_replicas=(1, 2))
        assert rep.converged, rep.errors
        assert rep.completed and rep.exactly_once
        assert rep.stdout_failed == 0 and rep.stdout_verified == 24
        assert rep.sanitizer_findings == []
        assert rep.anti_entropy_misses == []

    def test_retry_budget_exhaustion_fails_not_hangs(self):
        """A task whose respawn budget runs out drives the job to a
        ``wexec.lost`` failure instead of an unclosable tally."""
        rep = run_job_chaos_workload(
            n_nodes=15, nprocs=8, drop_rate=0.01, kills=((3, 0.3),),
            task_work=1.0, run_until=30.0, max_restarts=0)
        assert rep.lost and not rep.completed
        assert rep.status == "lost"
        assert rep.hung_waiters == 0


# ----------------------------------------------------------------------
# wexec races and definitive answers
# ----------------------------------------------------------------------
def _session(n=7, registry=None, **kw):
    cluster = make_cluster(n, seed=71)
    session = standard_session(cluster, task_registry=registry or {},
                               **kw).start()
    return cluster, session


class TestWexecRaces:
    def test_signal_before_start_is_buffered(self):
        """The event plane may deliver a signal published right after
        the launch to a broker that has not yet processed
        ``wexec.start``: it is buffered and applied at start."""

        def sleeper(ctx):
            yield ctx.sim.timeout(5.0)

        cluster, session = _session(registry={"sleeper": sleeper})
        sim = cluster.sim
        done = []
        root = session.brokers[0]
        root.subscribe("wexec.done", lambda m: done.append(m.payload))
        # Raw event publication inverts the order on purpose: every
        # broker sees the signal before the job exists locally.
        root.publish("wexec.signal", {"jobid": "lwjX", "signum": 15})
        root.publish("wexec.start",
                     {"jobid": "lwjX", "task": "sleeper", "nprocs": 4,
                      "ranks": list(range(7)), "args": {}})
        sim.run(until=2.0)
        assert done and done[0]["jobid"] == "lwjX"
        # Every task died to the buffered SIGTERM: rc = 128 + 15.
        assert set(done[0]["rcs"].values()) == {143}
        session.stop()

    def test_signal_unknown_job_is_definitive(self):
        cluster, session = _session()
        sim = cluster.sim

        def client():
            handle = session.connect(5, collective=False)
            with pytest.raises(RpcError) as ei:
                yield handle.rpc("wexec.signal",
                                 {"jobid": "lwj-none", "signum": 9})
            assert ei.value.code == ENOENT
            return "ok"

        proc = sim.spawn(client())
        assert sim.run_until_complete(proc) == "ok"
        session.stop()

    def test_duplicate_jobid_rejected(self):
        def quick(ctx):
            yield ctx.sim.timeout(1.0)

        cluster, session = _session(registry={"quick": quick})
        sim = cluster.sim

        def client():
            handle = session.connect(2, collective=False)
            yield handle.rpc("wexec.run", {"jobid": "lwjD",
                                           "task": "quick", "nprocs": 2})
            with pytest.raises(RpcError) as ei:
                yield handle.rpc("wexec.run", {"jobid": "lwjD",
                                               "task": "quick",
                                               "nprocs": 2})
            assert ei.value.code == EEXIST
            return "ok"

        proc = sim.spawn(client())
        assert sim.run_until_complete(proc) == "ok"
        session.stop()

    def test_late_task_finish_keeps_accounting(self):
        """A task finishing after its job record was retired (the
        ``_task_finished``-after-``_on_done`` race) must not lose its
        rc/stdout — they land in the late-finish ledger instead."""
        cluster, session = _session()
        wexec = session.brokers[3].modules["wexec"]
        ctx = TaskContext(wexec, "lwj-late", 1, 2, {})
        ctx.print("late line")
        wexec._task_finished(ctx, 7)        # no _JobState exists
        assert wexec.late_rcs[("lwj-late", 1)] == 7
        assert wexec.output[("lwj-late", 1)] == ["late line"]
        session.stop()


# ----------------------------------------------------------------------
# admission control + idempotent submission
# ----------------------------------------------------------------------
def make_instance(n_nodes=8, *, cores=4, seed=91, **inst_kw):
    cluster = make_cluster(n_nodes, seed=seed)
    graph = build_cluster_graph("jp", 1, n_nodes, sockets=1,
                                cores_per_socket=cores)
    comms = CommsConfig(cluster, task_registry={})
    inst = FluxInstance(cluster.sim, ResourcePool(graph), comms=comms,
                        **inst_kw)
    return cluster, inst


class TestAdmissionControl:
    def test_overload_sheds_with_retryable_eagain(self):
        cluster, inst = make_instance(max_pending=2)
        sim = cluster.sim
        # Fill the machine, then the pending queue to its bound.
        inst.submit(JobSpec(ncores=32, duration=0.3, name="blocker"))
        sim.run(until=0.01)     # blocker leaves pending, starts running
        inst.submit(JobSpec(ncores=32, duration=0.01))
        inst.submit(JobSpec(ncores=32, duration=0.01))
        with pytest.raises(RuntimeError, match="pending queue full"):
            inst.submit(JobSpec(ncores=1, duration=0.01))

        def client():
            handle = inst.session.connect(5, collective=False)
            jc = JobClient(handle)
            with pytest.raises(RpcError) as ei:
                yield jc.submit({"ncores": 1, "duration": 0.01})
            assert ei.value.code == EAGAIN
            assert ei.value.retryable
            # The standard retry machinery rides out the backlog: once
            # the blocker finishes and the queue drains, a retried
            # submission is admitted.
            resp = yield handle.rpc("job.submit",
                                    {"ncores": 1, "duration": 0.01,
                                     "name": "retried"},
                                    timeout=0.2, retries=10)
            return (yield jc.wait(resp["jobid"]))

        proc = sim.spawn(client())
        assert sim.run_until_complete(proc) == "complete"
        assert inst.session.brokers[0].modules["job"].rejected >= 2

    def test_submit_idempotent_under_chaos(self):
        """Client retries with duplication and loss on the fabric must
        not double-enqueue: every re-attempt reuses the msgid, so the
        broker replay cache absorbs duplicates of a successful
        submission."""
        cluster, inst = make_instance(seed=93)
        sim = cluster.sim
        # Total blackout, healing into a *duplicating* fabric: the
        # first attempt is certainly lost, so the client re-issues the
        # identical request (same msgid) — and after the heal both the
        # broker-level retransmission of attempt 1 and attempt 2 (plus
        # dup-injected copies) can reach the root.
        cluster.network.fault_plan = FaultPlan(seed=17, drop_rate=1.0)
        heal = sim.timeout(0.08)
        heal.add_callback(
            lambda _e: setattr(cluster.network, "fault_plan",
                               FaultPlan(seed=19, dup_rate=0.5)))
        acked = []

        def client():
            handle = inst.session.connect(6, collective=False)
            resp = yield handle.rpc("job.submit",
                                    {"ncores": 4, "duration": 0.01,
                                     "name": "once"},
                                    timeout=0.05, retries=16)
            acked.append((resp["jobid"], handle.retries))

        proc = sim.spawn(client())
        sim.run(until=10.0)
        assert proc.triggered and proc.ok
        # Clean fabric to drain the job itself.
        cluster.network.fault_plan = None
        sim.run()
        jobid, retries = acked[0]
        assert retries >= 1               # the client actually retried
        named = [j for j in inst.jobs.values() if j.spec.name == "once"]
        assert len(named) == 1            # no double-enqueue
        assert named[0].jobid == jobid
        assert named[0].state.value == "complete"


# ----------------------------------------------------------------------
# walltime watchdog
# ----------------------------------------------------------------------
class TestWalltimeWatchdog:
    def test_duration_job_times_out(self):
        cluster, inst = make_instance(enforce_walltime=True)
        job = inst.submit(JobSpec(ncores=4, duration=1.0, walltime=0.1))
        cluster.sim.run()
        assert job.state.value == "timeout"
        assert "walltime" in job.error

    def test_rigid_job_within_walltime_unaffected(self):
        cluster, inst = make_instance(enforce_walltime=True)
        job = inst.submit(JobSpec(ncores=4, duration=0.05))
        cluster.sim.run()
        assert job.state.value == "complete"
        assert job.error is None

    def test_task_job_killed_by_walltime(self):
        def stuck(ctx):
            ctx.print("started")
            yield ctx.sim.timeout(30.0)

        cluster = make_cluster(4, seed=95)
        graph = build_cluster_graph("wt", 1, 4, sockets=1,
                                    cores_per_socket=4)
        comms = CommsConfig(cluster, task_registry={"stuck": stuck})
        inst = FluxInstance(cluster.sim, ResourcePool(graph),
                            comms=comms, enforce_walltime=True,
                            term_grace=0.02)
        done = []
        inst.session.brokers[0].subscribe(
            "wexec.done", lambda m: done.append(m.payload))
        job = inst.submit(JobSpec(ncores=4, task="stuck", ntasks=2,
                                  walltime=0.1))
        cluster.sim.run(until=3.0)
        assert job.state.value == "timeout"
        assert "walltime" in job.error
        # Tasks saw the SIGTERM/SIGKILL ladder: rc = 128 + sig.
        assert done and set(done[0]["rcs"].values()) <= {143, 137}

    def test_stubborn_body_escalates_to_kill(self):
        """A body that swallows SIGTERM is eventually torn down by the
        escalation ladder and the job still lands in TIMEOUT."""
        from repro.sim.kernel import Interrupt

        def stubborn(job, inst):
            while True:
                try:
                    yield inst.sim.timeout(10.0)
                    return
                except Interrupt:
                    continue            # ignore the polite request

        cluster, inst = make_instance(enforce_walltime=True)
        inst.term_grace = 0.02
        job = inst.submit(JobSpec(ncores=4, body=stubborn,
                                  walltime=0.05))
        cluster.sim.run(until=2.0)
        assert job.state.value == "timeout"
        assert "walltime" in job.error

    def test_timeout_recorded_in_kvs_journal(self):
        cluster, inst = make_instance(enforce_walltime=True)
        job = inst.submit(JobSpec(ncores=4, duration=1.0, walltime=0.1))
        cluster.sim.run()

        def reader():
            kvs = KvsClient(inst.session.connect(3, collective=False))
            return (yield kvs.get(f"lwj.{job.jobid}.state"))

        proc = cluster.sim.spawn(reader())
        rec = cluster.sim.run_until_complete(proc)
        assert rec["state"] == "timeout"
        assert "walltime" in rec["error"]


# ----------------------------------------------------------------------
# durable job state: KVS journal + acting-root job manager
# ----------------------------------------------------------------------
class TestJobManagerFailover:
    def _failover_instance(self):
        cluster = make_cluster(8, seed=97)
        graph = build_cluster_graph("fo", 1, 8, sockets=1,
                                    cores_per_socket=4)
        comms = CommsConfig(cluster, with_heartbeat=True, hb_period=0.05,
                            hb_max_epochs=400, kvs_replicas=(1, 2))
        inst = FluxInstance(cluster.sim, ResourcePool(graph),
                            comms=comms)
        # The static root is both tree root and heartbeat generator, so
        # its death stops all pulses and only the orphan-side watchdog
        # can notice.
        return cluster, inst

    def test_spec_journalled_once(self):
        cluster, inst = make_instance()
        job = inst.submit(JobSpec(ncores=4, duration=0.01, name="spec"))
        cluster.sim.run()

        def reader():
            kvs = KvsClient(inst.session.connect(2, collective=False))
            return (yield kvs.get(f"lwj.{job.jobid}.spec"))

        proc = cluster.sim.spawn(reader())
        spec = cluster.sim.run_until_complete(proc)
        assert spec["ncores"] == 4 and spec["name"] == "spec"
        assert spec["duration"] == 0.01

    def test_acting_root_serves_jobs_after_rank0_death(self):
        """Kill rank 0 mid-job: the acting root's job module promotes
        its standby hook and keeps the whole submission path alive —
        the in-flight job finishes, queries answer from the recovered
        journal, and *new* submissions still run."""
        cluster, inst = self._failover_instance()
        sim = cluster.sim
        results = {}

        def client():
            handle = inst.session.connect(5, collective=False)
            jc = JobClient(handle)
            r1 = yield handle.rpc("job.submit",
                                  {"ncores": 4, "duration": 0.5,
                                   "name": "survivor"},
                                  timeout=0.5, retries=8)
            results["first"] = yield jc.wait(r1["jobid"])
            info = yield handle.rpc("job.info", {"jobid": r1["jobid"]},
                                    timeout=0.5, retries=8)
            results["info"] = info
            r2 = yield handle.rpc("job.submit",
                                  {"ncores": 4, "duration": 0.05,
                                   "name": "after"},
                                  timeout=0.5, retries=8)
            results["second"] = yield jc.wait(r2["jobid"])
            listing = yield handle.rpc("job.list", {}, timeout=0.5,
                                       retries=8)
            results["names"] = {j["name"] for j in listing["jobs"]}

        proc = sim.spawn(client())
        kill = sim.timeout(0.2)
        kill.add_callback(lambda _e: inst.session.fail_rank(0))
        sim.run(until=30.0)
        assert proc.triggered and proc.ok, results
        assert results["first"] == "complete"
        assert results["second"] == "complete"
        assert results["info"]["state"] == "complete"
        assert results["info"]["name"] == "survivor"
        assert {"survivor", "after"} <= results["names"]
        # The promotion actually happened (and exactly once).
        takeovers = sum(b.modules["job"].takeovers
                        for b in inst.session.brokers if b.alive)
        assert takeovers == 1

    def test_records_recovered_from_kvs_journal(self):
        """Jobs that finished *before* the root died are still
        answerable afterwards — reconstructed from ``lwj.*`` by the
        acting root's recovery pass (or its event mirror)."""
        cluster, inst = self._failover_instance()
        sim = cluster.sim
        done = inst.submit(JobSpec(ncores=4, duration=0.05,
                                   name="historic"))
        sim.run(until=0.3)
        assert done.state.value == "complete"
        inst.session.fail_rank(0)
        sim.run(until=2.0)      # takeover + recovery pass
        results = {}

        def client():
            handle = inst.session.connect(6, collective=False)
            info = yield handle.rpc("job.info", {"jobid": done.jobid},
                                    timeout=0.5, retries=8)
            results["info"] = info

        proc = sim.spawn(client())
        sim.run(until=10.0)
        assert proc.triggered and proc.ok
        assert results["info"]["state"] == "complete"
        assert results["info"]["name"] == "historic"
