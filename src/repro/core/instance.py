"""Flux instances: the unified job model's execution engine.

A :class:`FluxInstance` is an independent RJMS instance managing a
resource pool: it queues :class:`~repro.core.job.JobSpec` submissions,
runs a scheduler policy over them (charging simulated decision time,
so scheduler parallelism is measurable), executes PROGRAM jobs, and
recursively spawns child instances for INSTANCE jobs — realizing the
paper's hierarchy rules:

- **parent bounding** — a child's world is the projection of the
  allocation its parent granted (it cannot see, let alone use,
  anything else);
- **child empowerment** — the child schedules its own sub-jobs with
  its own policy, concurrently with its siblings;
- **parental consent** — grow/shrink requests climb the instance
  hierarchy and every level may grant, partially grant, or deny.
"""

from __future__ import annotations

from typing import Any, Optional

from ..resource.pool import (AllocationError, AllocationRequest,
                             ResourcePool)
from ..resource.projection import graft_allocation, project_allocation
from ..resource import types as rt
from ..sched.overhead import SchedCostModel, ZeroCostModel
from ..sched.policy import FcfsPolicy, SchedulerPolicy
from ..sched.queue import JobQueue
from ..sim.kernel import Event, Interrupt, Simulation
from .comms import CommsConfig
from .job import Job, JobKind, JobSpec, JobState

__all__ = ["FluxInstance"]


class FluxInstance:
    """One level of the Flux job hierarchy.

    Parameters
    ----------
    sim:
        The shared simulation.
    pool:
        The instance's resource pool (its entire visible world).
    policy:
        Scheduling policy (default FCFS).
    cost_model:
        Simulated cost of scheduling passes (default free).
    parent / host_job:
        Set when this instance *is* a job of a parent instance.
    name:
        Label for reports.
    max_pending:
        Admission-control bound on the pending queue (0 = unbounded).
        Wire submissions over the limit are rejected with a retryable
        ``EAGAIN`` at the job module; Python submissions raise.
    enforce_walltime:
        Arm the walltime watchdog: a PROGRAM job still running at its
        ``walltime`` is sent SIGTERM, then SIGKILL after
        ``term_grace``, and finishes in the TIMEOUT state.
    term_grace:
        Escalation grace between SIGTERM → SIGKILL → hard teardown.
    """

    def __init__(self, sim: Simulation, pool: ResourcePool,
                 policy: Optional[SchedulerPolicy] = None,
                 cost_model: Optional[SchedCostModel] = None,
                 parent: Optional["FluxInstance"] = None,
                 host_job: Optional[Job] = None,
                 name: str = "flux",
                 comms: Optional[CommsConfig] = None,
                 session=None,
                 max_pending: int = 0,
                 enforce_walltime: bool = False,
                 term_grace: float = 0.05):
        self.sim = sim
        self.pool = pool
        self.policy = policy or FcfsPolicy()
        self.cost_model = cost_model or ZeroCostModel()
        self.parent = parent
        self.host_job = host_job
        self.name = name
        self.max_pending = max_pending
        self.enforce_walltime = enforce_walltime
        self.term_grace = term_grace
        #: Per-job overlay network (Section III): the root instance
        #: boots its own session when a CommsConfig is given; child
        #: instances get theirs built (parent-assisted) at job start.
        self.comms = comms
        self.session = session
        self._owns_session = False
        if comms is not None and session is None:
            node_ids = self._pool_node_ids()
            self.session = comms.build_session(node_ids).start()
            self._owns_session = True
        self._jobmgr = None
        if self.session is not None:
            self._bind_job_manager()
        self.queue = JobQueue(limit=max_pending or None)
        self.jobs: dict[int, Job] = {}
        self.active = True
        self.sched_passes = 0
        self.sched_time = 0.0
        # Busy-core integrator for utilization reporting.
        self._busy_cores = 0
        self._busy_last_t = sim.now
        self._busy_area = 0.0
        self._wake: Event = sim.event(name=f"wake:{name}")
        self._drain_waiters: list[Event] = []
        self._sched_proc = sim.spawn(self._scheduler(), name=f"sched:{name}")

    def _bind_job_manager(self) -> None:
        """Attach this instance to the session's ``job`` comms modules:
        active on the root broker (in-band flux-submit), *standby* on
        every other broker — should the root die, the acting root's
        module promotes its standby hook and keeps the submission path
        and job queries alive (state recovered from the KVS journal)."""
        for rank, broker in enumerate(self.session.brokers):
            mod = broker.modules.get("job")
            if mod is None:
                continue
            mod.bind(self._submit_from_wire,
                     depth_fn=lambda: len(self.queue),
                     max_pending=self.max_pending,
                     standby=rank != 0,
                     on_takeover=self._adopt_job_manager)
            if rank == 0:
                self._jobmgr = mod

    def _adopt_job_manager(self, mod) -> None:
        """Re-home journaling onto the promoted (acting-root) module.

        Transitions that landed between the old root's death and this
        promotion were journaled into the corpse and lost — re-journal
        every known job's *current* state through the acting module so
        the KVS record, the event mirror, and any waiters listening for
        a terminal ``job.state`` all catch up."""
        self._jobmgr = mod
        for job in self.jobs.values():
            mod.journal(job, job.state.value, self.sim.now)

    #: JobSpec fields accepted over the wire (whitelist: wire specs are
    #: plain JSON and must not smuggle callables or nested instances).
    _WIRE_FIELDS = ("ncores", "duration", "walltime", "name", "task",
                    "ntasks", "task_args", "min_cores", "max_cores",
                    "malleable", "serial_fraction")

    def _submit_from_wire(self, payload: dict) -> Job:
        if "ncores" not in payload:
            raise ValueError("spec needs ncores")
        kwargs = {k: payload[k] for k in self._WIRE_FIELDS
                  if k in payload}
        return self.submit(JobSpec(**kwargs))

    def _pool_node_ids(self) -> list[int]:
        """Cluster node ids backing this instance's resource pool."""
        return sorted(node.properties.get("index", node.rid)
                      for node in self.pool.nodes())

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Levels above this instance (root = 0)."""
        d, cur = 0, self.parent
        while cur is not None:
            d, cur = d + 1, cur.parent
        return d

    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a job; returns its :class:`Job` immediately."""
        if not self.active:
            raise RuntimeError(f"instance {self.name!r} is shut down")
        if self.queue.full:
            raise RuntimeError(
                f"pending queue full ({self.queue.limit} jobs)")
        job = Job(spec, self)
        self.jobs[job.jobid] = job
        self.queue.push(job)
        self._record_job_state(job, "pending")
        self._kick()
        return job

    def cancel(self, job: Job) -> None:
        """Cancel a pending job (running jobs run to completion)."""
        if job.state is JobState.PENDING:
            self.queue.remove(job)
            job.state = JobState.CANCELLED
            job.end_time = self.sim.now
            self._record_job_state(job, "cancelled")
            self._check_drained()

    def running_jobs(self) -> list[Job]:
        """Jobs currently executing."""
        return [j for j in self.jobs.values()
                if j.state is JobState.RUNNING]

    def completed_jobs(self) -> list[Job]:
        """Jobs in a terminal state."""
        return [j for j in self.jobs.values() if j.done]

    def drain(self) -> Event:
        """Event firing when every submitted job has reached a terminal
        state (and the queue is empty)."""
        ev = self.sim.event(name=f"drain:{self.name}")
        if self._is_drained():
            ev.succeed(self._stats())
        else:
            self._drain_waiters.append(ev)
        return ev

    def shutdown(self) -> None:
        """Stop scheduling (pending jobs are cancelled) and tear down
        this instance's comms session if it owns one."""
        for job in list(self.queue):
            self.cancel(job)
        self.active = False
        self._kick()
        if self.session is not None and self._owns_session:
            self.session.stop()

    # -- metrics ----------------------------------------------------------
    def utilization(self) -> float:
        """Busy-core-seconds over capacity-seconds since creation."""
        self._integrate()
        total = self.pool.total_cores()
        horizon = self.sim.now
        if horizon <= 0 or total == 0:
            return 0.0
        return self._busy_area / (total * horizon)

    def makespan(self) -> float:
        """Last completion time among finished jobs (0 if none)."""
        ends = [j.end_time for j in self.jobs.values()
                if j.end_time is not None]
        return max(ends) if ends else 0.0

    def mean_wait(self) -> float:
        """Average queue wait over started jobs."""
        waits = [j.wait_time for j in self.jobs.values()
                 if j.wait_time is not None]
        return sum(waits) / len(waits) if waits else 0.0

    # ------------------------------------------------------------------
    # elasticity (parental-consent chain)
    # ------------------------------------------------------------------
    def request_grow(self, job: Job, ncores: int) -> int:
        """Grow a running job's allocation by up to ``ncores``.

        Tries local free resources first; if short and this instance
        has a parent, asks the parent to grow *this instance's* grant
        (which recurses upward), grafts any new cores into the local
        graph, and retries.  Returns cores actually added.
        """
        if job.allocation is None:
            raise AllocationError(f"job {job.jobid} is not running")
        got = self.pool.grow(job.jobid, ncores)
        if got < ncores and self.parent is not None \
                and self.host_job is not None:
            granted = self.parent.grow_instance(
                self.host_job, ncores - got)
            if granted > 0:
                got += self.pool.grow(job.jobid, ncores - got)
        if got:
            self._busy_delta(got)
            self._notify_resize(job)
        return got

    def request_shrink(self, job: Job, ncores: int) -> int:
        """Give back up to ``ncores`` from a running job's allocation."""
        if job.allocation is None:
            raise AllocationError(f"job {job.jobid} is not running")
        freed = self.pool.shrink(job.jobid, ncores)
        if freed:
            self._busy_delta(-freed)
            self._notify_resize(job)
            self._kick()  # freed cores may unblock queued jobs
        return freed

    def _notify_resize(self, job: Job) -> None:
        """Wake the job's duration runner so it re-paces to the new
        allocation size."""
        ev = job._resize_ev
        if ev is not None and not ev.triggered:
            ev.succeed()

    def grow_instance(self, child_job: Job, ncores: int) -> int:
        """Parent-side consent: extend ``child_job``'s allocation and
        graft the new cores into the child instance's graph."""
        alloc = self.pool.allocations.get(child_job.jobid)
        if alloc is None or child_job.child is None:
            return 0
        before = {nrid: set(crids) for nrid, crids in alloc.cores.items()}
        got = self.pool.grow(child_job.jobid, ncores)
        if got < ncores and self.parent is not None \
                and self.host_job is not None:
            # Recurse upward: maybe the grandparent has slack for us.
            granted = self.parent.grow_instance(self.host_job, ncores - got)
            if granted > 0:
                got += self.pool.grow(child_job.jobid, ncores - got)
        if got == 0:
            return 0
        new_cores = {
            nrid: [c for c in crids if c not in before.get(nrid, set())]
            for nrid, crids in alloc.cores.items()}
        new_cores = {n: cs for n, cs in new_cores.items() if cs}
        graft_allocation(self.pool.graph, child_job.child.pool.graph,
                         new_cores)
        self._busy_delta(got)
        return got

    # ------------------------------------------------------------------
    # scheduler engine
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    def _scheduler(self):
        while True:
            if not self._wake.triggered:
                yield self._wake
            self._wake = self.sim.event(name=f"wake:{self.name}")
            if not self.active:
                return
            if len(self.queue):
                cost = self.cost_model.pass_cost(len(self.queue),
                                                 len(self.pool.nodes()))
                if cost > 0:
                    yield self.sim.timeout(cost)
                    self.sched_time += cost
                self.sched_passes += 1
                for job in self.policy.select(self, self.queue.snapshot()):
                    if job.state is JobState.PENDING:
                        self._try_start(job)
            # Runs even with an empty queue: freed cores flow back into
            # running malleable jobs.
            self._rebalance_malleable()

    def _request_for(self, spec: JobSpec,
                     ncores: Optional[int] = None) -> AllocationRequest:
        return AllocationRequest(
            ncores=ncores if ncores is not None else spec.ncores,
            memory_per_core=spec.memory_per_core,
            watts_per_core=spec.watts_per_core,
            exclusive=spec.exclusive,
            extra_charges=tuple(spec.extra_charges),
        )

    def _molded_size(self, spec: JobSpec) -> int:
        """Start size for a moldable job.

        Equal-share heuristic: offer the job ``free / queued`` cores so
        a backlog of moldable jobs divides the machine and everyone
        starts at once, rather than the first grabbing ``max_cores``
        and starving the rest.  A lone job gets everything up to its
        max.  The caller rejects grants below ``min_cores``.
        """
        free = self.pool.total_free_cores()
        lo = spec.min_cores if spec.min_cores is not None else spec.ncores
        hi = spec.max_cores if spec.max_cores is not None else spec.ncores
        fair = free // max(len(self.queue), 1)
        return min(free, max(lo, min(hi, fair)))

    def _try_start(self, job: Job) -> bool:
        spec = job.spec
        grant = None
        if spec.is_moldable:
            grant = self._molded_size(spec)
            lo = spec.min_cores if spec.min_cores is not None else spec.ncores
            if grant < lo:
                return False
        try:
            alloc = self.pool.allocate(job.jobid,
                                       self._request_for(spec, grant))
        except AllocationError:
            return False
        self.queue.remove(job)
        job.allocation = alloc
        self._record_job_state(job, "scheduled")
        job.state = JobState.RUNNING
        job.start_time = self.sim.now
        self._busy_delta(alloc.ncores)
        if job.spec.kind is JobKind.INSTANCE:
            self.sim.spawn(self._run_instance_job(job),
                           name=f"ijob:{job.jobid}")
        else:
            self.sim.spawn(self._run_program_job(job),
                           name=f"pjob:{job.jobid}")
        return True

    def _run_program_job(self, job: Job):
        spec = job.spec
        self._record_job_state(job, "running")
        runner = self.sim.spawn(self._program_body(job),
                                name=f"pbody:{job.jobid}", contain=True)
        watchdog = None
        # A rigid duration job finishes at exactly t=duration, and
        # JobSpec defaults walltime to duration — don't arm a watchdog
        # that could only ever tie with the job's own completion.
        cannot_overrun = (spec.task is None and spec.body is None
                          and not spec.is_moldable and not spec.malleable
                          and (spec.walltime or 0) >= (spec.duration or 0))
        if self.enforce_walltime and (spec.walltime or 0) > 0 \
                and not cannot_overrun:
            watchdog = self.sim.spawn(
                self._walltime_watchdog(job, runner),
                name=f"walltime:{job.jobid}", contain=True)
        try:
            yield runner
        except Exception as exc:
            if not job._timed_out:
                job.error = str(exc)
            self._finish(job, JobState.TIMEOUT if job._timed_out
                         else JobState.FAILED)
            return
        finally:
            if watchdog is not None and watchdog.is_alive:
                watchdog.interrupt()
        if job._timed_out:
            self._finish(job, JobState.TIMEOUT)
            return
        self._finish(job, JobState.COMPLETE)

    def _program_body(self, job: Job):
        """The job's actual workload, isolated in its own (contained)
        process so the walltime watchdog can tear it down."""
        spec = job.spec
        if spec.task is not None:
            rc = yield from self._run_task_job(job)
            if rc != 0:
                raise RuntimeError(f"task exited with status {rc}")
        elif spec.body is not None:
            body = self.sim.spawn(spec.body(job, self),
                                  name=f"body:{job.jobid}",
                                  contain=True)
            job._body_proc = body
            yield body
        elif spec.duration > 0:
            yield from self._run_duration(job)

    def _walltime_watchdog(self, job: Job, runner):
        """Walltime enforcement (sim-clock): SIGTERM at the limit,
        SIGKILL after ``term_grace``, then hard teardown — the job
        lands in TIMEOUT instead of running (or hanging) forever."""
        try:
            yield self.sim.timeout(job.spec.walltime)
        except Interrupt:
            return          # runner finished inside its walltime
        if not runner.is_alive:
            return
        job._timed_out = True
        job.error = f"walltime {job.spec.walltime}s exceeded"
        self._deliver_job_signal(job, runner, 15)
        yield self.sim.timeout(self.term_grace)
        if not runner.is_alive:
            return
        self._deliver_job_signal(job, runner, 9)
        yield self.sim.timeout(self.term_grace)
        if runner.is_alive:
            runner.interrupt(9)

    def _deliver_job_signal(self, job: Job, runner, signum: int) -> None:
        """Route a watchdog signal to the job's workload: task jobs
        get a session-wide ``wexec.signal`` (each task sees a real
        Interrupt and exits 128+sig), body jobs an Interrupt into the
        body process (bodies may catch it to clean up), duration jobs
        an Interrupt into the runner itself."""
        if job.spec.task is not None and self.session is not None:
            root = self.session.acting_root()
            if root is not None:
                self.session.brokers[root].publish(
                    "wexec.signal",
                    {"jobid": f"lwj{job.jobid}", "signum": signum})
            return
        target = job._body_proc
        if target is None or not target.is_alive:
            target = runner
        if target.is_alive:
            target.interrupt(signum)

    def _run_duration(self, job: Job):
        """Execute a fixed-work job, re-pacing on every resize.

        The job's total work is normalized to 1.0; running on ``n``
        cores burns it at rate ``1 / runtime_at(n)``.  A rigid job
        never resizes, so this degenerates to one ``timeout(duration)``.
        """
        spec = job.spec
        remaining = 1.0
        while remaining > 1e-12:
            assert job.allocation is not None
            n = max(job.allocation.ncores, 1)
            rate = 1.0 / spec.runtime_at(n)
            t0 = self.sim.now
            job._resize_ev = self.sim.event(name=f"resize:{job.jobid}")
            finished = self.sim.timeout(remaining / rate)
            which, _value = yield self.sim.any_of([finished,
                                                   job._resize_ev])
            remaining -= (self.sim.now - t0) * rate
            if which == 0:
                break
            # Superseded completion estimate: drop it from the event
            # heap so it neither fires nor drags the clock forward.
            finished.abandon()
        job._resize_ev = None

    def _session_ranks_of(self, job: Job) -> list[int]:
        """Session ranks hosting a job's allocated nodes."""
        assert self.session is not None and job.allocation is not None
        by_node = {nid: rank
                   for rank, nid in enumerate(self.session.node_ids)}
        return sorted(by_node[nid]
                      for nid in job.allocation.node_indices(self.pool.graph))

    def _run_task_job(self, job: Job):
        """Launch a registered wexec task across the job's allocation
        (requires an instance comms session)."""
        if self.session is None:
            raise RuntimeError(
                f"job {job.jobid}: task jobs need an instance comms "
                "session (pass CommsConfig)")
        spec = job.spec
        ranks = self._session_ranks_of(job)
        ntasks = spec.ntasks if spec.ntasks is not None else spec.ncores
        lwj = f"lwj{job.jobid}"
        handle = self.session.connect(ranks[0], collective=False)
        done_ch = self.sim.channel(name=f"wexec-done:{lwj}")
        handle.subscribe("wexec.done", done_ch.put)
        handle.subscribe("wexec.lost", done_ch.put)
        try:
            yield handle.rpc("wexec.run", {
                "jobid": lwj, "task": spec.task, "nprocs": ntasks,
                "ranks": ranks, "args": spec.task_args})
            while True:
                msg = yield done_ch.get()
                if msg.payload["jobid"] != lwj:
                    continue
                if msg.topic == "wexec.lost":
                    # Respawn budget exhausted: the job fails instead
                    # of waiting forever on a tally that cannot close.
                    raise RuntimeError(
                        f"lost tasks {msg.payload['taskranks']}: "
                        f"{msg.payload['reason']}")
                return msg.payload["status"]
        finally:
            handle.close()

    def _record_job_state(self, job: Job, state: str) -> None:
        """Journal the job's transition into the instance KVS
        (``lwj.<jobid>.state`` — the provenance store the paper's
        design calls for) and announce it on the event plane for
        in-band submitters.  Routed through the *active* job manager
        module, so after a root failover the journal keeps flowing
        from the acting root."""
        if self.session is None:
            return
        if self._jobmgr is not None:
            self._jobmgr.journal(job, state, self.sim.now)
            return
        # No job module loaded in this session: journal directly.
        kvs = self.session.brokers[0].modules.get("kvs")
        if kvs is None:
            return
        kvs.local_put(("job-manager", job.jobid),
                      f"lwj.{job.jobid}.state",
                      {"state": state, "t": self.sim.now,
                       "ncores": job.spec.ncores,
                       "name": job.spec.name})
        kvs.local_commit(("job-manager", job.jobid))

    def _run_instance_job(self, job: Job):
        spec = job.spec
        assert job.allocation is not None
        self._record_job_state(job, "running")
        child_graph = project_allocation(self.pool.graph, job.allocation,
                                         name=spec.name or f"job{job.jobid}")
        child_pool = ResourcePool(child_graph)
        policy = (spec.child_policy() if spec.child_policy is not None
                  else type(self.policy)())
        child_session = None
        if self.comms is not None:
            # Parent-assisted bring-up of the child's own overlay
            # (Section III: "the existing communication session of the
            # parent job assists the child job with rapid creation").
            node_ids = job.allocation.node_indices(self.pool.graph)
            yield self.sim.timeout(
                self.comms.bootstrap_delay(len(node_ids), assisted=True))
            child_session = self.comms.build_session(node_ids).start()
        child = FluxInstance(self.sim, child_pool, policy=policy,
                             cost_model=self.cost_model, parent=self,
                             host_job=job,
                             name=spec.name or f"child{job.jobid}",
                             comms=self.comms, session=child_session)
        child._owns_session = child_session is not None
        job.child = child
        for sub in spec.subjobs:
            child.submit(sub)
        if spec.subjobs:
            yield child.drain()
        child.shutdown()
        self._finish(job, JobState.COMPLETE)

    def _malleable_running(self) -> list[Job]:
        return [j for j in self.running_jobs()
                if j.spec.malleable and j.allocation is not None]

    def _rebalance_malleable(self) -> None:
        """Malleability (paper Challenge 3): reclaim cores from running
        malleable jobs (down to their min) to admit the queue head, and
        spread any remaining idle cores back over them (up to max)."""
        pending = self.queue.snapshot()
        if pending:
            head = pending[0]
            want = (head.spec.min_cores if head.spec.is_moldable
                    and head.spec.min_cores is not None
                    else head.spec.ncores)
            shortfall = want - self.pool.total_free_cores()
            if shortfall > 0:
                for job in self._malleable_running():
                    lo = job.spec.min_cores or job.spec.ncores
                    excess = job.allocation.ncores - lo
                    if excess <= 0:
                        continue
                    freed = self.request_shrink(job,
                                                min(excess, shortfall))
                    shortfall -= freed
                    if shortfall <= 0:
                        break
                if shortfall <= 0 and head.state is JobState.PENDING:
                    self._try_start(head)
            return
        free = self.pool.total_free_cores()
        if free <= 0:
            return
        for job in self._malleable_running():
            hi = job.spec.max_cores if job.spec.max_cores is not None \
                else job.spec.ncores
            room = hi - job.allocation.ncores
            if room <= 0:
                continue
            got = self.request_grow(job, min(room, free))
            free -= got
            if free <= 0:
                break

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.end_time = self.sim.now
        self._record_job_state(job, state.value)
        if job.allocation is not None:
            released = self.pool.release(job.jobid)
            self._busy_delta(-released.ncores)
            job.allocation = None
        self._kick()
        self._check_drained()

    # ------------------------------------------------------------------
    # drain + utilization plumbing
    # ------------------------------------------------------------------
    def _is_drained(self) -> bool:
        return (len(self.queue) == 0
                and all(j.done for j in self.jobs.values()))

    def _check_drained(self) -> None:
        if self._is_drained() and self._drain_waiters:
            stats = self._stats()
            waiters, self._drain_waiters = self._drain_waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed(stats)

    def _stats(self) -> dict[str, Any]:
        return {
            "jobs": len(self.jobs),
            "makespan": self.makespan(),
            "mean_wait": self.mean_wait(),
            "sched_passes": self.sched_passes,
            "sched_time": self.sched_time,
        }

    def _busy_delta(self, delta: int) -> None:
        self._integrate()
        self._busy_cores += delta

    def _integrate(self) -> None:
        now = self.sim.now
        self._busy_area += self._busy_cores * (now - self._busy_last_t)
        self._busy_last_t = now

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FluxInstance {self.name!r} depth={self.depth} "
                f"jobs={len(self.jobs)} queued={len(self.queue)}>")
