"""``wexec`` — bulk remote execution (Table I) with node-loss recovery.

"Remote processes can be launched in bulk, monitored, receive signals,
and have standard I/O captured in the KVS."

Launch: a ``wexec.run`` RPC reaches the root, which validates the job
spec and publishes a ``wexec.start`` event.  Every broker computes its
own task set from the spec — task rank *r* runs on session rank
``ranks[r % len(ranks)]``, the cyclic distribution KAP describes
("consecutive rank processes are distributed to consecutive nodes") —
and spawns the tasks as simulated processes.

Monitoring: when all of a broker's local tasks finish, a completion
tally is reduced up the tree (each broker waits for its whole subtree
before forwarding one message); the root publishes ``wexec.done`` when
the job's full ``nprocs`` have completed.

I/O: each task's stdout lines are committed to the KVS under
``lwj.<jobid>.<taskrank>.stdout`` when the ``kvs`` module is loaded.

Signals: ``wexec.signal`` broadcasts an event; brokers interrupt the
targeted local tasks.  Signals arriving before the (possibly delayed)
``wexec.start`` are buffered and re-applied at start.

Fault model (node loss)
-----------------------
Tasks die with their node.  On a ``live.down`` event the root-role
broker (``broker.parent is None`` — the static root, or the acting
root after a PR 6 takeover) recomputes the *lost* taskranks — those
assigned to the dead rank with no recorded completion — and, after an
exponential backoff, re-publishes them in a ``wexec.respawn`` event
pinned to the surviving ranks.  The respawn carries a monotonically
increasing per-job *epoch*; every broker applies the event in event
total order, so assignment maps stay consistent session-wide.

Completion is **exactly-once** per ``(jobid, taskrank)``: the rc table
is a first-wins union keyed by taskrank (tallies carry the spawning
epoch, so late duplicates from a falsely-buried rank and respawned
re-executions are distinguishable but never double-counted), and
subtree tallies are re-based against the live rank set and re-forwarded
on ``live.down`` / ``live.reattach`` — idempotent at every hop.

A per-task retry budget (``max_restarts``) bounds re-execution: a task
lost more often than the budget allows — or left with no surviving
rank to run on — fails the whole job via a ``wexec.lost`` event
instead of hanging the completion reduction forever.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ...sim.kernel import Interrupt, Process
from ..errors import EEXIST, EINVAL, ENOENT
from ..message import Message
from ..module import CommsModule, request_handler

__all__ = ["WexecModule", "TaskContext"]

#: Signal numbers used by the escalation ladder.
_SIGTERM = 15
_SIGKILL = 9


class TaskContext:
    """Execution context handed to each launched task.

    A task factory has signature ``factory(ctx) -> generator``; the
    generator may yield simulation events (e.g. ``ctx.sim.timeout``)
    to model work, and use :meth:`print` for captured stdout or
    :meth:`connect` for a CMB handle (PMI, KVS, barriers).
    """

    def __init__(self, module: "WexecModule", jobid: Any, taskrank: int,
                 nprocs: int, args: dict, epoch: int = 0):
        self.module = module
        self.jobid = jobid
        self.taskrank = taskrank
        self.nprocs = nprocs
        self.args = args
        #: Respawn epoch this incarnation was spawned under (0 = the
        #: original ``wexec.start`` launch); rides the completion tally
        #: so duplicate completions are attributable.
        self.epoch = epoch
        self.stdout: list[str] = []
        self.signal: Optional[int] = None
        #: Free-form task status, visible to attached tools via the
        #: ``wexec.query`` RPC (the paper's "secure third-party access
        #: to running jobs" for debuggers/profilers).
        self.status: str = "starting"

    @property
    def sim(self):
        """The simulation clock/event factory."""
        return self.module.broker.sim

    @property
    def broker_rank(self) -> int:
        """Session rank of the hosting broker."""
        return self.module.rank

    def print(self, text: str) -> None:
        """Capture one line of standard output."""
        self.stdout.append(text)

    def connect(self):
        """Open a CMB handle on the local broker (closed automatically
        when the task ends)."""
        handle = self.module.broker.session.connect(self.module.rank)
        self.module._task_handles.setdefault(
            (self.jobid, self.taskrank), []).append(handle)
        return handle


class _JobState:
    __slots__ = ("spec", "assign", "epoch", "retries", "rcs", "rc_epochs",
                 "forwarded", "failed", "procs", "ctxs")

    def __init__(self, spec: dict):
        self.spec = spec
        #: Current taskrank -> session rank placement.  Initialized to
        #: the cyclic distribution; rewritten (identically on every
        #: broker) by totally-ordered ``wexec.respawn`` events.
        self.assign: dict[int, int] = {}
        #: Highest respawn epoch applied (0 = no respawns yet).
        self.epoch = 0
        #: Per-task respawn counts (from applied respawn events, so
        #: every broker — including a future acting root — agrees).
        self.retries: dict[int, int] = {}
        #: First-wins rc per completed taskrank (exactly-once record).
        self.rcs: dict[int, int] = {}
        #: Epoch each recorded rc was produced under.
        self.rc_epochs: dict[int, int] = {}
        self.forwarded = False
        #: Set when a ``wexec.lost`` terminated the job.
        self.failed = False
        self.procs: dict[int, Process] = {}
        self.ctxs: dict[int, "TaskContext"] = {}


class WexecModule(CommsModule):
    """Bulk launcher / monitor for simulated remote processes.

    Config
    ------
    registry:
        ``{task_name: factory(ctx) -> generator}`` — the launchable
        programs (the simulated equivalent of executables on disk).
    max_restarts:
        Per-task respawn budget after node loss (default 2).  A task
        lost more than this drives the job to a ``wexec.lost`` failure
        instead of hanging.
    respawn_backoff:
        Base delay before the first respawn of a lost task; doubles
        per prior restart (exponential backoff, default 0.05 s).
    """

    name = "wexec"

    def __init__(self, broker, *,
                 registry: Optional[dict[str, Callable]] = None,
                 max_restarts: int = 2,
                 respawn_backoff: float = 0.05):
        super().__init__(broker, registry=registry,
                         max_restarts=max_restarts,
                         respawn_backoff=respawn_backoff)
        self.registry = registry or {}
        self.max_restarts = max_restarts
        self.respawn_backoff = respawn_backoff
        self.jobs: dict[Any, _JobState] = {}
        self.output: dict[tuple, list[str]] = {}
        self._task_handles: dict[tuple, list] = {}
        self.done_jobs: list[Any] = []
        #: Jobs terminated by ``wexec.lost`` (retry budget exhausted).
        self.lost_jobs: list[Any] = []
        #: rcs of tasks that finished after their job record was
        #: already retired (late finishers must not lose accounting).
        self.late_rcs: dict[tuple, int] = {}
        #: Signals buffered for jobs whose ``wexec.start`` has not
        #: arrived yet (event delay/duplication under chaos).
        self._pending_signals: dict[Any, list[int]] = {}
        #: Ranks declared dead by ``live.down`` (pruned on reattach).
        self._dead: set[int] = set()
        self._subtree: frozenset = frozenset()
        #: Respawn telemetry: tasks this broker re-spawned locally.
        self.respawns = 0

    def start(self) -> None:
        self.broker.subscribe("wexec.start", self._on_start)
        self.broker.subscribe("wexec.signal", self._on_signal)
        self.broker.subscribe("wexec.done", self._on_done)
        self.broker.subscribe("wexec.respawn", self._on_respawn)
        self.broker.subscribe("wexec.lost", self._on_lost)
        self.broker.subscribe("live.down", self._on_live_down)
        self.broker.subscribe("live.reattach", self._on_live_reattach)
        self._subtree = frozenset(
            self.broker.session.topology.subtree(self.rank))

    def sync_metrics(self) -> None:
        reg = self.broker.registry
        reg.gauge("wexec_respawns_total", ns=self.name).set(self.respawns)
        reg.gauge("wexec_jobs_lost_total",
                  ns=self.name).set(len(self.lost_jobs))

    # ------------------------------------------------------------------
    # launch path
    # ------------------------------------------------------------------
    @request_handler(required=("jobid",))
    def req_run(self, msg: Message) -> None:
        """Client RPC: run {jobid, task, nprocs, ranks?, args?}."""
        if self.broker.parent is not None:
            self.proxy_upstream(msg)
            return
        p = msg.payload
        jobid = p["jobid"]
        task = p.get("task")
        nprocs = p.get("nprocs", 1)
        ranks = p.get("ranks") or list(range(self.broker.session.size))
        if task not in self.registry:
            self.respond(msg, error=f"unknown task {task!r}", code=ENOENT)
            return
        if nprocs < 1 or not ranks:
            self.respond(msg, error="bad job shape", code=EINVAL)
            return
        if jobid in self.jobs:
            # A *distinct* request reusing an active jobid (a replayed
            # duplicate of the same request is absorbed by the broker's
            # replay cache before ever reaching this handler).
            self.respond(msg, error=f"job {jobid!r} is already running",
                         code=EEXIST)
            return
        spec = {"jobid": jobid, "task": task, "nprocs": nprocs,
                "ranks": list(ranks), "args": p.get("args", {})}
        self.broker.publish("wexec.start", spec)
        self.respond(msg, {"jobid": jobid, "nprocs": nprocs})

    def _taskranks_for(self, spec: dict, rank: int) -> list[int]:
        ranks = spec["ranks"]
        return [r for r in range(spec["nprocs"])
                if ranks[r % len(ranks)] == rank]

    def _on_start(self, msg: Message) -> None:
        spec = msg.payload
        jobid = spec["jobid"]
        state = _JobState(spec)
        self.jobs[jobid] = state
        ranks = spec["ranks"]
        state.assign = {t: ranks[t % len(ranks)]
                        for t in range(spec["nprocs"])}
        factory = self.registry.get(spec["task"])
        for taskrank in self._taskranks_for(spec, self.rank):
            self._spawn_task(state, taskrank, factory)
        pending = self._pending_signals.pop(jobid, [])
        if pending:
            # One tick later: the task processes spawned above have not
            # taken their first step yet, and a process cannot absorb
            # an interrupt before it starts.
            self.broker.after(0.0, lambda: self._apply_pending(jobid,
                                                               pending))
        self._maybe_forward(state)

    def _apply_pending(self, jobid: Any, signums: list[int]) -> None:
        state = self.jobs.get(jobid)
        if state is None:
            return
        for signum in signums:
            self._signal_local(state, signum)

    def _spawn_task(self, state: _JobState, taskrank: int,
                    factory: Callable) -> None:
        spec = state.spec
        ctx = TaskContext(self, spec["jobid"], taskrank, spec["nprocs"],
                          spec["args"], epoch=state.epoch)
        state.ctxs[taskrank] = ctx
        proc = self.broker.sim.spawn(
            self._run_task(ctx, factory),
            name=f"task[{spec['jobid']}:{taskrank}]")
        state.procs[taskrank] = proc

    def _run_task(self, ctx: TaskContext, factory: Callable):
        rc = 0
        body = self.broker.sim.spawn(
            factory(ctx), name=f"body[{ctx.jobid}:{ctx.taskrank}]",
            contain=True)
        try:
            yield body
        except Interrupt as it:
            ctx.signal = it.cause if isinstance(it.cause, int) else _SIGTERM
            if body.is_alive:
                body.interrupt(it.cause)
            rc = 128 + ctx.signal
        except Exception:
            rc = 1
        self._task_finished(ctx, rc)

    def _task_finished(self, ctx: TaskContext, rc: int) -> None:
        key = (ctx.jobid, ctx.taskrank)
        for handle in self._task_handles.pop(key, []):
            handle.close()
        if not self.broker.alive:
            # The hosting node died mid-task: a real process dies with
            # its node, so nothing is recorded or forwarded — the
            # root's respawn path re-executes the task elsewhere.
            return
        state = self.jobs.get(ctx.jobid)
        if state is not None \
                and state.assign.get(ctx.taskrank) != self.rank:
            # The task was reassigned away from this rank (respawned
            # elsewhere after we were falsely declared dead, or this
            # incarnation was canceled by the move): the current
            # owner's completion is the one that counts.
            if state.procs.get(ctx.taskrank) is not None \
                    and not state.procs[ctx.taskrank].is_alive:
                state.procs.pop(ctx.taskrank, None)
            return
        self.output[key] = list(ctx.stdout)
        self._store_stdout(ctx)
        if state is None:
            # Late finisher: the job record was already retired
            # (wexec.done / wexec.lost).  Keep the rc anyway so the
            # accounting survives the race.
            self.late_rcs[key] = rc
            return
        if ctx.taskrank not in state.rcs:
            state.rcs[ctx.taskrank] = rc
            state.rc_epochs[ctx.taskrank] = ctx.epoch
        state.procs.pop(ctx.taskrank, None)
        self._maybe_forward(state)

    def _store_stdout(self, ctx: TaskContext) -> None:
        kvs = self.broker.modules.get("kvs")
        if kvs is None or not ctx.stdout:
            return
        key = f"lwj.{ctx.jobid}.{ctx.taskrank}.stdout"
        kvs.local_put(("wexec", ctx.jobid, ctx.taskrank), key, ctx.stdout)
        kvs.local_commit(("wexec", ctx.jobid, ctx.taskrank))

    # ------------------------------------------------------------------
    # completion reduction
    # ------------------------------------------------------------------
    @request_handler(required=("jobid", "count", "rcs"))
    def req_complete(self, msg: Message) -> None:
        """A child subtree's (cumulative, idempotent) completion tally."""
        p = msg.payload
        self.respond(msg, {})
        state = self.jobs.get(p["jobid"])
        if state is None:
            return
        epochs = p.get("epochs") or {}
        for taskrank, rc in p["rcs"].items():
            t = int(taskrank)
            if t not in state.rcs:
                state.rcs[t] = rc
                state.rc_epochs[t] = int(epochs.get(taskrank, 0))
        self._maybe_forward(state)

    def _expected(self, state: _JobState) -> list[int]:
        """Taskranks this broker's (static) subtree owes, re-based
        against the live rank set: tasks assigned to a dead rank are
        the root's respawn problem, not a reason to hold the tally."""
        brokers = self.broker.session.brokers
        return [t for t, r in state.assign.items()
                if r in self._subtree and brokers[r].alive]

    def _maybe_forward(self, state: _JobState) -> None:
        if state.forwarded or state.failed:
            return
        if self.broker.parent is None:
            # Root role (static root, or the acting root after a
            # takeover): completion is job-wide — every taskrank.
            if len(state.rcs) >= state.spec["nprocs"]:
                state.forwarded = True
                self._publish_done(state)
            return
        if not state.rcs:
            return
        rcs = state.rcs
        for t in self._expected(state):
            if t not in rcs:
                return
        state.forwarded = True
        payload = {"jobid": state.spec["jobid"], "count": len(rcs),
                   "rcs": {str(k): v for k, v in rcs.items()}}
        epochs = {str(k): e for k, e in state.rc_epochs.items() if e}
        if epochs:
            payload["epochs"] = epochs
        self.broker.rpc_parent_cb("wexec.complete", payload,
                                  lambda resp: None)

    def _publish_done(self, state: _JobState) -> None:
        jobid = state.spec["jobid"]
        status = max(state.rcs.values(), default=0)
        self.broker.publish("wexec.done",
                            {"jobid": jobid, "status": status,
                             "rcs": {str(k): v
                                     for k, v in state.rcs.items()}})

    def _on_done(self, msg: Message) -> None:
        jobid = msg.payload["jobid"]
        self.jobs.pop(jobid, None)
        self._pending_signals.pop(jobid, None)
        self.done_jobs.append(jobid)

    # ------------------------------------------------------------------
    # node-loss recovery
    # ------------------------------------------------------------------
    def node_failed(self) -> None:
        """Physical teardown: this broker's node just died, taking its
        task processes with it (called by the fault injector, *not* a
        protocol message — a corpse cannot run recovery code)."""
        for state in self.jobs.values():
            for proc in list(state.procs.values()):
                if proc.is_alive:
                    proc.interrupt(_SIGKILL)

    def _on_live_down(self, msg: Message) -> None:
        dead = msg.payload["rank"]
        self._dead.add(dead)
        if not self.jobs:
            return
        # Defer one tick: the live module's own live.down handler runs
        # after ours (module start order) and heals the overlay's
        # parent pointers — recovery must route over the healed tree.
        self.broker.after(0.0, lambda: self._recover_after_down(dead))

    def _recover_after_down(self, dead: int) -> None:
        if not self.broker.alive:
            return
        for jobid in list(self.jobs):
            state = self.jobs.get(jobid)
            if state is None or state.failed:
                continue
            # Re-base the tally against the shrunken live set and
            # re-forward (idempotent first-wins union upstream).
            state.forwarded = False
            if self.broker.parent is None:
                self._respawn_lost(jobid, state, dead)
            self._maybe_forward(state)

    def _on_live_reattach(self, msg: Message) -> None:
        self._dead.discard(msg.payload["rank"])
        if not self.jobs:
            return
        self.broker.after(0.0, self._rebase_after_reattach)

    def _rebase_after_reattach(self) -> None:
        if not self.broker.alive:
            return
        for jobid in list(self.jobs):
            state = self.jobs.get(jobid)
            if state is None or state.failed:
                continue
            # The returnee re-forwards its cumulative tally; interior
            # brokers re-evaluate against the restored expected set.
            state.forwarded = False
            self._maybe_forward(state)

    def _respawn_lost(self, jobid: Any, state: _JobState,
                      dead: int) -> None:
        """Root role: re-execute the dead rank's unfinished tasks."""
        lost = [t for t, r in state.assign.items()
                if r == dead and t not in state.rcs]
        if not lost:
            return
        over = [t for t in lost
                if state.retries.get(t, 0) >= self.max_restarts]
        if over:
            self._publish_lost(
                jobid, state, lost,
                f"retry budget exhausted (max_restarts="
                f"{self.max_restarts})")
            return
        epoch = state.epoch + 1
        worst = max(state.retries.get(t, 0) for t in lost)
        delay = self.respawn_backoff * (2 ** worst)
        self.broker.after(
            delay, lambda: self._publish_respawn(jobid, epoch, lost))

    def _publish_respawn(self, jobid: Any, epoch: int,
                         lost: list[int]) -> None:
        if not self.broker.alive or self.broker.parent is not None:
            return
        state = self.jobs.get(jobid)
        if state is None or state.failed or epoch != state.epoch + 1:
            return          # job finished / failed / superseded meanwhile
        lost = [t for t in lost if t not in state.rcs]
        if not lost:
            return
        survivors = [r for r in state.spec["ranks"]
                     if r not in self._dead
                     and self.broker.session.brokers[r].alive]
        if not survivors:
            self._publish_lost(jobid, state, lost,
                               "no surviving ranks to respawn on")
            return
        self.log("err", f"job {jobid!r}: respawning tasks {lost} "
                        f"(epoch {epoch}) on ranks {survivors}")
        self.broker._frec(self.broker.sim.now, "wexec_respawn",
                          jobid, epoch, tuple(lost))
        tr = self.broker.session.span_tracer
        span = None
        if tr is not None:
            span = tr.start_trace("wexec_respawn", None, self.rank,
                                  jobid=jobid, epoch=epoch,
                                  tasks=list(lost))
            tr.finish(span)  # fire-and-forget: deliveries are children
        self.broker.publish("wexec.respawn",
                            {"jobid": jobid, "epoch": epoch,
                             "taskranks": lost, "ranks": survivors},
                            span=span)

    def _publish_lost(self, jobid: Any, state: _JobState,
                      taskranks: list[int], reason: str) -> None:
        state.failed = True
        self.log("err", f"job {jobid!r} lost tasks "
                        f"{sorted(taskranks)}: {reason}")
        self.broker._frec(self.broker.sim.now, "wexec_lost",
                          jobid, reason, tuple(sorted(taskranks)))
        self.broker.publish("wexec.lost",
                            {"jobid": jobid,
                             "taskranks": sorted(taskranks),
                             "reason": reason})

    def _on_respawn(self, msg: Message) -> None:
        """Apply a respawn epoch (same event order on every broker, so
        every broker rewrites its assignment map identically)."""
        p = msg.payload
        state = self.jobs.get(p["jobid"])
        if state is None:
            return
        epoch = p["epoch"]
        if epoch <= state.epoch:
            return                       # duplicate / stale respawn
        state.epoch = epoch
        ranks = p["ranks"]
        factory = self.registry.get(state.spec["task"])
        for i, t in enumerate(p["taskranks"]):
            state.retries[t] = state.retries.get(t, 0) + 1
            old = state.assign.get(t)
            tgt = ranks[i % len(ranks)]
            state.assign[t] = tgt
            if t in state.rcs:
                continue                 # completed while the event flew
            if tgt == self.rank:
                proc = state.procs.get(t)
                if proc is not None and proc.is_alive:
                    continue             # still running here (false death)
                self.respawns += 1
                self._spawn_task(state, t, factory)
            elif old == self.rank:
                # Moved away from us: cancel the (superseded) local
                # incarnation; _task_finished drops non-owner rcs.
                proc = state.procs.pop(t, None)
                if proc is not None and proc.is_alive:
                    proc.interrupt(_SIGKILL)
        self._maybe_forward(state)

    def _on_lost(self, msg: Message) -> None:
        jobid = msg.payload["jobid"]
        state = self.jobs.pop(jobid, None)
        self._pending_signals.pop(jobid, None)
        if state is None:
            return
        self.lost_jobs.append(jobid)
        for proc in list(state.procs.values()):
            if proc.is_alive:
                proc.interrupt(_SIGKILL)

    # ------------------------------------------------------------------
    # tool access (Challenge 4: debugger/profiler attachment)
    # ------------------------------------------------------------------
    @request_handler(required=("jobid",))
    def req_query(self, msg: Message) -> None:
        """Report this broker's live tasks for a job: rank-addressed
        tools (ring/tree overlays) call this on every broker to build a
        job-wide snapshot without touching the application."""
        jobid = msg.payload["jobid"]
        state = self.jobs.get(jobid)
        tasks = []
        if state is not None:
            for taskrank, ctx in state.ctxs.items():
                proc = state.procs.get(taskrank)
                tasks.append({
                    "taskrank": taskrank,
                    "alive": bool(proc is not None and proc.is_alive),
                    "status": ctx.status,
                    "stdout_lines": len(ctx.stdout),
                })
        self.respond(msg, {"rank": self.rank, "jobid": jobid,
                           "tasks": tasks})

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    @request_handler(required=("jobid",))
    def req_signal(self, msg: Message) -> None:
        """Client RPC: deliver ``signum`` to every task of a job."""
        if self.broker.parent is not None:
            self.proxy_upstream(msg)
            return
        jobid = msg.payload["jobid"]
        if jobid not in self.jobs:
            # Answer definitively instead of publishing blindly: the
            # root always holds state for an active job.
            self.respond(msg, error=f"unknown job {jobid!r}",
                         code=ENOENT)
            return
        self.broker.publish("wexec.signal", dict(msg.payload))
        self.respond(msg, {})

    def _on_signal(self, msg: Message) -> None:
        jobid = msg.payload["jobid"]
        signum = msg.payload.get("signum", _SIGTERM)
        state = self.jobs.get(jobid)
        if state is None:
            if jobid not in self.done_jobs and jobid not in self.lost_jobs:
                # wexec.start may be delayed or reordered behind the
                # signal under chaos: buffer and re-apply at start.
                self._pending_signals.setdefault(jobid, []).append(signum)
            return
        self._signal_local(state, signum)

    def _signal_local(self, state: _JobState, signum: int) -> None:
        for taskrank, proc in list(state.procs.items()):
            if proc.is_alive:
                proc.interrupt(signum)
