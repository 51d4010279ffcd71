"""Chaos harness: a closed-loop KVS workload under seeded faults.

:func:`run_chaos_workload` builds a session on a binary tree, installs
a seeded :class:`~repro.sim.faults.FaultPlan` (probabilistic
drop/duplication/extra delay per link), kills the brokers of a
``kills`` schedule mid-run, and drives a closed loop: each client
issues put -> fence -> get(peer), each call timed on the simulated
clock, with client-level retries enabled.  A wrong peer read is
tallied and the client goes on.

After the workload drains it verifies *convergence*:

- every put/commit/fence a client saw acknowledged is readable at
  the lowest surviving rank over a clean fabric (the fault plan is
  removed for the verification pass);
- no hung waiters remain anywhere (held fences, version waiters,
  outstanding client RPCs on live brokers);
- every process finished without error, and every peer read after a
  fence saw the peer's write.

:func:`run_job_chaos_workload` is the job-plane counterpart: one
``wexec`` bulk launch under node loss, checked for exactly-once
completion.

``python -m repro.chaos sweep`` and ``python -m repro.chaos probe``
run the hardened path's two fixed multi-seed configurations (see
:data:`COMMANDS`) and print one JSON document, one row per fault seed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from repro import make_cluster, standard_session
from repro.cmb.modules.health import cluster_view
from repro.kvs import KvsClient
from repro.obs.doctor import diagnose
from repro.obs.postmortem import capture_bundle, write_bundle
from repro.sim import FaultPlan

__all__ = ["COMMANDS", "ChaosReport", "JobChaosReport",
           "anti_entropy_misses", "run_chaos_workload",
           "run_job_chaos_workload"]


def anti_entropy_misses(session) -> list[tuple[int, str]]:
    """``(rank, fence)`` for every aggregate a live non-master rank
    still holds although the live master records that fence completed
    at a version above the aggregate's generation ``gen`` — a
    completion the per-pulse ``kvs.getroot`` pull failed to carry
    down.  Reads every rank: a harness check, not a protocol step."""
    live = [b.modules["kvs"] for b in session.brokers if b.alive]
    done = {name: entry[0] for kvs in live if kvs.master is not None
            for name, entry in kvs._completed.items()}
    return [(kvs.rank, name) for kvs in live if kvs.master is None
            for name, agg in sorted(kvs._fences.items())
            if done.get(name, -1) > agg.gen]


def _maybe_postmortem(session, *, kind: str, out: Optional[str],
                      triggers: list[str], default_name: str,
                      extra: Optional[dict] = None) -> str:
    """Write a post-mortem bundle when asked or when a trigger fired.

    ``out`` (explicit path) always captures — the caller asked.  With
    only ``CHAOS_POSTMORTEM_DIR`` set (CI), a bundle is written iff at
    least one trigger fired, named ``default_name`` under that dir.
    Returns the written path ("" = none).
    """
    env_dir = os.environ.get("CHAOS_POSTMORTEM_DIR", "")
    if out is None and not (env_dir and triggers):
        return ""
    reason = "; ".join(triggers) if triggers else "requested by caller"
    bundle = capture_bundle(session, reason, kind=kind, extra=extra)
    path = out if out is not None else os.path.join(env_dir,
                                                   default_name)
    return write_bundle(bundle, path)


def _schedule_kills(session, kills) -> tuple[int, dict[int, float]]:
    """Fail each ``(rank, t)`` of ``kills`` at simulated time ``t``.

    Returns the observation rank (the lowest rank never killed) and the
    dict its ``live.down`` subscription fills with each rank's
    detection time."""
    sim = session.sim
    killed = {rank for rank, _t in kills}
    obs_rank = min(r for r in range(session.size) if r not in killed)
    detect_times: dict[int, float] = {}
    session.brokers[obs_rank].subscribe(
        "live.down",
        lambda msg: detect_times.setdefault(msg.payload["rank"], sim.now))
    for rank, at in kills:
        sim.timeout(at).add_callback(
            lambda _e, v=rank: session.fail_rank(v))
    return obs_rank, detect_times


def _hung_waiters(session, handles) -> int:
    """Held fences, version/replication waiters and deferred fence doors
    on live brokers, plus the client handles' outstanding RPCs."""
    hung = sum(len(h._waiters) for h in handles)
    for broker in session.brokers:
        kvs = broker.modules.get("kvs") if broker.alive else None
        if kvs is not None:
            hung += (len(kvs._version_waiters) + len(kvs._repl_waiters)
                     + len(kvs._door_held)
                     + sum(len(agg.held) for agg in kvs._fences.values()))
    return hung


def _run_while(sim, busy, deadline: float, step: float) -> None:
    """Run in slices so the simulation stops soon after the work
    drains, not after every remaining heartbeat epoch."""
    while sim.now < deadline and busy():
        sim.run(until=min(deadline, sim.now + step))


@dataclass
class ChaosReport:
    """Outcome + telemetry of one chaos run."""

    converged: bool                 # procs ok + reads verified + no hangs
    procs_ok: bool                  # every client finished clean, read right
    reads_verified: int             # acked writes re-read successfully
    reads_failed: int               # acked writes missing/mismatched
    hung_waiters: int               # leftover held fences/version waiters
    client_retries: int             # RPC attempts re-issued by clients
    client_rpcs: int                # logical client RPCs issued
    broker_stats: dict = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)
    detect_latency: float = 0.0     # first kill -> its live.down
    failover: float = 0.0           # first kill -> next fence completion
    makespan: float = 0.0           # last workload process completion
    #: Simulated seconds per timed client call: ``put``/``fence``/``get``.
    latencies: dict = field(default_factory=dict)
    errored_clients: int = 0        # clients that raised
    hung_clients: int = 0           # clients that never finished
    events: int = 0                 # simulation events, verify pass included
    bytes_sent: int = 0             # wire bytes, verify pass included
    errors: list = field(default_factory=list)
    #: Runtime-sanitizer findings (``sanitize=True`` runs only).
    sanitizer_findings: list = field(default_factory=list)
    #: Event-stream SHA1 (``sanitize=True`` runs only) — same-seed
    #: replay must reproduce it bit for bit.
    event_fingerprint: str = ""
    #: Post-mortem bundle written for this run ("" = none).
    postmortem_path: str = ""
    #: :func:`anti_entropy_misses` after the workload settled.
    anti_entropy_misses: list = field(default_factory=list)

    @property
    def retry_amplification(self) -> float:
        """Extra sends per logical client RPC: client re-attempts plus
        broker-level retransmissions/reroutes, normalized by the
        number of logical RPCs (0.0 in a fault-free run)."""
        extra = (self.client_retries
                 + self.broker_stats.get("retransmits", 0)
                 + self.broker_stats.get("reroutes", 0))
        return extra / max(1, self.client_rpcs)


def run_chaos_workload(n_nodes: int = 31, n_clients: int = 16,
                       seed: int = 7, fault_seed: int = 11,
                       drop_rate: float = 0.01, dup_rate: float = 0.0,
                       delay_rate: float = 0.0, kills: tuple = (),
                       hb_period: float = 0.05, n_iters: int = 2,
                       think: float = 0.0,
                       timeout: float = 0.5, retries: int = 8,
                       run_until: float = 60.0,
                       trace_out: Optional[str] = None,
                       stats_out: Optional[str] = None,
                       sanitize: bool = False,
                       kvs_replicas: tuple = (),
                       kvs_dedup: bool = False,
                       postmortem_out: Optional[str] = None
                       ) -> ChaosReport:
    """Run the chaos workload; see module docstring.

    ``trace_out``/``stats_out`` export the causal span trees (Chrome
    trace-event JSON — one tree per client RPC, including retries,
    retransmissions and reroutes) and the merged per-broker metrics
    registries.  Pure exports: leaving them ``None`` changes nothing.

    ``kills`` is a schedule of ``(rank, t)`` pairs: each rank fails at
    simulated time ``t``, so cascades like "kill a parent, then its
    replacement" are expressible; detection and failover are timed
    from its first entry.  Clients are placed round-robin on ranks that
    are never killed.

    ``think`` inserts a per-client think time after each iteration
    (skewed per client, so fence contributions trickle in over the
    gap): without it a small workload finishes in milliseconds and a
    mid-run kill would land after the last fence instead of across it.

    ``kvs_replicas`` enables multi-master failover: the named ranks
    hold standby replicas of the KVS root master, and killing rank 0
    (the root) becomes survivable — the ring election promotes the
    most-caught-up replica and the workload converges against it.
    """
    cluster = make_cluster(n_nodes, seed=seed)
    plan = FaultPlan(seed=fault_seed, drop_rate=drop_rate,
                     dup_rate=dup_rate, delay_rate=delay_rate)
    cluster.network.fault_plan = plan
    session = standard_session(
        cluster, with_heartbeat=True, hb_period=hb_period,
        hb_max_epochs=max(64, int(run_until / hb_period)),
        kvs_replicas=kvs_replicas, kvs_dedup=kvs_dedup)
    session.start()
    if trace_out:
        session.enable_tracing()
    sim = cluster.sim
    fingerprint = None
    if sanitize:
        from repro.analysis.sanitizers import replay_fingerprint_hook
        session.enable_sanitizers()
        fingerprint = replay_fingerprint_hook(sim, keep_records=False)

    obs_rank, detect_times = _schedule_kills(session, kills)
    killed = {rank for rank, _t in kills}
    client_ranks = [r for r in range(n_nodes) if r not in killed]
    lat: dict[str, list[float]] = {"put": [], "fence": [], "get": []}
    fence_done: list[float] = []
    acked: list[tuple[str, object]] = []
    finish_times: list[float] = []
    handles = []
    errors: list[str] = []
    wrong: list[str] = []

    def timed(kind, event):
        t0 = sim.now
        value = yield event
        lat[kind].append(sim.now - t0)
        return value

    def client_proc(idx: int, rank: int):
        # Failures are recorded, not raised: an unhandled process
        # exception would abort sim.run() and take the whole harness
        # down with it instead of producing a non-converged report.
        try:
            handle = session.connect(rank)
            handles.append(handle)
            kvs = KvsClient(handle, timeout=timeout, retries=retries)
            for it in range(n_iters):
                key = f"chaos.k{it}.{idx}"
                yield from timed("put", kvs.put(key, [idx, it]))
                yield from timed("fence",
                                 kvs.fence(f"chaos.f{it}", n_clients))
                fence_done.append(sim.now)
                acked.append((key, [idx, it]))
                peer = (idx + 1) % n_clients
                got = yield from timed("get",
                                       kvs.get(f"chaos.k{it}.{peer}"))
                if got != [peer, it]:
                    wrong.append(f"client {idx} iter {it}: read {got!r}, "
                                 f"expected {[peer, it]!r}")
                if think > 0.0:
                    yield sim.timeout(think * (1 + idx / n_clients))
            yield from timed("put", kvs.put(f"chaos.c.{idx}", idx))
            yield kvs.commit()
            acked.append((f"chaos.c.{idx}", idx))
        except Exception as exc:  # noqa: BLE001 - tallied in the report
            errors.append(f"client {idx} (t={sim.now:.3f}): {exc}")
            return
        finish_times.append(sim.now)

    procs = [sim.spawn(client_proc(i, client_ranks[i % len(client_ranks)]),
                       name=f"chaos-client-{i}")
             for i in range(n_clients)]
    _run_while(sim, lambda: not all(p.triggered for p in procs),
               run_until, 0.5)
    sim.run(until=sim.now + 1.0)  # settle in-flight bookkeeping

    errored = len(errors)
    hung_clients = [i for i, p in enumerate(procs) if not p.triggered]
    errors.extend(f"client {i}: hung" for i in hung_clients)
    errors.extend(wrong)
    procs_ok = not errors
    makespan = max(finish_times) if finish_times else sim.now
    detect_latency = failover = 0.0
    if kills:
        victim, t0 = kills[0]
        detect_latency = detect_times.get(victim, sim.now) - t0
        failover = min((t - t0 for t in fence_done if t > t0), default=0.0)

    # Hung-waiter census on live brokers: a converged run leaves no
    # held fence requests, no version waiters, and no outstanding
    # client RPCs behind.
    hung = _hung_waiters(session, handles)
    misses = anti_entropy_misses(session)

    client_retries = sum(h.retries for h in handles)
    client_rpcs = n_clients * (n_iters * 3 + 2)
    broker_stats = session.retry_stats()
    fault_stats = plan.stats()

    # Post-mortem capture happens *here* — after the hung-waiter
    # census, before the clean-fabric verifier pollutes the rings.
    triggers = []
    if errors:
        triggers.append(f"{len(errors)} workload error(s)")
    if hung:
        triggers.append(f"{hung} hung waiter(s)")
    if session.terminal_errors:
        triggers.append(f"{len(session.terminal_errors)} terminal "
                        f"RpcError(s)")
    if kills:
        triggers.append(f"chaos kills {[list(k) for k in kills]}")
    postmortem_path = _maybe_postmortem(
        session, kind="chaos", out=postmortem_out, triggers=triggers,
        default_name=f"chaos-pm-s{seed}-f{fault_seed}.json",
        extra={"seed": seed, "fault_seed": fault_seed,
               "kills": [list(k) for k in kills],
               "drop_rate": drop_rate, "hung_waiters": hung,
               "errors": errors[:20]})

    # Verification pass over a clean fabric: everything the clients saw
    # acknowledged must be durable and readable at the root.
    cluster.network.fault_plan = None
    verified = [0, 0]

    def verifier():
        kvs = KvsClient(session.connect(obs_rank, collective=False),
                        timeout=10.0)
        for key, want in acked:
            try:
                got = yield kvs.get(key)
            except Exception:  # noqa: BLE001 - tallied below
                got = None
            if got == want:
                verified[0] += 1
            else:
                verified[1] += 1
                errors.append(f"verify {key!r}: read {got!r}, "
                              f"expected {want!r}")

    vproc = sim.spawn(verifier(), name="chaos-verifier")
    _run_while(sim, lambda: not vproc.triggered, sim.now + 20.0, 0.05)
    if not vproc.triggered or not vproc.ok:
        errors.append("verifier did not complete")
    events, bytes_sent = sim.event_count, cluster.network.total_bytes_sent()

    # Liveness-dependent snapshots (per-rank metrics, health views at
    # the acting root) must be taken before stop() marks every broker
    # dead.
    live_ranks = [r for r in range(n_nodes) if session.brokers[r].alive]
    root = session.acting_root()
    mon = (session.brokers[root].modules.get("mon")
           if root is not None else None)
    health_doc = None
    if mon is not None:
        views = list(mon.results.get("health", {}).values())
        health_doc = {"cluster": cluster_view(mon), "views": views[-16:]}
    session.stop()
    if trace_out:
        session.span_tracer.write_chrome_trace(trace_out)
    if stats_out:
        doc = {
            "meta": {"kind": "chaos", "n_nodes": n_nodes,
                     "n_clients": n_clients, "seed": seed,
                     "fault_seed": fault_seed,
                     "kills": [list(k) for k in kills],
                     "sim_time": sim.now},
            "aggregate": session.metrics_aggregate(),
            "per_rank": [session.metrics_snapshot(r)
                         for r in live_ranks],
        }
        if health_doc is not None:
            doc["health"] = health_doc
        with open(stats_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    converged = (procs_ok and verified[1] == 0 and hung == 0
                 and vproc.triggered and vproc.ok)
    return ChaosReport(
        converged=converged, procs_ok=procs_ok,
        reads_verified=verified[0], reads_failed=verified[1],
        hung_waiters=hung, client_retries=client_retries,
        client_rpcs=client_rpcs, broker_stats=broker_stats,
        fault_stats=fault_stats, detect_latency=detect_latency,
        failover=failover, makespan=makespan, latencies=lat,
        errored_clients=errored, hung_clients=len(hung_clients),
        events=events, bytes_sent=bytes_sent, errors=errors,
        sanitizer_findings=(list(session.sanitizers.finish())
                            if sanitize else []),
        event_fingerprint=fingerprint.digest() if sanitize else "",
        postmortem_path=postmortem_path, anti_entropy_misses=misses)


# ----------------------------------------------------------------------
# job-plane chaos: a wexec bulk launch under node loss
# ----------------------------------------------------------------------
@dataclass
class JobChaosReport:
    """Outcome + telemetry of one job-plane chaos run."""

    converged: bool                 # completed exactly once, no hangs
    completed: bool                 # a wexec.done event was observed
    status: str                     # terminal status ("ok"/"failed"/"lost"/"")
    exactly_once: bool              # full rc set, each taskrank once
    lost: bool                      # a wexec.lost event was observed
    rcs_expected: int               # nprocs
    rcs_got: int                    # distinct taskranks in the done tally
    stdout_verified: int            # per-task stdout records re-read OK
    stdout_failed: int              # per-task stdout records missing/bad
    respawns: int                   # tasks re-executed after node loss
    hung_waiters: int               # leftover waiters on live brokers
    client_retries: int             # launch-RPC attempts re-issued
    client_rpcs: int                # logical client RPCs issued
    broker_stats: dict = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)
    detect_latency: float = 0.0     # first kill -> its live.down
    recovery_latency: float = 0.0   # first kill -> job terminal event
    makespan: float = 0.0           # launch -> terminal event
    errors: list = field(default_factory=list)
    sanitizer_findings: list = field(default_factory=list)
    event_fingerprint: str = ""
    #: Post-mortem bundle written for this run ("" = none).
    postmortem_path: str = ""
    #: :func:`anti_entropy_misses` after the workload settled.
    anti_entropy_misses: list = field(default_factory=list)

    @property
    def retry_amplification(self) -> float:
        """Extra sends per task.  The job plane issues a single client
        RPC no matter how wide the job is, so unlike ``ChaosReport``
        the meaningful unit of work here is the task: recovery traffic
        (client re-attempts, broker retransmissions, reroutes) divided
        by the task count."""
        extra = (self.client_retries
                 + self.broker_stats.get("retransmits", 0)
                 + self.broker_stats.get("reroutes", 0))
        return extra / max(1, self.rcs_expected)


def run_job_chaos_workload(n_nodes: int = 31, nprocs: int = 24,
                           seed: int = 7, fault_seed: int = 11,
                           drop_rate: float = 0.01, kills: tuple = (),
                           hb_period: float = 0.05,
                           task_work: float = 1.0,
                           max_restarts: int = 2,
                           timeout: float = 0.5, retries: int = 8,
                           run_until: float = 60.0,
                           trace_out: Optional[str] = None,
                           sanitize: bool = False,
                           kvs_replicas: tuple = (),
                           postmortem_out: Optional[str] = None
                           ) -> JobChaosReport:
    """Drive one ``wexec`` bulk launch across every rank while the
    ``kills`` schedule (``(rank, t)`` pairs) fails brokers mid-run,
    then verify the exactly-once contract:

    - the job reaches a terminal state (``wexec.done`` — or
      ``wexec.lost`` once a task's ``max_restarts`` budget runs out)
      instead of hanging;
    - the completion tally carries the *full* rc set — every taskrank
      exactly once, even though tasks on dead nodes were respawned and
      falsely-buried incarnations may race their replacements;
    - each task's stdout is durable in the KVS over a clean fabric.

    ``task_work`` should comfortably exceed the kill times so the kills
    land mid-task (tasks on the victims die *running* and must be
    respawned, the hard case) rather than after the tally closed.
    """
    cluster = make_cluster(n_nodes, seed=seed)
    plan = FaultPlan(seed=fault_seed, drop_rate=drop_rate)
    cluster.network.fault_plan = plan

    def chaos_task(ctx):
        ctx.print(f"{ctx.jobid}:{ctx.taskrank}")
        yield ctx.sim.timeout(task_work)

    session = standard_session(
        cluster, with_heartbeat=True, hb_period=hb_period,
        hb_max_epochs=max(64, int(run_until / hb_period)),
        task_registry={"chaos": chaos_task},
        kvs_replicas=kvs_replicas,
        wexec_config={"max_restarts": max_restarts})
    session.start()
    sim = cluster.sim
    if trace_out:
        session.enable_tracing()
    fingerprint = None
    if sanitize:
        from repro.analysis.sanitizers import replay_fingerprint_hook
        session.enable_sanitizers()
        fingerprint = replay_fingerprint_hook(sim, keep_records=False)

    jobid = "lwj-chaos"
    obs_rank, detect_times = _schedule_kills(session, kills)
    terminal: list[tuple[str, dict, float]] = []  # (topic, payload, t)
    obs = session.brokers[obs_rank]
    obs.subscribe("wexec.done",
                  lambda msg: terminal.append(("done", msg.payload,
                                               sim.now))
                  if msg.payload.get("jobid") == jobid else None)
    obs.subscribe("wexec.lost",
                  lambda msg: terminal.append(("lost", msg.payload,
                                               sim.now))
                  if msg.payload.get("jobid") == jobid else None)

    errors: list[str] = []
    handles = []
    launch_t = [0.0]

    def launcher():
        try:
            handle = session.connect(obs_rank, collective=False)
            handles.append(handle)
            launch_t[0] = sim.now
            yield handle.rpc("wexec.run",
                             {"jobid": jobid, "task": "chaos",
                              "nprocs": nprocs},
                             timeout=timeout, retries=retries)
        except Exception as exc:  # noqa: BLE001 - tallied in the report
            errors.append(f"launcher (t={sim.now:.3f}): {exc}")

    lproc = sim.spawn(launcher(), name="job-chaos-launcher")
    _run_while(sim, lambda: not terminal, run_until, 0.5)
    sim.run(until=sim.now + 1.0)  # settle in-flight bookkeeping

    if not lproc.triggered:
        errors.append("launcher: hung")
    if not terminal:
        errors.append(f"job never reached a terminal state "
                      f"(t={sim.now:.3f})")

    topic, payload, term_t = terminal[0] if terminal else ("", {}, sim.now)
    completed = topic == "done"
    lost = any(t == "lost" for t, _p, _at in terminal)
    # wexec.done carries the max rc as "status"; render terminal state
    # as a string for the report ("ok" / "rc=N" / "lost").
    if completed:
        status = "ok" if payload.get("status", 0) == 0 \
            else f"rc={payload['status']}"
    else:
        status = "lost" if lost else ""
    rcs = payload.get("rcs", {}) if completed else {}
    got_ranks = {int(t) for t in rcs}
    exactly_once = (completed
                    and len(terminal) == 1
                    and len(rcs) == nprocs
                    and got_ranks == set(range(nprocs)))
    if completed and not exactly_once:
        errors.append(f"tally not exactly-once: {len(terminal)} terminal "
                      f"events, {sorted(got_ranks)} of {nprocs} taskranks")

    detect_latency = recovery_latency = 0.0
    if kills:
        victim, t0 = kills[0]
        detect_latency = detect_times.get(victim, sim.now) - t0
        recovery_latency = max(0.0, term_t - t0)
    respawns = sum(b.modules["wexec"].respawns
                   for b in session.brokers if b.alive)
    hung = _hung_waiters(session, handles)
    misses = anti_entropy_misses(session)

    triggers = []
    if errors:
        triggers.append(f"{len(errors)} workload error(s)")
    if not terminal:
        triggers.append("job never reached a terminal state")
    if lost:
        triggers.append(f"job {jobid!r} declared lost")
    if hung:
        triggers.append(f"{hung} hung waiter(s)")
    if session.terminal_errors:
        triggers.append(f"{len(session.terminal_errors)} terminal "
                        f"RpcError(s)")
    if kills:
        triggers.append(f"chaos kills {[list(k) for k in kills]}")
    postmortem_path = _maybe_postmortem(
        session, kind="job-chaos", out=postmortem_out,
        triggers=triggers,
        default_name=f"job-chaos-pm-s{seed}-f{fault_seed}.json",
        extra={"seed": seed, "fault_seed": fault_seed,
               "kills": [list(k) for k in kills], "jobid": jobid,
               "nprocs": nprocs, "max_restarts": max_restarts,
               "hung_waiters": hung, "errors": errors[:20]})

    # Verification pass over a clean fabric: every completed task's
    # stdout must be durable and readable at the observation rank.
    cluster.network.fault_plan = None
    verified = [0, 0]

    def verifier():
        kvs = KvsClient(session.connect(obs_rank, collective=False),
                        timeout=10.0)
        for taskrank in sorted(got_ranks):
            key = f"lwj.{jobid}.{taskrank}.stdout"
            try:
                got = yield kvs.get(key)
            except Exception:  # noqa: BLE001 - tallied below
                got = None
            if got == [f"{jobid}:{taskrank}"]:
                verified[0] += 1
            else:
                verified[1] += 1
                errors.append(f"verify {key!r}: read {got!r}")

    vproc = sim.spawn(verifier(), name="job-chaos-verifier")
    sim.run(until=sim.now + 20.0)
    if not vproc.triggered or not vproc.ok:
        errors.append("stdout verifier did not complete")

    client_retries = sum(h.retries for h in handles)
    broker_stats = session.retry_stats()
    fault_stats = plan.stats()
    session.stop()
    if trace_out:
        session.span_tracer.write_chrome_trace(trace_out)
    converged = (completed and exactly_once and verified[1] == 0
                 and hung == 0 and vproc.triggered and vproc.ok
                 and not errors)
    return JobChaosReport(
        converged=converged, completed=completed, status=status,
        exactly_once=exactly_once, lost=lost,
        rcs_expected=nprocs, rcs_got=len(got_ranks),
        stdout_verified=verified[0], stdout_failed=verified[1],
        respawns=respawns, hung_waiters=hung,
        client_retries=client_retries, client_rpcs=1,
        broker_stats=broker_stats, fault_stats=fault_stats,
        detect_latency=detect_latency, recovery_latency=recovery_latency,
        makespan=max(0.0, term_t - launch_t[0]), errors=errors,
        sanitizer_findings=(list(session.sanitizers.finish())
                            if sanitize else []),
        event_fingerprint=fingerprint.digest() if sanitize else "",
        postmortem_path=postmortem_path, anti_entropy_misses=misses)


# ----------------------------------------------------------------------
# python -m repro.chaos sweep | probe
# ----------------------------------------------------------------------
#: The hardened path's fixed configurations: the benchmark's
#: ``chaos_failover_127`` scenario (a lossy fabric, the root killed at
#: 0.25 s, standbys 1 and 2) over 100 fault seeds, and a probe whose
#: standbys host no client and whose first standby also dies.
_SWEEP = dict(n_nodes=127, n_clients=64, n_iters=8, think=0.1,
              drop_rate=0.01, dup_rate=0.01, kvs_replicas=(1, 2),
              kills=((0, 0.25),))
COMMANDS = {
    "sweep": (_SWEEP, range(100)),
    "probe": (dict(_SWEEP, kvs_replicas=(100, 101),
                   kills=((0, 0.25), (100, 0.30))), range(20)),
}


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def seed_row(command: str, fault_seed: int) -> dict:
    """One seed of ``command``, summarized as a JSON-able row.  A seed
    that does not converge is replayed with a post-mortem bundle, and
    its row names the ``doctor`` findings of that bundle."""
    config, _seeds = COMMANDS[command]
    rep = run_chaos_workload(fault_seed=fault_seed, **config)
    row = {
        "seed": fault_seed, "converged": rep.converged,
        "reads_failed": rep.reads_failed,
        "errored": rep.errored_clients, "hung": rep.hung_clients,
        "events": rep.events, "bytes": rep.bytes_sent,
        "fence_max_ms": _ms(max(rep.latencies["fence"], default=0.0)),
        "get_max_ms": _ms(max(rep.latencies["get"], default=0.0)),
        "makespan_ms": _ms(rep.makespan),
        "failover_ms": _ms(rep.failover),
        "detect_ms": _ms(rep.detect_latency),
    }
    if not rep.converged:
        with tempfile.TemporaryDirectory() as tmp:
            bundle = os.path.join(tmp, "pm.json")
            run_chaos_workload(fault_seed=fault_seed,
                               postmortem_out=bundle, **config)
            row["doctor"] = sorted({f["pathology"] for f in
                                    diagnose([bundle])["findings"]})
    return row


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in COMMANDS:
        print(f"usage: python -m repro.chaos {{{'|'.join(COMMANDS)}}}",
              file=sys.stderr)
        return 2
    command = argv[0]
    config, seeds = COMMANDS[command]
    # A fresh process per seed: nothing one run warms up reaches the next.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(cpus, maxtasksperchild=1) as pool:
        rows = pool.starmap(seed_row, [(command, s) for s in seeds],
                            chunksize=1)
    failover = [r["failover_ms"] for r in rows]
    doc = {
        "command": command,
        "config": dict(config, seeds=[seeds.start, seeds.stop]),
        "converged": sum(r["converged"] for r in rows),
        "failing": [r["seed"] for r in rows if not r["converged"]],
        "failover_ms": {"p50": round(statistics.median(failover), 3),
                        "max": max(failover)},
        "fence_max_mean_ms": round(statistics.mean(
            r["fence_max_ms"] for r in rows), 1),
        "rows": rows,
    }
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
