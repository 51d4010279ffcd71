"""Fault-tolerance characterization — detection and self-healing.

Paper, System Challenges: "it must be tolerant of hardware and
software faults and failures and have no single point of failure";
Section IV-A: "each message plane ... can self-heal when interior
nodes fail", with liveness driven by heartbeat-synchronized hellos
(``missed_max`` consecutive misses declare a child dead).

This bench sweeps the heartbeat period and the miss threshold,
measures time-to-detection and verifies post-heal service, and checks
multi-failure tolerance.  (Root failure is explicitly future work in
the paper and out of scope here too.)
"""

import os

import pytest

from conftest import write_table
from repro import make_cluster, standard_session
from repro.chaos import run_chaos_workload, run_job_chaos_workload
from repro.kvs import KvsClient

N_NODES = 31  # depth-4 binary tree
PERIODS = (0.02, 0.05, 0.1, 0.2)
MISS_MAXES = (2, 3, 5)

#: Per-link message loss rates swept by the chaos recovery bench.
LOSS_RATES = (0.0, 0.001, 0.01, 0.05)
#: ``CHAOS_SMOKE=1`` shrinks the chaos sweep for CI smoke runs.
CHAOS_SMOKE = bool(os.environ.get("CHAOS_SMOKE"))


def detection_time(period: float, missed_max: int,
                   victim: int = 1) -> dict:
    """Kill an interior broker; measure detection and verify service."""
    cluster = make_cluster(N_NODES, seed=71)
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=period, hb_max_epochs=100000)
    # Patch the live module threshold everywhere.
    for rank in range(N_NODES):
        session.module_at(rank, "live").missed_max = missed_max
    session.start()
    sim = cluster.sim
    sim.run(until=10 * period)  # settle
    t_fail = sim.now
    session.fail_rank(victim)
    live0 = session.module_at(0, "live")
    deadline = t_fail + 100 * period
    while victim not in live0.announced and sim.now < deadline:
        sim.run(until=sim.now + period / 2)
    detected = victim in live0.announced
    t_detect = sim.now - t_fail

    # Service check: a client below the dead node commits and reads.
    ok = False
    if detected:
        sim.run(until=sim.now + 2 * period)  # let the heal settle

        def client():
            kvs = KvsClient(session.connect(victim * 2 + 1,
                                            collective=False))
            yield kvs.put("post.heal", 42)
            yield kvs.commit()
            return (yield kvs.get("post.heal"))

        proc = sim.spawn(client())
        sim.run(until=sim.now + 1.0)
        ok = proc.triggered and proc.ok and proc.value == 42
    session.stop()
    return {"detected": detected, "t_detect": t_detect, "healed": ok}


@pytest.fixture(scope="module")
def detection_grid():
    grid = {(p, m): detection_time(p, m)
            for p in PERIODS for m in MISS_MAXES}
    lines = [f"Fault tolerance: interior-broker failure on a "
             f"{N_NODES}-node binary tree",
             f"{'hb period(s)':>13} {'missed_max':>11} "
             f"{'detect(s)':>10} {'healed':>7}"]
    for (p, m), r in grid.items():
        lines.append(f"{p:>13.2f} {m:>11} {r['t_detect']:>10.3f} "
                     f"{str(r['healed']):>7}")
    write_table("fault_tolerance", "\n".join(lines),
                data={f"p{p}-m{m}": r for (p, m), r in grid.items()})
    return grid


def test_fault_table_regenerated(detection_grid):
    assert len(detection_grid) == len(PERIODS) * len(MISS_MAXES)


def test_all_failures_detected_and_healed(detection_grid):
    for key, r in detection_grid.items():
        assert r["detected"], f"undetected at {key}"
        assert r["healed"], f"service not restored at {key}"


def test_detection_time_tracks_parameters(detection_grid):
    """Detection latency ~ period x missed_max (plus one pulse of
    propagation slack)."""
    for (p, m), r in detection_grid.items():
        assert r["t_detect"] <= p * (m + 3), (p, m, r)
        assert r["t_detect"] >= p * (m - 1)


def test_multiple_simultaneous_failures():
    """Two disjoint interior failures heal independently."""
    cluster = make_cluster(N_NODES, seed=72)
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=0.05, hb_max_epochs=100000)
    session.start()
    sim = cluster.sim
    sim.run(until=0.5)
    session.fail_rank(1)
    session.fail_rank(2)
    sim.run(until=2.0)
    live0 = session.module_at(0, "live")
    assert {1, 2} <= live0.announced
    # Orphans of both re-attach to the root.
    for orphan in (3, 4, 5, 6):
        assert session.brokers[orphan].parent == 0

    def client(rank):
        kvs = KvsClient(session.connect(rank, collective=False))
        yield kvs.put(f"multi.{rank}", rank)
        yield kvs.commit()
        return (yield kvs.get(f"multi.{rank}"))

    procs = [sim.spawn(client(r)) for r in (7, 11, 30)]
    sim.run(until=3.0)
    assert all(p.ok and p.value == r for p, r in zip(procs, (7, 11, 30)))
    session.stop()


def test_fault_benchmark_representative(benchmark, detection_grid):
    benchmark.pedantic(lambda: detection_time(0.05, 3), rounds=2,
                       iterations=1)


# ----------------------------------------------------------------------
# Chaos recovery sweep: seeded loss + one interior kill
# ----------------------------------------------------------------------
def chaos_run(loss_rate: float):
    """One chaos workload at ``loss_rate`` with an interior broker
    killed mid-run (see ``repro.chaos.run_chaos_workload``)."""
    kwargs = dict(n_nodes=N_NODES, n_clients=16, drop_rate=loss_rate,
                  kills=((5, 0.25),),
                  n_iters=2, think=0.2, run_until=40.0)
    if CHAOS_SMOKE:
        kwargs.update(n_nodes=15, n_clients=8, n_iters=1,
                      think=0.1, run_until=25.0)
    return run_chaos_workload(**kwargs)


@pytest.fixture(scope="module")
def chaos_grid():
    grid = {loss: chaos_run(loss) for loss in LOSS_RATES}
    nodes = 15 if CHAOS_SMOKE else N_NODES
    lines = [f"Chaos recovery: {nodes}-node tree, one interior kill, "
             f"seeded per-link loss",
             f"{'loss':>6} {'converged':>9} {'detect(s)':>10} "
             f"{'makespan(s)':>11} {'cli retries':>11} "
             f"{'retransmits':>11} {'reroutes':>8} {'replays':>7} "
             f"{'amplification':>13}"]
    for loss, r in grid.items():
        bs = r.broker_stats
        lines.append(
            f"{loss * 100:>5.1f}% {str(r.converged):>9} "
            f"{r.detect_latency:>10.3f} {r.makespan:>11.3f} "
            f"{r.client_retries:>11} {bs.get('retransmits', 0):>11} "
            f"{bs.get('reroutes', 0):>8} {bs.get('replay_hits', 0):>7} "
            f"{r.retry_amplification:>13.3f}")
    write_table("chaos_recovery", "\n".join(lines),
                data={str(loss): {
                    "converged": r.converged,
                    "detect_latency": r.detect_latency,
                    "makespan": r.makespan,
                    "client_retries": r.client_retries,
                    "broker_stats": r.broker_stats,
                    "retry_amplification": r.retry_amplification,
                } for loss, r in grid.items()})
    return grid


def test_chaos_sweep_converges(chaos_grid):
    """Every loss rate converges: all acked writes durable, fences
    released, zero hung waiters."""
    for loss, r in chaos_grid.items():
        assert r.converged, (loss, r.errors)
        assert r.hung_waiters == 0
        assert r.reads_failed == 0


def test_chaos_amplification_bounded(chaos_grid):
    """Retry amplification stays far from a retry storm even at 5%
    loss (each logical RPC re-sent only a handful of times)."""
    for loss, r in chaos_grid.items():
        assert r.retry_amplification < 3.0, (loss, r.retry_amplification)


def test_chaos_loss_costs_work(chaos_grid):
    """Higher loss means more recovery traffic, never silent loss:
    the 5% run does strictly more retries/retransmits than 0%."""
    lo, hi = chaos_grid[0.0], chaos_grid[0.05]
    extra = (lambda r: r.client_retries
             + r.broker_stats.get("retransmits", 0))
    assert extra(hi) > extra(lo)


# ----------------------------------------------------------------------
# Job-plane recovery: task respawn after broker kills
# ----------------------------------------------------------------------
#: (label, ranks to kill mid-job) — root kill exercises jobmgr takeover
#: and "leaf" is resolved against the tree size (first leaf + 2).
JOB_SCENARIOS = (
    ("no-fault", ()),
    ("interior-kill", (3,)),
    ("leaf-kill", ("leaf",)),
    ("root-kill", (0,)),
)


def job_chaos_run(kill_ranks):
    """One parallel job under 1% loss with ``kill_ranks`` failing
    0.3 s in (see ``repro.chaos.run_job_chaos_workload``)."""
    n_nodes, nprocs = (15, 12) if CHAOS_SMOKE else (N_NODES, 24)
    kills = tuple((n_nodes // 2 + 2 if r == "leaf" else r, 0.3)
                  for r in kill_ranks)
    return run_job_chaos_workload(
        n_nodes=n_nodes, nprocs=nprocs, drop_rate=0.01, kills=kills,
        kvs_replicas=(1, 2) if (0, 0.3) in kills else ())


@pytest.fixture(scope="module")
def job_chaos_grid():
    grid = {label: job_chaos_run(kills)
            for label, kills in JOB_SCENARIOS}
    nodes = 15 if CHAOS_SMOKE else N_NODES
    lines = [f"Job-plane recovery: {nodes}-node tree, 1% loss, "
             f"broker kills mid-job",
             f"{'scenario':>13} {'converged':>9} {'1x':>5} "
             f"{'respawns':>8} {'detect(s)':>10} {'recover(s)':>10} "
             f"{'makespan(s)':>11} {'amplification':>13}"]
    for label, r in grid.items():
        lines.append(
            f"{label:>13} {str(r.converged):>9} "
            f"{str(r.exactly_once):>5} {r.respawns:>8} "
            f"{r.detect_latency:>10.3f} {r.recovery_latency:>10.3f} "
            f"{r.makespan:>11.3f} {r.retry_amplification:>13.3f}")
    write_table("job_plane_recovery", "\n".join(lines),
                data={label: {
                    "converged": r.converged,
                    "exactly_once": r.exactly_once,
                    "respawns": r.respawns,
                    "detect_latency": r.detect_latency,
                    "recovery_latency": r.recovery_latency,
                    "makespan": r.makespan,
                    "client_retries": r.client_retries,
                    "retry_amplification": r.retry_amplification,
                } for label, r in grid.items()})
    return grid


def test_job_chaos_all_converge_exactly_once(job_chaos_grid):
    """Every scenario — including root kill — completes the job with
    the full rc/stdout set exactly once and no hung waiters."""
    for label, r in job_chaos_grid.items():
        assert r.converged, (label, r.errors)
        assert r.exactly_once, (label, r.errors)
        assert r.hung_waiters == 0, label


def test_job_chaos_kills_cost_respawns(job_chaos_grid):
    """A kill forces at least one respawn epoch; a fault-free run
    forces none."""
    assert job_chaos_grid["no-fault"].respawns == 0
    for label in ("interior-kill", "leaf-kill", "root-kill"):
        assert job_chaos_grid[label].respawns >= 1, label


def test_job_chaos_amplification_bounded(job_chaos_grid):
    """Respawn + retry traffic stays far from a storm at 1% loss."""
    for label, r in job_chaos_grid.items():
        assert r.retry_amplification < 3.0, (label, r.retry_amplification)
