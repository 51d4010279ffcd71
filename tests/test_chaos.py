"""Chaos-grade fault injection tests.

Covers the chaos tentpole end to end: seeded fault plans (drop /
duplicate / delay), broker-level retransmission and idempotent replay,
client retries, prompt EHOSTUNREACH failure of in-flight RPCs,
cascading-failure self-healing, revive/reattach, and convergence of a
KAP-style workload under loss plus an interior broker kill.  The
harness is also checked against the benchmark's own copy of its
scenario (``benchmarks/perf/chaos_driver.py``).
"""

import importlib.util
import pathlib

import pytest

from repro import make_cluster, standard_session
from repro.analysis.sanitizers import replay_fingerprint_hook
from repro.chaos import COMMANDS, run_chaos_workload
from repro.cmb.errors import EHOSTUNREACH, EINVAL, ENOENT, ETIMEDOUT, RpcError
from repro.kvs import KvsClient
from repro.sim import FaultPlan


# ----------------------------------------------------------------------
# FaultPlan unit behaviour
# ----------------------------------------------------------------------
def test_fault_plan_seeded_determinism():
    a = FaultPlan(seed=3, drop_rate=0.2, dup_rate=0.1, delay_rate=0.3)
    b = FaultPlan(seed=3, drop_rate=0.2, dup_rate=0.1, delay_rate=0.3)
    seq_a = [a.decide(0, 1) for _ in range(200)]
    seq_b = [b.decide(0, 1) for _ in range(200)]
    assert seq_a == seq_b
    c = FaultPlan(seed=4, drop_rate=0.2, dup_rate=0.1, delay_rate=0.3)
    assert [c.decide(0, 1) for _ in range(200)] != seq_a


def test_fault_plan_link_overrides_and_one_shot():
    plan = FaultPlan(seed=0)
    plan.set_link(1, 2, drop_rate=1.0)
    dropped, _, _ = plan.decide(1, 2)
    assert dropped
    dropped, _, _ = plan.decide(2, 1)   # other direction untouched
    assert not dropped
    plan.drop_next(2, 1, count=2)       # targeted one-shot faults
    assert plan.decide(2, 1)[0]
    assert plan.decide(2, 1)[0]
    assert not plan.decide(2, 1)[0]
    stats = plan.stats()
    assert stats["forced_drops"] == 2
    assert stats["drops"] >= 1


def test_fault_plan_fifo_clamp_preserves_link_order():
    plan = FaultPlan(seed=1, delay_rate=1.0, delay_extra=1e-3)
    t1 = plan.fifo_clamp(0, 1, 1.0)
    t2 = plan.fifo_clamp(0, 1, 0.5)     # would overtake: clamped
    assert t2 >= t1
    t3 = plan.fifo_clamp(1, 0, 0.1)     # independent link
    assert t3 == pytest.approx(0.1)


def test_injected_drops_hit_drop_hook_and_counters():
    cluster = make_cluster(3, seed=2)
    plan = FaultPlan(seed=5, drop_rate=1.0)
    cluster.network.fault_plan = plan
    dropped = []
    cluster.network.drop_hook = lambda src, dst, payload: dropped.append(
        (src, dst))
    session = standard_session(cluster)
    session.start()
    sim = cluster.sim

    def client():
        kvs = KvsClient(session.connect(1, collective=False), timeout=0.1)
        yield kvs.put("x", 1)           # local to rank 1's slave: ok
        try:
            yield kvs.commit()          # must cross the fabric: dropped
        except RpcError as exc:
            return exc.code
        return None

    proc = sim.spawn(client())
    sim.run(until=5.0)
    assert proc.triggered and proc.ok
    assert proc.value == ETIMEDOUT
    assert dropped, "drop_hook never saw the injected drops"
    assert plan.stats()["drops"] > 0
    assert cluster.network.dropped >= plan.stats()["drops"]
    session.stop()


def _fence_run(plan, with_heartbeat):
    """Eight clients of a 15-node session put, fence and read a peer's
    value; with the heartbeat, interior rank 2 is killed mid-fence.
    Returns the event fingerprint, event count, wire bytes and reads."""
    cluster = make_cluster(15, seed=21)
    cluster.network.fault_plan = plan
    sim = cluster.sim
    fp = replay_fingerprint_hook(sim, keep_records=False)
    hb = (dict(with_heartbeat=True, hb_period=0.05, hb_max_epochs=40)
          if with_heartbeat else {})
    session = standard_session(cluster, **hb).start()
    if with_heartbeat:
        sim.timeout(0.12).add_callback(lambda _e: session.fail_rank(2))
    ranks = [1, 3, 5, 6, 7, 9, 11, 13]

    def member(i):
        k = KvsClient(session.connect(ranks[i]), timeout=5.0, retries=8)
        yield k.put(f"z.k{i}", i)
        yield sim.timeout(0.0 if i < 4 else 0.3)
        yield k.fence("z", len(ranks))
        return (yield k.get(f"z.k{(i + 1) % len(ranks)}"))

    procs = [sim.spawn(member(i)) for i in range(len(ranks))]
    sim.run(until=5.0)
    reads = [p.value for p in procs]
    assert reads == [(i + 1) % len(ranks) for i in range(len(ranks))]
    session.stop()
    return (fp.digest(), sim.event_count,
            cluster.network.total_bytes_sent(), reads)


@pytest.mark.parametrize("with_heartbeat", [False, True],
                         ids=["no_hb", "hb_and_kill"])
def test_zero_rate_plan_is_event_identical_to_no_plan(with_heartbeat):
    """The protocol is chosen by the heartbeat, not the fault plan: a
    plan whose rates are all zero changes no event, no byte and no
    read — without the heartbeat and with it plus an interior kill."""
    assert (_fence_run(FaultPlan(seed=1), with_heartbeat)
            == _fence_run(None, with_heartbeat))


# ----------------------------------------------------------------------
# RpcError.retryable
# ----------------------------------------------------------------------
def test_retryable_error_classification():
    assert RpcError("t", "x", code=ETIMEDOUT).retryable
    assert RpcError("t", "x", code=EHOSTUNREACH).retryable
    assert not RpcError("t", "x", code=EINVAL).retryable
    assert not RpcError("t", "x", code=ENOENT).retryable


def test_definitive_errors_not_retried():
    """ENOENT answers immediately even with retries enabled: the retry
    loop must not re-issue definitive service answers."""
    cluster = make_cluster(3, seed=2)
    session = standard_session(cluster)
    session.start()
    sim = cluster.sim
    handle = session.connect(1, collective=False)

    def client():
        try:
            yield handle.rpc("kvs.get", {"key": "no.such.key"},
                             timeout=1.0, retries=5)
        except RpcError as exc:
            return exc.code
        return None

    proc = sim.spawn(client())
    sim.run()
    assert proc.value == ENOENT
    assert handle.retries == 0
    session.stop()


# ----------------------------------------------------------------------
# Client retry + broker replay
# ----------------------------------------------------------------------
def test_client_retry_survives_interior_kill():
    """A client under a dying interior broker retries through the healed
    route and succeeds; at least one retry is observed."""
    cluster = make_cluster(7, seed=9)
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=0.05, hb_max_epochs=400)
    session.start()
    sim = cluster.sim
    sim.run(until=0.3)
    session.fail_rank(1)
    handle = session.connect(3, collective=False)   # 3 sits under 1

    def client():
        kvs = KvsClient(handle, timeout=0.05, retries=10)
        yield kvs.put("retry.key", 99)
        yield kvs.commit()
        return (yield kvs.get("retry.key"))

    proc = sim.spawn(client())
    sim.run(until=5.0)
    assert proc.triggered and proc.ok and proc.value == 99
    assert handle.retries >= 1
    session.stop()


def test_duplicate_delivery_is_harmless():
    """Heavy duplication must not double-apply anything: the final root
    version and reference match a fault-free run exactly."""

    def final_root(dup_rate):
        cluster = make_cluster(7, seed=3)
        if dup_rate:
            cluster.network.fault_plan = FaultPlan(seed=13,
                                                   dup_rate=dup_rate)
        session = standard_session(cluster, with_heartbeat=True,
                                   hb_period=0.05, hb_max_epochs=200)
        session.start()
        sim = cluster.sim

        def app(i, rank):
            kvs = KvsClient(session.connect(rank), timeout=2.0, retries=4)
            yield kvs.put(f"dup.k{i}", i)
            yield kvs.fence("dup.f", 8)
            yield kvs.put(f"dup.c{i}", -i)
            yield kvs.commit()

        procs = [sim.spawn(app(i, i % 7)) for i in range(8)]
        while sim.now < 8.0 and not all(p.triggered for p in procs):
            sim.run(until=sim.now + 0.5)
        assert all(p.triggered and p.ok for p in procs)
        kvs0 = session.module_at(0, "kvs")
        out = (kvs0.version, kvs0.root_sha, session.retry_stats())
        session.stop()
        return out

    v_clean, root_clean, _ = final_root(0.0)
    v_dup, root_dup, stats = final_root(0.25)
    assert (v_dup, root_dup) == (v_clean, root_clean)
    absorbed = stats["dups_parked"] + stats["replay_hits"]
    assert absorbed > 0, "no duplicate was ever absorbed"


def test_inflight_rpc_fails_fast_with_ehostunreach():
    """When the next hop is declared down, a pending request that
    cannot follow a healed route fails immediately with EHOSTUNREACH
    carrying the dead rank — not a slow client-side timeout."""
    cluster = make_cluster(7, seed=4)
    session = standard_session(cluster)
    session.start()
    sim = cluster.sim
    broker3 = session.brokers[3]
    got = []
    broker3.rpc_hop_cb(1, "kvs.getroot", {}, got.append)  # pinned hop
    # Declare rank 1 down before the response can come back.
    session.fail_rank(1)
    session.heal_around(1)
    sim.run(until=0.5)
    assert got, "pending RPC was not resolved"
    resp = got[0]
    assert resp.error is not None
    assert resp.errnum == EHOSTUNREACH
    assert resp.err_rank == 1
    session.stop()


# ----------------------------------------------------------------------
# Self-healing: cascades and reattach
# ----------------------------------------------------------------------
def test_cascading_failures_orphans_reach_root():
    """Kill a parent, then its replacement: grand-orphans must end up
    adopted by the root (children lists included, so events still
    reach them), and service from their subtree must work."""
    cluster = make_cluster(15, seed=21)
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=0.05, hb_max_epochs=100000)
    session.start()
    sim = cluster.sim
    sim.run(until=0.5)
    session.fail_rank(3)            # parent of 7, 8
    sim.run(until=1.2)              # detect + heal: 7, 8 -> rank 1
    assert session.brokers[7].parent == 1
    session.fail_rank(1)            # now kill the replacement
    sim.run(until=2.4)
    live0 = session.module_at(0, "live")
    assert {1, 3} <= live0.announced
    for orphan in (4, 7, 8):
        assert session.brokers[orphan].parent == 0
        assert orphan in session.brokers[0].children

    def client(rank):
        kvs = KvsClient(session.connect(rank))
        yield kvs.put(f"casc.{rank}", rank)
        yield kvs.fence("casc.f", 2)
        return (yield kvs.get(f"casc.{rank}"))

    procs = [sim.spawn(client(r)) for r in (7, 8)]
    sim.run(until=4.0)
    assert all(p.triggered and p.ok and p.value == r
               for p, r in zip(procs, (7, 8)))
    session.stop()


def test_revive_rank_reattaches_and_serves():
    """A revived broker rejoins via live.reattach: the dead-set is
    pruned, original topology edges are restored, adopted orphans are
    handed back, and service through the returnee works."""
    cluster = make_cluster(15, seed=22)
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=0.05, hb_max_epochs=100000)
    session.start()
    sim = cluster.sim
    sim.run(until=0.5)
    session.fail_rank(1)
    sim.run(until=1.5)
    live0 = session.module_at(0, "live")
    assert 1 in live0.announced
    assert session.brokers[3].parent == 0   # orphans healed to root

    session.revive_rank(1)
    sim.run(until=2.5)
    assert 1 not in live0.announced         # dead-set pruned
    assert session.brokers[1].parent == 0
    assert 1 in session.brokers[0].children
    assert session.brokers[3].parent == 1   # orphan handed back
    assert 3 not in session.brokers[0].children

    def client():
        kvs = KvsClient(session.connect(3, collective=False))
        yield kvs.put("revive.k", 7)
        yield kvs.commit()
        return (yield kvs.get("revive.k"))

    proc = sim.spawn(client())
    sim.run(until=4.0)
    assert proc.triggered and proc.ok and proc.value == 7
    # The returnee must not be re-declared dead afterwards.
    assert 1 not in live0.announced
    session.stop()


def test_falsely_buried_orphan_of_a_dead_root_rejoins_its_adopter():
    """Rank 2 was adopted by the acting root, rank 1, when rank 0 died.
    Its hellos are then lost until rank 1 declares it dead, and when
    they resume it re-attaches: rank 1 must take it back as a child —
    its static parent is the corpse, so restoring static edges alone
    would leave it cut off from every pulse and flood."""
    cluster = make_cluster(7, seed=23)
    plan = FaultPlan(seed=1)
    cluster.network.fault_plan = plan
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=0.05, hb_max_epochs=100000)
    session.start()
    sim = cluster.sim
    sim.run(until=0.3)
    session.fail_rank(0)
    sim.run(until=1.0)
    assert session.brokers[2].parent == 1
    assert 2 in session.brokers[1].children
    plan.drop_next(session.node_of_rank(2), session.node_of_rank(1),
                   count=8)
    live1, live2 = (session.module_at(r, "live") for r in (1, 2))
    sim.run(until=1.4)
    assert 2 in live1.announced             # buried while silent
    sim.run(until=2.5)
    assert 2 not in live1.announced         # its hellos brought it back
    assert session.brokers[2].parent == 1
    assert 2 in session.brokers[1].children
    assert live2.epoch >= live1.epoch - 1   # pulses reach it again
    session.stop()


# ----------------------------------------------------------------------
# Convergence under chaos (the acceptance workload)
# ----------------------------------------------------------------------
def test_chaos_loss_and_interior_kill_converges():
    """31 nodes, 1% seeded loss, one interior broker killed mid-run:
    every acknowledged write is readable, fences release, and no
    waiter hangs."""
    report = run_chaos_workload(n_nodes=31, n_clients=16, drop_rate=0.01,
                                kills=((5, 0.25),),
                                n_iters=2, think=0.2, run_until=40.0)
    assert report.converged, report.errors
    assert report.hung_waiters == 0
    assert report.reads_failed == 0
    assert report.reads_verified == 16 * 3   # 2 fences + 1 commit each
    assert report.anti_entropy_misses == []


def test_chaos_dup_and_delay_converges():
    """Duplication and delay injection (no loss, no kill) converge with
    zero verification failures and no retry storms."""
    report = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.0,
                                dup_rate=0.05, delay_rate=0.2,
                                n_iters=2, run_until=20.0)
    assert report.converged, report.errors
    assert report.fault_stats["dups"] > 0
    assert report.fault_stats["delays"] > 0
    assert report.anti_entropy_misses == []


def test_chaos_kill_root_mid_fence_converges():
    """The multi-master acceptance scenario: rank 0 — the KVS root
    master — is killed mid-``kvs_fence`` under 1% loss with standby
    replicas configured.  The ring election promotes a replica, the
    in-flight fence replays against it, and every acknowledged write
    survives with the runtime sanitizers clean (no acked write lost,
    no stale read served)."""
    report = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.01,
                                seed=5, fault_seed=13,
                                kills=((0, 0.12),),
                                hb_period=0.05, n_iters=2, think=0.1,
                                timeout=0.5, retries=10, run_until=40.0,
                                kvs_replicas=(1, 2), sanitize=True)
    assert report.converged, report.errors
    assert report.reads_failed == 0
    assert report.hung_waiters == 0
    assert report.sanitizer_findings == []
    assert report.reads_verified == 8 * 3   # 2 fences + 1 commit each
    assert report.anti_entropy_misses == []


def test_chaos_harness_fault_free_baseline():
    """With all rates zero and no kills the harness reports a clean,
    retry-free run (sanity for the amplification metric)."""
    report = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.0,
                                fault_seed=1, n_iters=1, run_until=20.0)
    assert report.converged, report.errors
    assert report.client_retries == 0
    assert report.retry_amplification == 0.0


def chaos_driver():
    """``benchmarks/perf/chaos_driver.py``, loaded by path (it imports
    nothing but ``repro``)."""
    path = (pathlib.Path(__file__).parent.parent / "benchmarks" / "perf"
            / "chaos_driver.py")
    spec = importlib.util.spec_from_file_location("chaos_driver", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fault_seed", [4, 11])
def test_harness_reproduces_the_benchmark_chaos_driver(fault_seed):
    """The sweep's scenario at 31 nodes and 16 clients: the harness
    reports what the ``chaos_failover_127`` driver reports, call for
    call, so the driver's copy of the scenario can give way to this
    one with the benchmark row unmoved."""
    driver = chaos_driver()
    config = dict(COMMANDS["sweep"][0], n_nodes=31, n_clients=16,
                  fault_seed=fault_seed)
    assert (config["kills"], config["kvs_replicas"], config["drop_rate"],
            config["dup_rate"]) == (((driver.KILL_RANK, driver.KILL_AT),),
                                    driver.KVS_REPLICAS, driver.DROP_RATE,
                                    driver.DUP_RATE)
    want = driver.run_chaos(
        **{k: config[k] for k in ("n_nodes", "n_clients", "n_iters",
                                  "think", "fault_seed")})
    got = run_chaos_workload(**config)
    assert got.converged, got.errors
    assert (got.events, got.bytes_sent, got.makespan, got.latencies,
            got.failover, got.detect_latency, got.reads_verified) == (
        want["events"], want["bytes_sent"], want["makespan"],
        want["latencies"], want["failover_s"], want["detect_s"],
        want["reads_verified"])
