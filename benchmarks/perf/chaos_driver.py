"""Load generator for the ``chaos_failover_127`` workload.

A closed loop: each client issues put -> fence -> get(peer) and only
then its next iteration, over a lossy fabric, while the KVS root is
killed and a replica takes over.  Every call is timed on the simulated
clock, and after the run every acknowledged write is read back over a
clean fabric.

Written against the public API only (``make_cluster``,
``standard_session``, ``FaultPlan``, ``KvsClient``,
``session.fail_rank``, ``session.retry_stats``), so that the planned
split of ``kvs/module.py`` and edits to ``tests/chaos.py`` do not move
what this benchmark measures.
"""

from repro import make_cluster, standard_session
from repro.kvs import KvsClient
from repro.sim.faults import FaultPlan

#: Simulated seconds after which clients still running count as hung.
RUN_UNTIL = 60.0
#: The scenario: a lossy fabric, the KVS root killed early, two standby
#: replicas, and clients that retry.  The values are those of the
#: ``tests/chaos.py`` run this driver was cross-checked against.
DROP_RATE = DUP_RATE = 0.01
HB_PERIOD = 0.05
KILL_RANK = 0
KILL_AT = 0.25
KVS_REPLICAS = (1, 2)
CLIENT_TIMEOUT = 0.5
CLIENT_RETRIES = 8


def build_session(n_nodes, fault_plan=None):
    """The workload's cluster and started session (also what the
    benchmark times as set-up)."""
    cluster = make_cluster(n_nodes, seed=7)
    cluster.network.fault_plan = fault_plan
    session = standard_session(
        cluster, with_heartbeat=True, hb_period=HB_PERIOD,
        hb_max_epochs=int(RUN_UNTIL / HB_PERIOD),
        kvs_replicas=KVS_REPLICAS)
    return cluster, session.start()


def _run_while(sim, busy, deadline, step):
    """Run in slices so the simulation stops soon after the work
    drains, not after every remaining heartbeat epoch."""
    while sim.now < deadline and busy():
        sim.run(until=min(deadline, sim.now + step))


def run_chaos(*, n_nodes, n_clients, n_iters, think, fault_seed,
              tag="chaos"):
    """Run the workload; returns its report as a dict.

    ``tag`` prefixes every key and fence name: it is how the
    benchmark's seed reaches the inputs without changing a message
    size, and so without changing the fault schedule.
    """
    plan = FaultPlan(seed=fault_seed, drop_rate=DROP_RATE,
                     dup_rate=DUP_RATE)
    cluster, session = build_session(n_nodes, plan)
    sim = cluster.sim

    client_ranks = [r for r in range(n_nodes) if r != KILL_RANK]
    obs_rank = client_ranks[0]
    detected = []
    session.brokers[obs_rank].subscribe(
        "live.down",
        lambda msg: (msg.payload["rank"] == KILL_RANK
                     and detected.append(sim.now)))
    sim.timeout(KILL_AT).add_callback(
        lambda _ev: session.fail_rank(KILL_RANK))

    lat = {"put": [], "fence": [], "get": []}
    fence_done = []
    acked = []
    finished = []
    handles = []
    errors = []
    wrong_reads = []

    def timed(kind, event):
        t0 = sim.now
        value = yield event
        lat[kind].append(sim.now - t0)
        return value

    def client(idx, rank):
        # Failures are tallied, not raised: an exception escaping a
        # simulated process would abort sim.run() and lose the report.
        try:
            handle = session.connect(rank)
            handles.append(handle)
            kvs = KvsClient(handle, timeout=CLIENT_TIMEOUT,
                            retries=CLIENT_RETRIES)
            for it in range(n_iters):
                key = f"{tag}.k{it}.{idx}"
                yield from timed("put", kvs.put(key, [idx, it]))
                yield from timed("fence",
                                 kvs.fence(f"{tag}.f{it}", n_clients))
                fence_done.append(sim.now)
                acked.append((key, [idx, it]))
                peer = (idx + 1) % n_clients
                got = yield from timed("get",
                                       kvs.get(f"{tag}.k{it}.{peer}"))
                if got != [peer, it]:
                    wrong_reads.append(key)
                yield sim.timeout(think * (1 + idx / n_clients))
            yield from timed("put", kvs.put(f"{tag}.c.{idx}", idx))
            yield kvs.commit()
            acked.append((f"{tag}.c.{idx}", idx))
        except Exception as exc:  # noqa: BLE001 - tallied in the report
            errors.append(f"client {idx} (t={sim.now:.3f}): {exc}")
            return
        finished.append(sim.now)

    procs = [sim.spawn(client(i, client_ranks[i % len(client_ranks)]),
                       name=f"chaos-client-{i}")
             for i in range(n_clients)]
    _run_while(sim, lambda: not all(p.triggered for p in procs),
               RUN_UNTIL, 0.5)
    sim.run(until=sim.now + 1.0)
    hung = sum(1 for p in procs if not p.triggered)

    # Every acknowledged write must be readable over a clean fabric.
    cluster.network.fault_plan = None
    unreadable = []

    def verifier():
        kvs = KvsClient(session.connect(obs_rank, collective=False),
                        timeout=10.0)
        for key, want in acked:
            try:
                got = yield kvs.get(key)
            except Exception:  # noqa: BLE001 - counted as a failed read
                got = None
            if got != want:
                unreadable.append(key)

    vproc = sim.spawn(verifier(), name="chaos-verifier")
    _run_while(sim, lambda: not vproc.triggered, sim.now + 20.0, 0.05)
    verifier_ok = vproc.triggered and vproc.ok

    logical_rpcs = n_clients * (n_iters * 3 + 2)
    report = {
        "logical_rpcs": logical_rpcs,
        "errored_clients": len(errors),
        "hung_clients": hung,
        "wrong_reads": len(wrong_reads),
        "acked_writes": len(acked),
        "reads_verified": len(acked) - len(unreadable),
        "reads_failed": len(unreadable) + (0 if verifier_ok else 1),
        "errors": errors[:10],
        "makespan": max(finished) if finished else sim.now,
        "latencies": lat,
        "detect_s": detected[0] - KILL_AT if detected else 0.0,
        "failover_s": min((t - KILL_AT for t in fence_done
                           if t > KILL_AT), default=0.0),
        "client_retries": sum(h.retries for h in handles),
        "retry_stats": session.retry_stats(),
        "fault_stats": plan.stats(),
        "events": sim.event_count,
        "bytes_sent": cluster.network.total_bytes_sent(),
        "plane_bytes": session.plane_bytes(),
        "level_bytes": session.level_bytes(),
        "msg_counts": session.message_counts(),
        "flight_peak": session.flight_peak(),
        "metrics": session.metrics_aggregate(),
    }
    session.stop()
    return report
