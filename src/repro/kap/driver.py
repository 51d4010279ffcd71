"""The KAP test driver (paper Section V).

KAP "allows a configurable number of producers to write key-value
objects into our KVS and a configurable number of consumers to read
these objects after ensuring the consistent KVS state", in four
phases: **setup** (launch testers, collective barrier), **producer**
(``kvs_put`` of unique keys), **synchronization** (``kvs_fence`` or
commit + ``kvs_wait_version``), and **consumer** (``kvs_get`` under a
configurable access pattern).

:func:`run_kap` builds the simulated cluster and comms session, runs
every tester process to completion, and returns per-phase latency
distributions whose maxima are the quantities plotted in Figures 2-4.

Observability hooks: ``trace_out`` writes a Chrome trace-event JSON
(load it in Perfetto / ``chrome://tracing``) of every client call's
span tree; ``stats_out`` writes the per-broker metrics registries plus
their session-wide merge.  Both are pure exports — tracing schedules
no simulation events and draws no randomness, and with both left
``None`` the run is untouched.
"""

from __future__ import annotations

from typing import Optional

from ..cmb.modules.barrier import BarrierModule
from ..cmb.session import CommsSession, ModuleSpec
from ..cmb.topology import TreeTopology
from ..kvs.api import KvsClient
from ..kvs.module import KvsModule
from ..sim.kernel import paused_gc
from ..sim.cluster import make_cluster
from .config import KapConfig
from .patterns import consumer_targets, make_value, object_key, proc_rank_node
from .results import KapResult

__all__ = ["run_kap"]


def run_kap(config: KapConfig,
            max_events: Optional[int] = None,
            *,
            tracing: bool = False,
            trace_out: Optional[str] = None,
            stats_out: Optional[str] = None,
            sanitize: bool = False,
            postmortem_out: Optional[str] = None) -> KapResult:
    """Execute one KAP run and return its measured latencies.

    ``max_events`` optionally bounds the simulation (guards against
    accidental huge configurations in tests).  ``trace_out`` /
    ``stats_out`` export the causal trace and the metrics registries
    as JSON; passing ``trace_out`` implies ``tracing``.

    ``sanitize=True`` enables the full runtime sanitizer suite
    (:mod:`repro.analysis.sanitizers`): FIFO link ordering, KVS
    read consistency, span-forest shape, and an event-stream
    fingerprint for replay-divergence checks.  Findings land in
    ``result.sanitizer_findings``; the checkers are pure observers,
    so the run itself is event-identical to a sanitizer-off run.

    ``postmortem_out`` arms the failure black box: if the run
    deadlocks (or sanitizers report findings), every broker's
    flight-recorder ring plus waiter/pending censuses are dumped to
    that path for ``python -m repro.obs.doctor``.
    """
    cluster = make_cluster(config.nnodes, seed=config.seed)
    sim = cluster.sim
    session = CommsSession(
        cluster,
        topology=TreeTopology(config.nnodes, arity=config.tree_arity),
        modules=[ModuleSpec(KvsModule, dedup=config.dedup),
                 ModuleSpec(BarrierModule)],
    ).start()
    if tracing or trace_out:
        session.enable_tracing()
    fingerprint = None
    if sanitize:
        from ..analysis.sanitizers import replay_fingerprint_hook
        session.enable_sanitizers()
        fingerprint = replay_fingerprint_hook(sim, keep_records=False)

    result = KapResult(config)
    nprocs = config.nprocs
    setup_done: list[float] = []

    def tester(proc_id: int):
        rank = proc_rank_node(config, proc_id)
        handle = session.connect(rank)
        kvs = KvsClient(handle)
        is_producer = proc_id < config.producers
        is_consumer = proc_id < config.consumers

        # -- setup phase: synchronized start ---------------------------
        yield handle.barrier("kap.setup", nprocs)
        setup_done.append(sim.now)

        # -- producer phase --------------------------------------------
        t0 = sim.now
        if is_producer:
            for j in range(config.nputs):
                gid = proc_id * config.nputs + j
                key = object_key(gid, config.dir_width)
                value = make_value(gid, config.value_size,
                                   config.redundant_values)
                yield kvs.put(key, value)
            result.producer.add(sim.now - t0)

        # -- synchronization phase --------------------------------------
        t1 = sim.now
        if config.sync == "fence":
            yield kvs.fence("kap.sync", nprocs)
        else:
            if is_producer:
                yield kvs.commit()
            # Every producer commits exactly once, so the state is
            # complete at root version >= nproducers.
            yield kvs.wait_version(config.producers)
        result.sync.add(sim.now - t1)

        # -- consumer phase ----------------------------------------------
        if is_consumer:
            t2 = sim.now
            for gid in consumer_targets(config, proc_id):
                key = object_key(gid, config.dir_width)
                value = yield kvs.get(key)
                assert len(value) == config.value_size
            result.consumer.add(sim.now - t2)

    procs = [sim.spawn(tester(i), name=f"kap[{i}]")
             for i in range(nprocs)]
    all_done = sim.all_of(procs)
    # Cyclic GC otherwise dominates large runs (per-event cost grows
    # with live-store size); reference counting reclaims the hot path's
    # garbage, so pausing the collector is result-invisible.
    with paused_gc():
        sim.run(max_events=max_events)
    if not all_done.triggered:
        if postmortem_out:
            from ..obs.postmortem import capture_bundle, write_bundle
            write_bundle(
                capture_bundle(
                    session, "KAP deadlocked: not all testers finished",
                    kind="kap",
                    extra={"nnodes": config.nnodes,
                           "nprocs": config.nprocs,
                           "sync": config.sync, "seed": config.seed}),
                postmortem_out)
        raise RuntimeError("KAP deadlocked: not all testers finished")

    result.setup_time = max(setup_done) if setup_done else 0.0
    result.total_time = sim.now
    result.events = sim.event_count
    result.bytes_sent = cluster.network.total_bytes_sent()
    result.plane_bytes = session.plane_bytes()
    result.flight_peak = session.flight_peak()
    result.msg_counts = session.message_counts()
    result.level_bytes = session.level_bytes()
    result.interned_bytes_saved = sum(
        broker.modules["kvs"].interned_bytes_saved()
        for broker in session.brokers)
    session.stop()
    if sanitize:
        result.sanitizer_findings = list(session.sanitizers.finish())
        result.event_fingerprint = fingerprint.digest()
        if result.sanitizer_findings and postmortem_out:
            from ..obs.postmortem import capture_bundle, write_bundle
            write_bundle(
                capture_bundle(
                    session,
                    f"{len(result.sanitizer_findings)} sanitizer "
                    f"finding(s)",
                    kind="kap",
                    extra={"nnodes": config.nnodes,
                           "nprocs": config.nprocs,
                           "findings": [str(f) for f in
                                        result.sanitizer_findings[:10]]}),
                postmortem_out)

    if trace_out:
        session.span_tracer.write_chrome_trace(trace_out)
    if stats_out:
        session.write_stats(stats_out, {
            "kind": "kap",
            "nnodes": config.nnodes,
            "nprocs": config.nprocs,
            "sync": config.sync,
            "seed": config.seed,
            "sim_time": result.total_time,
            "sim_events": result.events,
        }, range(config.nnodes))
    return result
