"""The benchmark's workloads: what each one runs, on what inputs, and
what it reports.

Every workload is a *closed loop* on a single-threaded deterministic
simulator: each simulated tester issues its next KVS call when the
previous one completes.  ``setup_once`` and ``run_once`` are what the
child processes of ``run.py`` execute; everything they return is a
plain JSON-able dict.

Options are passed to ``KapConfig`` / ``run_kap`` only if the field
still exists, and each row records ``config_effective``: a later change
that deletes ``dedup=`` / ``shards=`` keeps running the same traffic on
whatever single path remains.
"""

import dataclasses
import inspect
import json
import os
import resource
import statistics
import sys
import time

#: Sizes come from sizing runs on a 2-core box: each execution takes
#: 1.4-3 s there, so that several fit in one run of the benchmark (see
#: README.md).  ``quick`` is the 16-node scale of the self-test.
WORKLOADS = {
    "kap_fence_4k": {
        "kind": "kap",
        "why": ("write/sync-heavy (Fig. 3 shape): jsonutil sizing and "
                "hashing, kvs.module fence aggregation and sim.network "
                "bytes do the work; the read path is idle"),
        # One consumer reads one object back at the master: it checks
        # that the fence committed and keeps sim_get_max_ms off zero
        # without moving any object through the tree.
        "config": dict(nnodes=256, procs_per_node=16, value_size=2048,
                       nputs=4, nconsumers=1),
        "quick": dict(nnodes=16),
    },
    "kap_get_1k": {
        "kind": "kap",
        "why": ("read-heavy (Fig. 4b shape): cmb.broker routing, "
                "sim.kernel and kvs.cache fault-in dominate; fence "
                "payloads are tiny, so a fence or hashing optimisation "
                "must show no change here"),
        "config": dict(nnodes=64, procs_per_node=16, value_size=8,
                       naccess=8, dir_width=128),
        "quick": dict(nnodes=16),
    },
    "kap_get_1k_obs": {
        "kind": "kap",
        "why": ("kap_get_1k traffic with tracing, sanitizers and the "
                "stats export on: obs.* and analysis.sanitizers do the "
                "extra work; its wall_s over kap_get_1k's is the "
                "observer perturbation"),
        "config": dict(nnodes=64, procs_per_node=16, value_size=8,
                       naccess=8, dir_width=128),
        "quick": dict(nnodes=16),
        "observers": True,
        "perturbation_of": "kap_get_1k",
    },
    "kap_scale_4k": {
        "kind": "kap",
        "why": ("paper-default KAP on the opt-in scale path: "
                "kvs.walk reads, per-link sha filters and sim.shard "
                "in place of fault-in and the single kernel"),
        "config": dict(nnodes=256, procs_per_node=16, value_size=64,
                       dedup=True, shards=16),
        "quick": dict(nnodes=16, shards=4),
    },
    "chaos_failover_127": {
        "kind": "chaos",
        "why": ("the hardened path: cmb.broker retry/replay/reroute, "
                "live/hb, election and the G-counter fence format under "
                "1% drop + 1% dup and a root kill; KAP bypasses all "
                "of it"),
        "config": dict(n_nodes=127, n_clients=64, n_iters=8, think=0.1,
                       fault_seed=11),
        "quick": dict(n_nodes=15, n_clients=8, n_iters=4),
    },
}

#: In-process repeats of the set-up inside one probe process.
SETUP_REPEATS = 5

#: Simulated-clock and byte metrics: identical on every repeat of one
#: commit, workload and seed, or the run is invalid.
EXACT_METRICS = ("sim_put_max_ms", "sim_fence_max_ms", "sim_get_max_ms",
                 "sim_makespan_ms", "wire_bytes", "events")


def _params(name, quick):
    spec = WORKLOADS[name]
    return spec, dict(spec["config"], **(spec["quick"] if quick else {}))


def _supported(fn):
    return set(inspect.signature(fn).parameters)


# ----------------------------------------------------------------------
# KAP workloads
# ----------------------------------------------------------------------
def kap_config(name, seed, quick=False):
    """``(KapConfig, config_effective)`` for a KAP workload."""
    from repro.kap import KapConfig
    _spec, want = _params(name, quick)
    want["seed"] = seed
    fields = {f.name for f in dataclasses.fields(KapConfig)}
    effective = {k: v for k, v in want.items() if k in fields}
    return KapConfig(**effective), effective


def _kap_session(cfg):
    from repro import (BarrierModule, CommsSession, KvsModule, ModuleSpec,
                       TreeTopology, make_cluster)
    kvs_opts = ({"dedup": cfg.dedup}
                if getattr(cfg, "dedup", False)
                and "dedup" in _supported(KvsModule.__init__) else {})
    cluster = make_cluster(cfg.nnodes, seed=cfg.seed)
    return CommsSession(
        cluster, topology=TreeTopology(cfg.nnodes, arity=cfg.tree_arity),
        modules=[ModuleSpec(KvsModule, **kvs_opts),
                 ModuleSpec(BarrierModule)]).start()


def _series(series):
    """``(max_ms, p50_ms, samples)`` of a KAP phase."""
    if not len(series):
        return 0.0, 0.0, 0
    s = series.summary()
    return s.max * 1e3, s.p50 * 1e3, s.count


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_kap_workload(name, seed, quick, stats_path, invoke=_call):
    """One KAP run.  ``stats_path`` asks ``run_kap`` for its metrics
    export, which is where the cache/broker counters come from; the
    timed runs of workloads without observers leave it ``None``.
    ``invoke`` makes the workload call (the traced run passes the
    profiler's ``runcall``)."""
    from repro.kap import model, run_kap
    from repro.sim.cluster import zin_like_params
    spec = WORKLOADS[name]
    cfg, effective = kap_config(name, seed, quick)
    kwargs = {}
    if spec.get("observers"):
        kwargs.update(tracing=True, sanitize=True)
    if stats_path:
        kwargs["stats_out"] = stats_path
    kwargs = {k: v for k, v in kwargs.items() if k in _supported(run_kap)}
    effective.update(kwargs)

    attempted = (cfg.producers * cfg.nputs + cfg.nprocs
                 + cfg.consumers * cfg.naccess)
    t0 = time.perf_counter()  # repro: noqa[DET001]
    try:
        res = invoke(run_kap, cfg, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a failed run is a result
        return {"attempted": attempted, "failed": attempted,
                "error": f"{type(exc).__name__}: {exc}",
                "config_effective": effective}
    wall = time.perf_counter() - t0  # repro: noqa[DET001]

    put_max, put_p50, n_put = _series(res.producer)
    fence_max, fence_p50, n_fence = _series(res.sync)
    get_max, get_p50, n_get = _series(res.consumer)
    findings = [str(f) for f in res.sanitizer_findings]
    failed = ((cfg.producers - n_put) * cfg.nputs + (cfg.nprocs - n_fence)
              + (cfg.consumers - n_get) * cfg.naccess + len(findings))
    params = zin_like_params()

    def ratio(measured_ms, predict):
        predicted = predict(cfg, params) * 1e3
        return measured_ms / predicted if measured_ms and predicted else 0.0

    row = {
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "findings": findings[:10],
        "config_effective": effective,
        "events": res.events,
        "wire_bytes": res.bytes_sent,
        "sim_put_max_ms": put_max,
        "sim_fence_max_ms": fence_max,
        "sim_get_max_ms": get_max,
        "sim_makespan_ms": res.total_time * 1e3,
        "layer": {
            "sim.put.p50_ms": put_p50,
            "sim.fence.p50_ms": fence_p50,
            "sim.get.p50_ms": get_p50,
            "sim.put.model_ratio": ratio(
                put_max, model.predict_producer_latency),
            "sim.fence.model_ratio": ratio(
                fence_max, model.predict_fence_latency),
            "sim.get.model_ratio": ratio(
                get_max, model.predict_consumer_latency),
            "kvs.module.interned_bytes_saved": res.interned_bytes_saved,
            "obs.flight_peak": res.flight_peak,
        },
    }
    row["layer"].update(_traffic_counters(
        res.plane_bytes, res.level_bytes, res.msg_counts))
    if stats_path:
        with open(stats_path, encoding="utf-8") as fh:
            row["layer"].update(
                _registry_counters(json.load(fh)["aggregate"]))
    return row


# ----------------------------------------------------------------------
# chaos workload
# ----------------------------------------------------------------------
def chaos_tag(seed):
    """A five-letter key prefix made from the seed.

    The fault schedule is one shared RNG drawn in message order, so any
    change in message *sizes* reshuffles which messages are dropped
    (fault seed 4 of the first ten does not even converge).  A
    fixed-width prefix makes different seeds different inputs while
    every seed meets the same schedule.
    """
    n = seed * 2654435761 % 26 ** 5
    return "".join(chr(ord("a") + n // 26 ** i % 26) for i in range(5))


def run_chaos_workload(name, seed, quick, invoke=_call):
    from chaos_driver import run_chaos
    _spec, params = _params(name, quick)
    params["tag"] = chaos_tag(seed)
    t0 = time.perf_counter()  # repro: noqa[DET001]
    rep = invoke(run_chaos, **params)
    wall = time.perf_counter() - t0  # repro: noqa[DET001]

    lat = rep["latencies"]
    retry = rep["retry_stats"]
    # A client that errored or hung fails all its remaining calls; a
    # wrong peer read or an acknowledged write that cannot be re-read
    # fails that one call.
    attempted = rep["logical_rpcs"] + rep["acked_writes"]
    failed = min(attempted,
                 (rep["errored_clients"] + rep["hung_clients"])
                 * (rep["logical_rpcs"] // params["n_clients"])
                 + rep["wrong_reads"] + rep["reads_failed"])
    extra_sends = retry["retransmits"] + rep["client_retries"]
    row = {
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "findings": rep["errors"],
        "config_effective": params,
        "events": rep["events"],
        "wire_bytes": rep["bytes_sent"],
        "sim_put_max_ms": max(lat["put"], default=0.0) * 1e3,
        "sim_fence_max_ms": max(lat["fence"], default=0.0) * 1e3,
        "sim_get_max_ms": max(lat["get"], default=0.0) * 1e3,
        "sim_makespan_ms": rep["makespan"] * 1e3,
        "layer": {
            "sim.put.p50_ms": _p50_ms(lat["put"]),
            "sim.fence.p50_ms": _p50_ms(lat["fence"]),
            "sim.get.p50_ms": _p50_ms(lat["get"]),
            "cmb.modules.live.detect_ms": rep["detect_s"] * 1e3,
            "kvs.master.failover_ms": rep["failover_s"] * 1e3,
            "cmb.broker.retry_amplification":
                extra_sends / rep["logical_rpcs"],
            "obs.flight_peak": rep["flight_peak"],
        },
        "chaos": {k: rep[k] for k in (
            "logical_rpcs", "reads_verified", "reads_failed",
            "client_retries", "retry_stats", "fault_stats")},
    }
    row["layer"].update(_traffic_counters(
        rep["plane_bytes"], rep["level_bytes"], rep["msg_counts"]))
    row["layer"].update(_registry_counters(rep["metrics"]))
    return row


def _p50_ms(samples):
    return statistics.median(samples) * 1e3 if samples else 0.0


# ----------------------------------------------------------------------
# counters shared by both kinds
# ----------------------------------------------------------------------
def _traffic_counters(plane_bytes, level_bytes, msg_counts):
    total = sum(level_bytes.values())

    def kind(k):
        return sum(n for (_m, _p, kk), n in msg_counts.items() if kk == k)

    return {
        "sim.network.bytes_tree": sum(
            n for p, n in plane_bytes.items() if p.startswith("tree")),
        "sim.network.bytes_event": sum(
            n for p, n in plane_bytes.items() if p.startswith("event")),
        "sim.network.bytes_ring": plane_bytes.get("ring", 0),
        "sim.network.level_max_share":
            max(level_bytes.values()) / total if total else 0.0,
        "cmb.message.count_request": kind("request"),
        "cmb.message.count_response": kind("response"),
        "cmb.message.count_event": kind("event"),
    }


def _registry_counters(aggregate):
    """Counters from the session-wide metrics-registry aggregate."""
    totals = {}
    for m in aggregate["metrics"]:
        if m["type"] == "counter":
            totals[m["name"]] = totals.get(m["name"], 0) + m["value"]

    def c(metric):
        return totals.get(metric, 0)

    hits, misses = c("kvs_cache_hits_total"), c("kvs_cache_misses_total")
    return {
        "cmb.broker.requests": c("broker_requests_handled_total"),
        "cmb.broker.retransmits": c("broker_retransmits_total"),
        "cmb.broker.reroutes": c("broker_reroutes_total"),
        "cmb.broker.replay_hits": c("broker_replay_hits_total"),
        "cmb.broker.dups_parked": c("broker_dups_parked_total"),
        "kvs.cache.hits": hits,
        "kvs.cache.misses": misses,
        "kvs.cache.faults": c("kvs_cache_faults_total"),
        "kvs.cache.evictions": c("kvs_cache_evictions_total"),
        "kvs.cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "kvs.module.walk_gets": c("kvs_walk_gets_total"),
    }


# ----------------------------------------------------------------------
# child-process entry points
# ----------------------------------------------------------------------
def setup_once(name, seed, quick=False):
    """Time ``import repro`` plus building and starting the workload's
    session shape, ``SETUP_REPEATS`` times in this process, and return
    the fastest.

    Every repeat imports the package afresh.  The first also pays for
    numpy and the standard library, which are not the program's work;
    the fastest of several short samples is what this host can do in a
    quiet moment, which a single cold start is not.
    """
    spec, params = _params(name, quick)
    samples = []
    for _ in range(SETUP_REPEATS):
        for mod in [m for m in sys.modules
                    if m.split(".")[0] in ("repro", "chaos_driver")]:
            del sys.modules[mod]
        t0 = time.perf_counter()  # repro: noqa[DET001]
        import repro.kap  # noqa: F401
        if spec["kind"] == "kap":
            session = _kap_session(kap_config(name, seed, quick)[0])
        else:
            from chaos_driver import build_session
            session = build_session(params["n_nodes"])[1]
        samples.append(time.perf_counter() - t0)  # repro: noqa[DET001]
        session.stop()
    return {"setup_s": min(samples)}


def run_once(name, seed, quick=False, counters=False, scratch=".",
             invoke=_call):
    """One execution of ``name``; returns its row.

    ``counters`` turns on the registry export for KAP workloads that
    run without observers (their timed runs leave it off).
    """
    spec = WORKLOADS[name]
    if spec["kind"] == "chaos":
        row = run_chaos_workload(name, seed, quick, invoke)
    else:
        stats_path = None
        if counters or spec.get("observers"):
            stats_path = os.path.join(scratch, f"stats-{os.getpid()}.json")
        try:
            row = run_kap_workload(name, seed, quick, stats_path, invoke)
        finally:
            if stats_path and os.path.exists(stats_path):
                os.remove(stats_path)
    row["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return row
