"""A run's resident footprint: what a simulation process holds besides
the simulation.

- The import path: ``repro``, ``repro.kap`` and a chaos-shaped session
  load no numpy (checked in a fresh interpreter).
- ``StatSeries.summary()``, which replaced numpy with the standard
  library, reproduces numpy's min/max/mean/percentiles bit for bit.
- The always-on flight ring stores records column-wise, reads back
  exactly what a ring of 6-tuples would, and retains ≤ 56 B a record.
- The span tracer stores spans column-wise too and retains ≤ 96 B a
  span over a traced KAP run.
- The broker's inbox-depth histogram counts empty-inbox deliveries
  lazily, yet every read of it equals an eagerly fed histogram.
- A fence slave of a session without the heartbeat keeps only the
  counts of the shares it relayed, with the commit, the per-round
  object dedup and the hardened re-emission unchanged.

numpy is imported here only as the reference the summary is checked
against.
"""

import gc
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import make_cluster, standard_session
from repro.cmb.modules import registry_samplers
from repro.cmb.session import CommsSession
from repro.kap import KapConfig, run_kap
from repro.jsonutil import sha1_of
from repro.kvs import KvsClient, KvsModule, make_val_obj
from repro.obs import (DEFAULT_SIZE_LADDER, FlightRecorder, Histogram,
                       SpanTracer)
from repro.sim.faults import FaultPlan
from repro.sim.trace import StatSeries

from .test_kvs_protocol import make_kvs_session, run

SRC = Path(__file__).resolve().parents[1] / "src"


# ----------------------------------------------------------------------
# the import path
# ----------------------------------------------------------------------
def test_simulation_path_loads_no_numpy():
    """Import the package and KAP, build the chaos benchmark's session
    shape (lossy fabric, heartbeat, replicas), run a small KAP and
    summarize it: numpy never enters ``sys.modules``."""
    script = textwrap.dedent("""
        import sys
        import repro, repro.kap
        from repro import make_cluster, standard_session
        from repro.kap import KapConfig, run_kap
        from repro.sim.faults import FaultPlan

        cluster = make_cluster(15, seed=7)
        cluster.network.fault_plan = FaultPlan(seed=11, drop_rate=0.01,
                                               dup_rate=0.01)
        session = standard_session(cluster, with_heartbeat=True,
                                   hb_period=0.05, hb_max_epochs=20,
                                   kvs_replicas=(1, 2)).start()
        cluster.sim.run(until=0.5)
        session.stop()
        result = run_kap(KapConfig(nnodes=4, procs_per_node=2))
        result.producer.summary()
        print("numpy" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_kap_power_law_fit_resolves_lazily():
    import repro.kap
    from repro.kap import analysis
    assert repro.kap.fit_power_law is analysis.fit_power_law
    assert "PowerLawFit" in repro.kap.__all__
    with pytest.raises(AttributeError):
        repro.kap.no_such_name  # noqa: B018 - the lookup is the test


# ----------------------------------------------------------------------
# StatSeries.summary() against numpy
# ----------------------------------------------------------------------
def _battery():
    rng = random.Random(20140909)
    lengths = [n for n in range(1, 81) for _ in range(4)]
    lengths += [1000, 4096, 12288]
    for n in lengths:
        yield [rng.choice((
            rng.random() * 10.0 ** rng.randint(-7, 4),   # mixed magnitudes
            round(rng.random(), rng.randint(0, 4)),      # rounded values
            rng.expovariate(1e3),                        # latency-like
        )) for _ in range(n)]


def test_summary_matches_numpy_bit_for_bit():
    checked = 0
    for samples in _battery():
        s = StatSeries("lat")
        s.extend(samples)
        got = s.summary()
        arr = np.asarray(samples, dtype=np.float64)
        assert got.count == arr.size
        assert got.min == float(arr.min())
        assert got.max == float(arr.max())
        assert got.mean == float(arr.mean())
        assert got.p50 == float(np.percentile(arr, 50))
        assert got.p95 == float(np.percentile(arr, 95))
        assert got.p99 == float(np.percentile(arr, 99))
        checked += 1
    assert checked == 80 * 4 + 3


def test_values_stays_an_ndarray():
    s = StatSeries()
    s.extend([3, 1, 2])
    assert isinstance(s.values, np.ndarray)
    assert s.values.tolist() == [3.0, 1.0, 2.0]


# ----------------------------------------------------------------------
# the flight ring
# ----------------------------------------------------------------------
class _TupleRing:
    """The ring as it used to be stored: one 6-tuple per slot."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.buf = [None] * capacity
        self.n = 0

    def rec(self, t, kind, a=None, b=None, c=None):
        self.buf[self.n % self.capacity] = (t, self.n, kind, a, b, c)
        self.n += 1

    def records(self):
        first = max(0, self.n - self.capacity)
        return [self.buf[i % self.capacity] for i in range(first, self.n)]


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 21, 64])
def test_flight_ring_reads_back_like_a_tuple_ring(n):
    rng = random.Random(n)
    fr, ref = FlightRecorder(8), _TupleRing(8)
    for i in range(n):
        args = (rng.random() * 10, rng.choice(("send", "event", "dispatch")),
                f"topic{i}", rng.randint(0, 4000), (i, "x") if i % 3 else None)
        fr.rec(*args)
        ref.rec(*args)
    assert fr.records() == ref.records()
    assert all(type(r) is tuple and len(r) == 6 for r in fr.records())
    snap = fr.snapshot()
    assert snap["records"] == [list(r) for r in ref.records()]
    assert (snap["appended"], snap["dropped"], snap["peak"]) == (
        n, max(0, n - 8), min(n, 8))


def test_flight_ring_retains_at_most_56_bytes_a_record():
    cap = 4096
    topic, rank = "kvs.fencedata", 1234
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fr = FlightRecorder(cap)
        for i in range(3 * cap):            # fill, then wrap twice
            fr.rec(i * 1e-6, "send", topic, rank, None)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert fr.peak == cap
    assert grown / cap <= 56, f"{grown / cap:.1f} B per record"


def test_span_store_retains_at_most_96_bytes_a_span(monkeypatch):
    """What a traced 16-node KAP run's tracer holds, per span: the
    bytes freed when the tracer goes, once the run is over.  The
    tracer's clock reads the simulation through ``clock``, which is
    cut after the run so the tracer is all that dropping it frees."""
    clock = SimpleNamespace(sim=None)
    tracers = []

    def enable_tracing(session):
        if session.span_tracer is None:
            clock.sim = session.sim
            session.span_tracer = SpanTracer(lambda: clock.sim.now)
            tracers.append(session.span_tracer)
        return session.span_tracer

    monkeypatch.setattr(CommsSession, "enable_tracing", enable_tracing)
    tracemalloc.start()
    try:
        run_kap(KapConfig(nnodes=16, procs_per_node=16, value_size=8,
                          naccess=8, dir_width=128), tracing=True)
        (tracer,) = tracers
        tracers.clear()
        clock.sim = None
        n = len(tracer.spans)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del tracer
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n > 5000
    assert freed / n <= 96, f"{freed / n:.1f} B per span"


# ----------------------------------------------------------------------
# the inbox-depth histogram
# ----------------------------------------------------------------------
_FIELDS = ("buckets", "count", "sum", "min", "max")


def _fields(snap):
    return {k: snap.get(k) for k in _FIELDS}


def test_histogram_observe_zeros_equals_eager_zeros():
    eager = Histogram("h", bounds=DEFAULT_SIZE_LADDER)
    lazy = Histogram("h", bounds=DEFAULT_SIZE_LADDER)
    for v in (0.0, 3.0, 0.0, 0.0, 17.0, 0.0):
        eager.observe(v)
    for v in (3.0, 17.0):
        lazy.observe(v)
    lazy.observe_zeros(4)
    assert lazy.snapshot() == eager.snapshot()


@pytest.mark.parametrize("fault_seed", [3, 0, 1])
def test_inbox_depth_snapshot_mid_run_equals_eager_histogram(fault_seed):
    """A ``stats.get`` served at rank 2 in the middle of a busy run
    reports the same ``broker_inbox_depth`` as a histogram fed every
    delivery's depth as it happened.  Every message sent to rank 2 is
    duplicated, and a duplicate lands at the same instant as its
    original, so some deliveries find a backlog."""
    cluster = make_cluster(8, seed=5)
    plan = FaultPlan(seed=fault_seed, dup_rate=0.3)
    for src in range(8):
        plan.set_link(src, 2, dup_rate=1.0)
    cluster.network.fault_plan = plan
    session = standard_session(cluster, with_heartbeat=True,
                               hb_period=0.05, hb_max_epochs=10).start()
    sim = cluster.sim
    broker = session.brokers[2]
    port = broker._inbox
    serve = port._consumer
    eager = Histogram("broker_inbox_depth", bounds=DEFAULT_SIZE_LADDER)
    at_query = []

    def spy(item):
        eager.observe(float(len(port)))
        serve(item)
        # The first copy is served; duplicates replay its response.
        if item[1].topic == "stats.get" and not at_query:
            at_query.append(eager.snapshot())

    port._consumer = spy

    def writer(idx):
        kvs = KvsClient(session.connect(idx % 8))
        for it in range(4):
            yield kvs.put(f"w{idx}.{it}", idx)
            yield kvs.fence(f"f{it}", 16)
            yield kvs.get(f"w{(idx + 1) % 16}.{it}")

    def query():
        yield sim.timeout(0.0003)
        h = session.connect(5, collective=False)
        return (yield h.rpc_rank(2, "stats.get", {}))

    writers = [sim.spawn(writer(i)) for i in range(16)]
    resp = sim.run_until_complete(sim.spawn(query()))
    assert not all(p.triggered for p in writers), "query was not mid-run"
    sim.run()
    assert all(p.ok for p in writers)

    snap = next(m for m in resp["stats"]["metrics"]
                if m["name"] == "broker_inbox_depth")
    assert len(at_query) == 1
    assert _fields(snap) == _fields(at_query[0])
    # Both kinds of delivery had been seen: some found a backlog.
    assert 0 < snap["buckets"][0] < snap["count"]

    # After the run, the sampler and the snapshot read the same
    # complete histogram.
    assert registry_samplers()["stats.inbox_p95"](broker) == \
        eager.quantile(0.95)
    final = next(m for m in broker.metrics_snapshot()["metrics"]
                 if m["name"] == "broker_inbox_depth")
    assert _fields(final) == _fields(eager.snapshot())
    session.stop()


# ----------------------------------------------------------------------
# fence aggregates
# ----------------------------------------------------------------------
def _fence(hb, value=None, rounds=1, late=None):
    """Two clients on each rank of a 15-node session fence ``f`` (two
    keys each) ``rounds`` times, one entry a millisecond, so every
    slave relays shares as deltas; ``late`` delays the last client's
    entries by that much.  Returns the session and what each client
    read back."""
    cluster, session = make_kvs_session(n=15, hb=hb)
    sim = cluster.sim

    def member(i):
        kvs = KvsClient(session.connect(i % 15))
        got = []
        for rnd in range(rounds):
            yield sim.timeout(late if late and i == 29 else 1e-3 * i)
            for j in range(2):
                yield kvs.put(f"r{rnd}.k{i}.{j}", value or f"{rnd}.{i}.{j}")
            yield kvs.fence("f", 30)
            got.append((yield kvs.get(f"r{rnd}.k{(i + 1) % 30}.1")))
        return got

    return session, run(cluster, *[member(i) for i in range(30)])


def test_lean_slave_holds_only_its_own_ops_after_a_flush(monkeypatch):
    """Without the heartbeat nothing re-emits, so once a slave's flush
    sent a relayed origin's share it keeps only that origin's count;
    the commit is the one a hardened session (which keeps every op)
    makes."""
    held, flush = [], KvsModule._flush_fence

    def spy(self, agg, full=False):
        flush(self, agg, full)
        held.append((self.rank, {o for o, (n, ops) in agg.parts.items()
                                 if n and o != self.rank},
                     {o for o, (_n, ops) in agg.parts.items() if ops}))

    monkeypatch.setattr(KvsModule, "_flush_fence", spy)
    plain, got = _fence(hb=False)
    want = [[f"0.{(i + 1) % 30}.1"] for i in range(30)]
    assert got == want
    # Interior slaves relayed their subtrees' shares, and kept no ops
    # but their own clients'.
    assert {r for r, relayed, _ops in held if relayed} == {1, 2, 3, 4, 5, 6}
    assert all(ops <= {rank} for rank, _relayed, ops in held)
    root = plain.module_at(0, "kvs").root_sha

    held.clear()
    hardened, got = _fence(hb=True)
    assert got == want
    assert hardened.module_at(0, "kvs").root_sha == root
    assert any(ops - {rank} for rank, _relayed, ops in held)


def test_redundant_value_object_goes_up_once_a_round(fencedata_log):
    """Fig. 3's redundant-value case: every client stores the same
    32 KiB value, and however many deltas a rank sends in a round, the
    value object rides only the first."""
    value = "x" * 32768
    sha = sha1_of(make_val_obj(value))
    _session, got = _fence(hb=False, value=value, rounds=2)
    assert got == [[value, value]] * 30
    sends = {}
    for m in fencedata_log:
        carries = sends.setdefault((m.src, m.payload.get("gen", 0)), [])
        carries.append(sha in m.payload["objs"])
    assert len({gen for _src, gen in sends}) == 2
    assert sorted({src for src, _gen in sends}) == list(range(1, 15))
    assert max(map(len, sends.values())) > 1     # deltas did follow
    assert all(sum(c) == 1 for c in sends.values())


def test_hardened_slave_reemits_every_share_whole(fencedata_log):
    """With the heartbeat a fence that outlives a pulse is re-emitted:
    rank 1 then sends every origin of its subtree whole, with all of
    its ops."""
    _session, got = _fence(hb=True, late=0.25)
    assert got == [[f"0.{(i + 1) % 30}.1"] for i in range(30)]
    reemitted = [m.payload["shares"] for m in fencedata_log
                 if m.src == 1 and 0.1 < m.time < 0.25]
    assert reemitted
    subtree = {"1", "3", "4", "7", "8", "9", "10"}
    for shares in reemitted:
        assert set(shares) == subtree
        for origin, share in shares.items():
            count, ops = share              # whole: no base
            assert count == 2 and len(ops) == 4
            assert {key for key, _sha in ops} == {
                f"r0.k{i}.{j}" for i in (int(origin), int(origin) + 15)
                for j in range(2)}
