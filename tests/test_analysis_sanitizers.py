"""Tests for the runtime sanitizers (repro.analysis.sanitizers).

Covers each checker with a violating scenario (flagged) and a clean
scenario (silent), plus the two global guarantees: clean KAP and
chaos runs are sanitizer-silent, and enabling sanitizers leaves a run
event-identical (pure observers).
"""

import math
from collections import Counter
from heapq import heappop

import pytest

from repro import make_cluster
from repro.analysis import sanitizers
from repro.analysis.sanitizers import (EventFingerprint, SanitizerSet,
                                       diff_fingerprints,
                                       replay_fingerprint_hook)
from repro.chaos import run_chaos_workload
from repro.cmb.message import Message, MessageType
from repro.cmb.session import CommsSession, ModuleSpec
from repro.kap.config import KapConfig
from repro.kap.driver import run_kap
from repro.kvs.api import KvsClient
from repro.kvs.module import KvsModule
from repro.obs import SpanTracer
from repro.sim.kernel import Simulation
from repro.sim.network import Network


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# FIFO link sanitizer (SAN101)
# ---------------------------------------------------------------------------

def test_fifo_violation_flagged():
    san = SanitizerSet()
    a, b, c = ["m1"], ["m2"], ["m3"]      # distinct identities
    san.on_send(1, 2, "p", a)
    san.on_send(1, 2, "p", b)
    san.on_send(1, 2, "p", c)
    san.on_deliver(1, 2, "p", a)
    san.on_deliver(1, 2, "p", c)          # skipping b is legal (drop)
    san.on_deliver(1, 2, "p", b)          # ...but b after c is reordering
    assert rules_of(san.findings) == ["SAN101"]
    assert "1->2" in san.findings[0].message


def test_fifo_duplicates_and_drops_are_legal():
    san = SanitizerSet()
    a, b = ["m1"], ["m2"]
    san.on_send(1, 2, "p", a, copies=2)   # the fabric duplicates both
    san.on_send(1, 2, "p", b, copies=2)
    san.on_deliver(1, 2, "p", a)
    san.on_deliver(1, 2, "p", a)          # chaos duplication
    san.on_drop(1, 2, b)                  # drop: just a gap
    san.on_deliver(1, 2, "p", b)          # late copy still in order
    assert san.findings == []
    assert san.fifo.checked == 3
    assert san.fifo._stamps == {}         # every copy accounted for


def test_fifo_links_are_independent():
    san = SanitizerSet()
    a, b = ["m1"], ["m2"]
    san.on_send(1, 2, "p", a)
    san.on_send(1, 3, "p", b)
    san.on_deliver(1, 3, "p", b)          # other link, later seq first
    san.on_deliver(1, 2, "p", a)
    assert san.findings == []


# ---------------------------------------------------------------------------
# KVS consistency sanitizer (SAN102 / SAN103)
# ---------------------------------------------------------------------------

def test_monotonic_read_violation_unit():
    san = SanitizerSet()
    san.kvs_read("kvs", 3, 5)
    san.kvs_read("kvs", 3, 4)
    assert rules_of(san.findings) == ["SAN102"]
    assert san.findings[0].rank == 3


def test_read_your_writes_violation_unit():
    san = SanitizerSet()
    san.kvs_commit_ack("kvs", 2, 7)
    san.kvs_read("kvs", 2, 6)
    assert rules_of(san.findings) == ["SAN103"]


def test_per_rank_and_namespace_isolation():
    san = SanitizerSet()
    san.kvs_read("kvs", 1, 9)
    san.kvs_read("kvs", 2, 3)             # other rank: fine
    san.kvs_read("ns0", 1, 1)             # other namespace: fine
    assert san.findings == []


class RegressingKvs(KvsModule):
    """KvsModule with the monotonic root guard removed — the seeded
    bug the consistency sanitizer exists to catch."""

    def _apply_root(self, version, root_sha):
        self.version = version
        self.root_sha = root_sha
        san = self._san()
        if san is not None:
            san.kvs_root_applied(self.name, self.rank, version)


def test_seeded_root_regression_run_is_flagged():
    """A run whose KVS applies a stale root must produce SAN102/SAN103:
    the stale setroot regresses the slave's version, and the client's
    next kvs_get_version observes it."""
    cluster = make_cluster(4, seed=3)
    session = CommsSession(cluster,
                           modules=[ModuleSpec(RegressingKvs)]).start()
    san = session.enable_sanitizers()
    sim = cluster.sim
    kvs = KvsClient(session.connect(2))

    def scenario():
        yield kvs.put("a", 1)
        yield kvs.commit()                # rank 2 acked at version 1
        yield kvs.put("b", 2)
        yield kvs.commit()                # ...then version 2
        # A stale setroot (replayed event) arrives at rank 2; the
        # buggy module applies it, regressing version 2 -> 1.
        session.brokers[2]._deliver_event(Message(
            topic="kvs.setroot", mtype=MessageType.EVENT,
            payload={"version": 1, "rootref": "stale"}, src_rank=0))
        got = yield kvs.get_version()
        assert got["version"] == 1        # the bug is live

    sim.run_until_complete(sim.spawn(scenario(), name="scenario"))
    session.stop()
    rules = set(rules_of(san.findings))
    assert "SAN102" in rules              # root regression observed
    assert "SAN103" in rules              # read < committed floor
    # Provenance: runtime findings carry sim time + rank, no file.
    for f in san.findings:
        assert f.t is not None and f.rank == 2 and f.file == ""


def test_clean_commit_run_is_silent():
    cluster = make_cluster(4, seed=3)
    session = CommsSession(cluster,
                           modules=[ModuleSpec(KvsModule)]).start()
    san = session.enable_sanitizers()
    sim = cluster.sim
    kvs = KvsClient(session.connect(2))

    def scenario():
        yield kvs.put("a", 1)
        yield kvs.commit()
        v1 = yield kvs.get_version()
        yield kvs.put("b", 2)
        yield kvs.commit()
        v2 = yield kvs.get_version()
        assert v2["version"] > v1["version"]

    sim.run_until_complete(sim.spawn(scenario(), name="scenario"))
    session.stop()
    assert san.findings == []
    assert san.kvs.reads >= 2 and san.kvs.acks >= 2


# ---------------------------------------------------------------------------
# span forest sanitizer (SAN104)
# ---------------------------------------------------------------------------

def test_span_forest_violation_flagged():
    tracer = SpanTracer(lambda: 0.0)
    root = tracer.start_trace("ok", rank=0)
    tracer.finish(root)
    tracer.start_span((root.trace_id, 9999), "orphan", "test", rank=1)
    san = SanitizerSet()
    san.attach_tracer(tracer)
    findings = san.finish()
    assert rules_of(findings) == ["SAN104"]
    assert "orphan" in findings[0].message or "parent" \
        in findings[0].message


def test_span_forest_clean_tracer_silent():
    tracer = SpanTracer(lambda: 0.0)
    root = tracer.start_trace("ok", rank=0)
    child = tracer.start_span((root.trace_id, root.span_id), "hop",
                              "net", rank=1)
    tracer.finish(child)
    tracer.finish(root)
    san = SanitizerSet()
    san.attach_tracer(tracer)
    assert san.finish() == []
    assert san.finish() == []             # idempotent


# ---------------------------------------------------------------------------
# replay-divergence detector (SAN105)
# ---------------------------------------------------------------------------

def drive(seed, jitter=0.0):
    """A small stochastic workload fingerprinted via the kernel hook."""
    sim = Simulation(seed=seed)
    fp = replay_fingerprint_hook(sim)

    def worker(i):
        for _ in range(4):
            yield sim.timeout(sim.rng.random() * 1e-3 + jitter)

    for i in range(3):
        sim.spawn(worker(i), name=f"w{i}")
    sim.run()
    return fp


def test_same_seed_same_fingerprint():
    a, b = drive(11), drive(11)
    assert a.digest() == b.digest()
    assert a.count == b.count > 0
    assert diff_fingerprints(a, b) == []


def test_divergence_detected_with_first_event():
    a, b = drive(11), drive(12)
    findings = diff_fingerprints(a, b, label="seed-swap")
    assert rules_of(findings) == ["SAN105"]
    assert "diverge at event #" in findings[0].message
    assert findings[0].extra["index"] >= 0


def record(fp, *names, t=0.0, priority=1):
    """Feed ``fp`` processed heap entries the way the kernel does."""
    sim = Simulation()
    for name in names:
        fp.entries.append((t, priority, 0, sim.event(name)))


def test_digest_only_mode():
    a = EventFingerprint(keep_records=False)
    b = EventFingerprint(keep_records=False)
    record(a, "x")
    record(b, "y")
    findings = diff_fingerprints(a, b)
    assert rules_of(findings) == ["SAN105"]
    assert "fingerprints differ" in findings[0].message


def test_port_key_counter_normalized_out():
    # Session port keys (cmb<N>) come from a process-global counter;
    # the fingerprint must not see them.
    a, b = EventFingerprint(), EventFingerprint()
    record(a, "get:inbox:3:cmb1")
    record(b, "get:inbox:3:cmb7")
    assert a.digest() == b.digest()


def test_name_memo_keeps_argument_types_apart():
    # 1, 1.0 and True are equal dict keys but render differently.
    names = [("x%s", 1), ("x%s", 1.0), ("x%s", True), ("x%s", 1)]
    fp = EventFingerprint()
    record(fp, *names)
    fp.digest()
    assert [r[2] for r in fp.records] == ["x1", "x1.0", "xTrue", "x1"]
    a, b = EventFingerprint(), EventFingerprint()
    record(a, ("x%s", 1))
    record(b, ("x%s", 1.0))
    assert a.digest() != b.digest()
    # Only names no equal-but-differently-typed argument could render
    # otherwise become memo keys.
    assert ("x%s", 1) not in fp._names and ("x%s", 1.0) not in fp._names
    record(fp, ("timeout(%g)", 1), ("get:%s", "inbox"), "plain")
    fp.digest()
    assert {("timeout(%g)", 1), ("get:%s", "inbox"), "plain"} \
        <= set(fp._names)


def test_chunked_digest_is_the_per_event_digest():
    """Whatever the chunking, SHA1 sees one line per event, with an
    int and a float timestamp of equal value kept apart."""
    import hashlib
    stream = [(t, p, n) for t in (0.0, 1, 1.0, 2.5e-07)
              for p in (0, 1, True)
              for n in ("a", ("timeout(%g)", 0.5), ("timeout(%g)", 1),
                        ("x%s", 1), ("x%s", 1.0), ("x%s@%d", "y", 2))]
    want = hashlib.sha1()
    for t, p, n in stream:
        name = n if type(n) is str else n[0] % n[1:]
        want.update(f"{t!r}|{p}|{name}\n".encode())
    fp = EventFingerprint()
    sim = Simulation()
    for i, (t, p, n) in enumerate(stream):
        fp.entries.append((t, p, i, sim.event(n)))
        if len(fp.entries) == 3:
            fp.flush()
    assert fp.count == len(stream)
    assert fp.digest() == want.hexdigest()


# ---------------------------------------------------------------------------
# whole-scenario guarantees
# ---------------------------------------------------------------------------

KAP = KapConfig(nnodes=8, procs_per_node=1, nputs=2, sync="fence", seed=5)


def test_clean_kap_run_is_sanitizer_silent():
    result = run_kap(KAP, sanitize=True)
    assert result.sanitizer_findings == []
    assert result.event_fingerprint


def test_sanitizers_are_pure_observers():
    """Event-identical on/off: same event count, same latencies."""
    base = run_kap(KAP)
    checked = run_kap(KAP, sanitize=True)
    assert checked.events == base.events
    assert checked.max_sync_latency == base.max_sync_latency
    assert checked.max_consumer_latency == base.max_consumer_latency
    assert checked.total_time == base.total_time


def test_kap_replay_fingerprints_match():
    a = run_kap(KAP, sanitize=True)
    b = run_kap(KAP, sanitize=True)
    assert a.event_fingerprint == b.event_fingerprint


def test_enable_sanitizers_idempotent_and_wired():
    cluster = make_cluster(2, seed=0)
    session = CommsSession(cluster, modules=[ModuleSpec(KvsModule)])
    san = session.enable_sanitizers()
    assert session.enable_sanitizers() is san
    assert cluster.network.sanitizers is san
    assert session.span_tracer is not None   # sanitizers pull tracing in
    stats = san.stats()
    assert set(stats) == {"fifo_checked", "kvs_reads", "kvs_acks",
                          "findings"}


CHAOS = dict(n_nodes=15, n_clients=8, drop_rate=0.01, dup_rate=0.005,
             n_iters=1, seed=9, fault_seed=4)


def test_chaos_run_sanitized_and_event_identical():
    kwargs = CHAOS
    base = run_chaos_workload(**kwargs)
    checked = run_chaos_workload(**kwargs, sanitize=True)
    assert checked.converged and base.converged
    assert checked.sanitizer_findings == []
    # Pure observation: the chaos run's outcome is unchanged.
    assert checked.reads_verified == base.reads_verified
    assert checked.makespan == base.makespan
    assert checked.client_retries == base.client_retries
    # And a replay reproduces the stream bit for bit.
    again = run_chaos_workload(**kwargs, sanitize=True)
    assert again.event_fingerprint == checked.event_fingerprint


# ---------------------------------------------------------------------------
# every drain path feeds the batched recorder
# ---------------------------------------------------------------------------

#: Crosses the recorder's chunk boundary (1,985 events).
KAP_STEPPED = KapConfig(nnodes=8, procs_per_node=4, nputs=2, naccess=4,
                        sync="fence", seed=5)

_RUN = Simulation.run


def _live_head(sim):
    """Time of the next live event, popping dead heads as run() does."""
    heap = sim._heap
    while heap and heap[0][3]._dead:
        heappop(heap)
        sim._ndead = max(0, sim._ndead - 1)
    return heap[0][0] if heap else None


class _Horizon:
    """Stands in for a process under run_until_complete: done once the
    next live event lies past ``stop`` or ``budget`` more events ran."""

    value = None

    def __init__(self, sim, stop, budget):
        self.sim, self.stop = sim, stop
        self.target = sim.event_count + budget

    @property
    def triggered(self):
        head = _live_head(self.sim)
        return (head is None or head > self.stop
                or self.sim.event_count >= self.target)


def stepping_run(modes, slice_s=2e-5, budget=97):
    """A ``Simulation.run`` that drains exactly what ``run`` would, in
    slices taken by the stepping drivers ``modes`` in turn."""
    def run(sim, until=None, max_events=None):
        stop = math.inf if until is None else until
        turn = 0
        while True:
            head = _live_head(sim)
            if head is None or head > stop:
                break
            mode = modes[turn % len(modes)]
            turn += 1
            if mode == "until":
                _RUN(sim, until=min(stop, head + slice_s))
            elif mode == "max_events" and until is None:
                _RUN(sim, max_events=10**9)
            elif mode == "max_events":
                _RUN(sim, until=min(stop, head + slice_s),
                     max_events=10**9)
            else:
                sim.run_until_complete(_Horizon(sim, stop, budget))
        if until is not None:
            _RUN(sim, until=until)
        return sim.now
    return run


def fingerprinted(monkeypatch, scenario):
    """Run ``scenario()`` and return its result and the recorder."""
    attached = []

    def attach(sim, keep_records=True):
        attached.append(replay_fingerprint_hook(sim, keep_records))
        return attached[-1]

    monkeypatch.setattr(sanitizers, "replay_fingerprint_hook", attach)
    result = scenario()
    (fp,) = attached
    return result, fp


DRIVERS = [("until",), ("max_events",), ("run_until_complete",),
           ("until", "run_until_complete", "max_events")]


@pytest.mark.parametrize("modes", DRIVERS, ids="+".join)
def test_every_driver_feeds_the_recorder_kap(monkeypatch, modes):
    def kap():
        return run_kap(KAP_STEPPED, sanitize=True)

    ref, ref_fp = fingerprinted(monkeypatch, kap)   # one tight run()
    assert ref_fp.count == ref.events > ref_fp.chunk
    monkeypatch.setattr(Simulation, "run", stepping_run(modes))
    got, fp = fingerprinted(monkeypatch, kap)
    assert (fp.digest(), fp.count) == (ref_fp.digest(), ref_fp.count)
    assert got.events == ref.events


@pytest.mark.parametrize("modes", DRIVERS, ids="+".join)
def test_every_driver_feeds_the_recorder_chaos(monkeypatch, modes):
    def chaos():
        return run_chaos_workload(**CHAOS, sanitize=True)

    ref, ref_fp = fingerprinted(monkeypatch, chaos)
    assert ref_fp.count > 4 * ref_fp.chunk
    monkeypatch.setattr(Simulation, "run",
                        stepping_run(modes, slice_s=1e-3))
    got, fp = fingerprinted(monkeypatch, chaos)
    assert (fp.digest(), fp.count) == (ref_fp.digest(), ref_fp.count)
    assert got.converged and got.makespan == ref.makespan


# ---------------------------------------------------------------------------
# observer state is bounded by construction
# ---------------------------------------------------------------------------

def observed_session(monkeypatch):
    """Capture the session whose sanitizers a harness enables, and
    every count ``SpanTracer.close_open`` reports."""
    seen, closed = [], []
    enable, close_open = (CommsSession.enable_sanitizers,
                          SpanTracer.close_open)

    def capture(session, *args, **kwargs):
        seen.append(session)
        return enable(session, *args, **kwargs)

    def count(tracer):
        closed.append(close_open(tracer))
        return closed[-1]

    monkeypatch.setattr(CommsSession, "enable_sanitizers", capture)
    monkeypatch.setattr(SpanTracer, "close_open", count)
    return seen, closed


def in_flight(sim):
    """Copies of each payload whose fabric delivery is still queued."""
    copies = Counter()
    for _t, _p, _s, ev in sim._heap:
        cb = ev._cb1
        if (not ev._dead and cb is not None
                and cb.__qualname__ == "Network.send.<locals>.<lambda>"):
            cell = cb.__code__.co_freevars.index("payload")
            copies[id(cb.__closure__[cell].cell_contents)] += 1
    return copies


def test_drained_kap_leaves_no_stamp_and_no_open_span(monkeypatch):
    seen, closed = observed_session(monkeypatch)
    result = run_kap(KAP_STEPPED, sanitize=True)
    (session,) = seen
    san = session.sanitizers
    assert result.sanitizer_findings == []
    assert san.fifo.checked > 0 and san.fifo._stamps == {}
    assert closed and set(closed) == {0}      # nothing left open
    assert all(s.t1 is not None for s in session.span_tracer.spans)


def test_lossy_chaos_stamps_only_sends_in_flight(monkeypatch):
    """At every slice boundary of the harness's run(until=) loop, the
    stamp table is exactly the copies whose delivery is queued."""
    seen, _ = observed_session(monkeypatch)
    checks = []

    def run_and_check(sim, until=None, max_events=None):
        now = _RUN(sim, until, max_events)
        stamps = seen[0].sanitizers.fifo._stamps
        checks.append(({k: v[1] for k, v in stamps.items()},
                       dict(in_flight(sim))))
        return now

    monkeypatch.setattr(Simulation, "run", run_and_check)
    report = run_chaos_workload(**CHAOS, sanitize=True)
    assert report.converged and report.sanitizer_findings == []
    assert report.fault_stats["drops"] and report.fault_stats["dups"]
    assert all(stamped == queued for stamped, queued in checks)
    assert any(queued for _, queued in checks)   # some were in flight
    assert checks[-1] == ({}, {})                # drained at the end


class StubPlan:
    """Scripted fabric faults without the FIFO clamp: each send takes
    the next ``(dups, extra delay)``, each clamp call the next lag."""

    def __init__(self, sends, lags):
        self.sends, self.lags = list(sends), list(lags)

    def decide(self, src, dst):
        dups, extra = self.sends.pop(0)
        return False, dups, extra

    def fifo_clamp(self, src, dst, deliver_at):
        return deliver_at + self.lags.pop(0)


def stub_fabric(sends, lags):
    """Two nodes, a stub plan, and the SAN101 checker on the wire."""
    sim = Simulation()
    net = Network(sim)
    net.register(1)
    inbox = net.register(2)
    net.fault_plan = StubPlan(sends, lags)
    san = net.sanitizers = SanitizerSet(lambda: sim.now)
    return sim, net, inbox, san


def test_stub_plan_reorder_is_flagged():
    # a is held back 1 ms; b, sent after it, overtakes it.
    sim, net, inbox, san = stub_fabric(
        sends=[(0, 1e-3), (0, 0.0)], lags=[0.0] * 4)
    a, b = ("p", "a"), ("p", "b")
    net.send(1, 2, a, 100)
    net.send(1, 2, b, 100)
    sim.run()
    assert inbox.peek_all() == [b, a]
    assert rules_of(san.findings) == ["SAN101"]
    assert san.fifo._stamps == {}


def test_stub_plan_late_duplicate_is_flagged():
    # a's second copy lags 1 ms, landing after b: the duplicate is
    # checked against send order, which needs a's stamp to outlive
    # its first delivery.
    sim, net, inbox, san = stub_fabric(
        sends=[(1, 0.0), (0, 0.0)], lags=[0.0, 1e-3, 0.0])
    a, b = ("p", "a"), ("p", "b")
    net.send(1, 2, a, 100)
    net.send(1, 2, b, 100)
    sim.run()
    assert inbox.peek_all() == [a, b, a]
    assert rules_of(san.findings) == ["SAN101"]
    assert san.findings[0].extra["seq"] < \
        san.findings[0].extra["overtaken_by"]
    assert san.fifo.checked == 3 and san.fifo._stamps == {}
