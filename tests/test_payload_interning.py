"""Payload interning and per-link dedup correctness.

Two independent mechanisms, two contracts:

- **Interning** (:mod:`repro.jsonutil` fragment table, on by default)
  memoizes canonical sizes/digests of shared payload fragments.  It is
  host-side only, so it must be *event-invisible*: the same-seed
  SAN105 fingerprint must be identical with interning on and off, and
  every memoized size must equal the exact canonical encoding length.
- **Per-link dedup** (``KvsModule(dedup=True)``, off by default) sends
  each distinct object across a tree edge once and sha references
  (``orefs``) afterward.  The per-link filter is a pure optimization:
  a receiver missing a referenced object rejects retryably and the
  sender re-sends in full, so no reroute/retransmit/failover can lose
  an object to a stale filter.
"""

import pytest

from repro.jsonutil import (canonical_dumps, canonical_size,
                            clear_intern_table, digest_and_size,
                            intern_fragment, intern_stats, interned_size,
                            set_interning)
from repro.cmb.modules import BarrierModule
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kap import KapConfig, run_kap
from repro.kvs import KvsClient, KvsModule
from repro.sim.cluster import make_cluster

from .chaos import run_chaos_workload

#: Re-pinned three times (barrier tallies leave when the subtree is
#: complete; reductions without acknowledgements on the fault-free path;
#: self-clocked fence relay); the same value as
#: ``bench_simperf.GOLDEN_KAP_256``.
GOLDEN_KAP_256 = "0f017446c4a35433640bef3ed28f01053a6b5d81"


@pytest.fixture(autouse=True)
def _intern_state():
    """Each test starts from an empty table and leaves interning on."""
    clear_intern_table()
    yield
    set_interning(True)
    clear_intern_table()


# -- canonical-size exactness over interned fragments -------------------

FRAGMENTS = [
    {},
    [],
    {"k": 1},
    {"ops": [["a.b", "0" * 40], ["c", None]]},
    [["x", None]] * 7,
    {"nested": {"dirs": {"a": 1, "b": [1, 2, {"c": "d"}]}}},
    {"unicode": "héllo ✓ world", "f": 1.25, "neg": -17},
    [{"sha": f"{i:040x}"} for i in range(13)],
    {"bools": [True, False, None], "empty": {"d": {}}},
]


@pytest.mark.parametrize("idx", range(len(FRAGMENTS)))
def test_interned_size_is_exact(idx):
    """The memoized size must equal the exact canonical byte length —
    before interning, at intern time, and on every probe after."""
    obj = FRAGMENTS[idx]
    want = len(canonical_dumps(obj))
    assert canonical_size(obj) == want
    intern_fragment(obj)
    assert interned_size(obj) == want
    # The memo hit path must serve the same exact number.
    assert canonical_size(obj) == want
    sha, size = digest_and_size(obj)
    assert size == want


def test_intern_probe_is_identity_keyed():
    """An equal-but-distinct object must not hit another's entry (the
    table is id-keyed; strong refs prevent id reuse aliasing)."""
    a = {"ops": [["k", None]]}
    b = {"ops": [["k", None]]}
    intern_fragment(a)
    assert interned_size(a) == canonical_size(b)
    assert interned_size(b) is None


def test_intern_explicit_size_is_trusted_and_served():
    """``intern_fragment(obj, size)`` callers own the exactness
    contract: the fence path computes sizes incrementally, and this is
    the battery proving the incremental arithmetic stays exact."""
    ops = [["key%d" % i, "a" * 40] for i in range(9)]
    # The fence's incremental form: 1 + n (brackets + commas) + sum of
    # element sizes.
    total = 1 + len(ops) + sum(canonical_size(op) for op in ops)
    assert total == len(canonical_dumps(ops))
    intern_fragment(ops, total)
    assert interned_size(ops) == total
    assert canonical_size(ops) == total


def test_intern_disable_is_a_kill_switch():
    obj = {"a": [1, 2, 3]}
    intern_fragment(obj)
    set_interning(False)
    assert interned_size(obj) is None          # table cleared
    intern_fragment(obj)                        # no-op while disabled
    assert interned_size(obj) is None
    assert canonical_size(obj) == len(canonical_dumps(obj))
    set_interning(True)
    intern_fragment(obj)
    assert interned_size(obj) is not None


def test_intern_table_is_bounded():
    """The table LRU-evicts: interning far more fragments than the cap
    keeps the size bounded and the newest entries resident."""
    keep = [{"i": i} for i in range(9000)]
    for obj in keep:
        intern_fragment(obj)
    stats = intern_stats()
    assert stats["entries"] <= 8192
    assert interned_size(keep[-1]) is not None
    assert interned_size(keep[0]) is None      # evicted


# -- event-invisibility of interning ------------------------------------

def test_fingerprint_identical_with_interning_off():
    """Interning is host-side memoization only: disabling it must not
    move a single event (golden SAN105 fingerprint both ways)."""
    cfg = dict(nnodes=16, procs_per_node=16, value_size=64, seed=1)
    on = run_kap(KapConfig(**cfg), sanitize=True)
    assert on.event_fingerprint == GOLDEN_KAP_256
    set_interning(False)
    try:
        off = run_kap(KapConfig(**cfg), sanitize=True)
    finally:
        set_interning(True)
    assert off.event_fingerprint == GOLDEN_KAP_256
    assert off.events == on.events
    assert off.bytes_sent == on.bytes_sent
    assert off.total_time == on.total_time


# -- dedup wire mode ----------------------------------------------------

def test_dedup_deterministic_and_byte_reducing():
    """Dedup mode is same-seed deterministic and cuts tree bytes at
    paper scale (the win grows with producer count; at 64 nodes the
    directory fault-in traffic already dominates legacy)."""
    cfg = dict(nnodes=64, procs_per_node=16, value_size=64, seed=1)
    legacy = run_kap(KapConfig(**cfg))
    a = run_kap(KapConfig(**cfg, dedup=True), sanitize=True)
    b = run_kap(KapConfig(**cfg, dedup=True), sanitize=True)
    assert a.sanitizer_findings == []
    assert a.event_fingerprint == b.event_fingerprint
    assert a.events == b.events
    assert a.bytes_sent == b.bytes_sent
    # Measured wire bytes (the one-key walk managed 1.85x here; the
    # combined walk amortises its header frames and reaches 2.49x).
    assert a.bytes_sent * 2 < legacy.bytes_sent


def _dedup_session(n=8, seed=5):
    cluster = make_cluster(n, seed=seed)
    session = CommsSession(
        cluster, topology=TreeTopology(n, arity=2),
        modules=[ModuleSpec(KvsModule, dedup=True),
                 ModuleSpec(BarrierModule)]).start()
    return cluster, session


def test_oref_miss_rejects_and_resends_full():
    """A stale per-link filter (receiver lacks a referenced object)
    must trigger the reject/re-send-full recovery, and the commit must
    still land the right value."""
    cluster, session = _dedup_session()
    mod = session.module_at(7, "kvs")
    rejected = {"n": 0}

    def counting_resolve_at(m, msg):
        out = KvsModule._resolve_orefs(m, msg)
        if out is None:
            rejected["n"] += 1
        return out
    # Count rejections at the receiving hops on rank 7's uplink path.
    for rank in (3, 1, 0):
        m = session.module_at(rank, "kvs")
        m._resolve_orefs = (lambda msg, _m=m: counting_resolve_at(_m, msg))

    def writer():
        kvs = KvsClient(session.connect(7))
        yield kvs.put("a", "first")
        yield kvs.commit()
        yield kvs.put("b", "second")
        # Poison rank 7's uplink filter with the not-yet-sent dirty
        # objects: the flush will carry orefs the parent has never
        # seen, forcing the recovery path.
        peer = mod._uplink_peer()
        for dirty in mod._dirty.values():
            mod._link_sent.setdefault(peer, set()).update(dirty.objs)
        yield kvs.commit()
        return (yield kvs.get("b"))

    proc = cluster.sim.spawn(writer())
    cluster.sim.run()
    assert proc.ok, f"writer failed: {proc._exc!r}"
    assert proc.value == "second"
    assert rejected["n"] >= 1, "stale filter never tripped the reject"

    def reader():
        kvs = KvsClient(session.connect(2))
        return (yield kvs.get("b"))

    rproc = cluster.sim.spawn(reader())
    cluster.sim.run()
    assert rproc.ok and rproc.value == "second"


def test_dedup_chaos_drop_dup_converges():
    """Lossy + duplicating fabric with dedup on: retransmits and
    reroutes must never let the per-link filter suppress an object the
    receiver lacks — every acked write stays readable, sanitizers
    clean."""
    rep = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.01,
                             dup_rate=0.02, n_iters=2, run_until=30.0,
                             sanitize=True, kvs_dedup=True)
    assert rep.converged, rep.errors
    assert rep.reads_failed == 0
    assert rep.sanitizer_findings == []
    assert rep.reads_verified == 8 * 3


def test_dedup_root_failover_mid_fence_converges():
    """Root master killed mid-fence with dedup on: the promotion
    clears the master-ward filters, the replayed fence re-sends its
    objects, and no acked write is lost."""
    rep = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.01,
                             seed=5, fault_seed=13,
                             kill_ranks=(0,), kill_at=0.12,
                             hb_period=0.05, n_iters=2, iter_gap=0.1,
                             timeout=0.5, retries=10, run_until=40.0,
                             kvs_replicas=(1, 2), sanitize=True,
                             kvs_dedup=True)
    assert rep.converged, rep.errors
    assert rep.reads_failed == 0
    assert rep.hung_waiters == 0
    assert rep.sanitizer_findings == []
    assert rep.reads_verified == 8 * 3
