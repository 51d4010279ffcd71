"""Payload interning, and what ``dedup=True`` does and does not change.

- **Interning** (:mod:`repro.jsonutil` fragment table, on by default)
  memoizes canonical sizes/digests of shared payload fragments.  It is
  host-side only, so it must be *event-invisible*: the same-seed
  SAN105 fingerprint must be identical with interning on and off, and
  every memoized size must equal the exact canonical encoding length.
- **``KvsModule(dedup=True)``** (off by default) is the walk read
  path: a cold read ships a ``kvs.walk`` instead of faulting
  directories in.  Writes are untouched — every objs-carrying payload
  carries its objects in full, so a redundant-value fence commits the
  same root with or without it — and walk reads must converge under
  loss, duplication and a root failover.
"""

import pytest

from repro.jsonutil import (canonical_dumps, canonical_size,
                            clear_intern_table, digest_and_size,
                            intern_fragment, intern_stats, interned_size,
                            set_interning)
from repro.kap import KapConfig, run_kap

from .chaos import run_chaos_workload
from .conftest import _spy_on_sends

#: Re-pinned six times (barrier tallies leave when the subtree is
#: complete; reductions without acknowledgements on the fault-free path;
#: self-clocked fence relay; the callback request hop, which deletes
#: each broker's and each ``kvs.get``'s process bookkeeping events;
#: batched fault-in, where ``kvs.load`` carries a list of SHAs; one
#: fence wire format, where a contribution carries its origin keys).
GOLDEN_KAP_256 = "c7379c863c88a73c0cb33391a7090c0c5d5e54da"


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


def test_dedup_writes_carry_every_object_in_full(monkeypatch,
                                                 fencedata_log):
    """Redundant values are the one shape where an object crosses a
    link twice.  With ``dedup=True`` each such payload still carries
    the object itself (no sha references), is charged its real
    encoding, and the fence commits the same root as without it."""
    cfg = dict(nnodes=16, procs_per_node=16, value_size=64, nputs=4,
               redundant_values=True, seed=1)
    by_ref, roots = [], []

    def record(_network, _src, msg, _size):
        if isinstance(msg.payload, dict):
            if "orefs" in msg.payload:
                by_ref.append(msg.topic)
            if msg.topic == "kvs.setroot":
                roots.append((msg.payload["version"],
                              msg.payload["rootref"]))

    _spy_on_sends(monkeypatch, record)
    run_kap(KapConfig(**cfg, dedup=True))
    assert by_ref == []
    assert len(fencedata_log) >= 15     # every slave rank flushed
    assert [m for m in fencedata_log if m.accounted != m.encoded] == []
    with_walk = max(roots)
    del roots[:]
    run_kap(KapConfig(**cfg))
    assert with_walk == max(roots)


def test_dedup_chaos_drop_dup_converges():
    """Lossy + duplicating fabric with walk reads on: retransmits and
    reroutes must never cost an acked write — every one stays
    readable, sanitizers clean."""
    rep = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.01,
                             dup_rate=0.02, n_iters=2, run_until=30.0,
                             sanitize=True, kvs_dedup=True)
    assert rep.converged, rep.errors
    assert rep.reads_failed == 0
    assert rep.sanitizer_findings == []
    assert rep.reads_verified == 8 * 3


def test_dedup_root_failover_mid_fence_converges():
    """Root master killed mid-fence with walk reads on: the replayed
    fence re-sends its objects toward the promoted master, reads walk
    to it, and no acked write is lost."""
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
