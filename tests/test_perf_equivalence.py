"""Hot-path optimizations must be invisible to the simulation.

This PR's performance work (memoized canonical sizes, keyed digest
caches, lazy event names, the inlined kernel run loop, ``_cb1``
single-waiter dispatch, heap compaction) is licensed by one contract:
a same-seed run produces the *byte-identical* event stream — and
therefore identical SAN105 replay fingerprints, event counts, wire
bytes and simulated latencies — as the unoptimized code.

The golden values below were captured on the pre-optimization tree
(commit 82f684f) with the exact configurations used here.  If any
optimization perturbs scheduling order, message sizes, or float
arithmetic, these pins catch it; they are the regression gate the
DESIGN.md "Performance engineering" section points at.

The KAP pins were re-declared eight times since, the chaos golden
six times (see its comment).
First "barrier tallies leave when the subtree is complete": the setup
barrier lost its per-level windows, so fingerprints, event counts,
bytes and ``total_time`` moved and the phase latencies moved in the
last float ulp (the time origin moved).  Then "reductions without
acknowledgements on the fault-free path": no empty response answers a
barrier tally or a fence contribution, so the fence phase got shorter
too.  Then "self-clocked fence relay": a slave holding a message's
worth of fence data sends it whenever its NIC is idle, so the
``medium`` fence moved and sends a few more, smaller messages.  Then
"the callback request hop": a broker's inbox calls it back instead of
resuming a generator process, and ``kvs.get`` answers in its handler
instead of in a spawned process.  That deletes bookkeeping events
only: each broker's ``start:broker[r]`` and each get's
``start:kvs-get[r]`` and process-completion ``kvs-get[r]``, so a run
has one event fewer per broker and two per get.  The stream with those
events filtered out is the old stream entry for entry, so bytes and
every latency stay pinned as they were; the fingerprints and event
counts moved.  Then "batched fault-in": ``kvs.load`` carries a list of
SHAs and leaves under the read combiner's gate, so a lone load costs
6 bytes more (``{"shas":[…]}`` / ``{"objs":[…]}``) and loads queued
behind one in flight share a request.  Producer and sync latencies
did not move; ``medium`` lost 120 events and its consumer phase fell
21%, while ``small`` and ``large`` (same events) read later, because a
second distinct object now waits for the load in flight instead of
going in parallel.  Then "one fence wire format": a contribution maps
each origin rank to its ``[count, ops]`` share instead of carrying one
count and one op list, so every contribution carries its origin keys
(``small`` +81 bytes, ``medium`` +272) and the sync phase reads later
by those bytes (+0.05% / +0.07%); ``medium`` lost the master rank's
idle window timer (one event).  ``large`` commits instead of fencing
and did not move.  Then "fault-in answers before it pumps": a settled
``kvs.load`` batch answers its waiters before the combiner's gate is
asked again, so a relay's just-answered children no longer count as
blocked there and its queue waits for them to ask again instead of
leaving as a second batch at once.  Events and bytes did not move in
any of the three; ``small``'s consumer phase reads 85.30 -> 86.00 us
and ``medium``'s 45.23 -> 46.43 us (the 64-node ``kap_get_1k``
benchmark reads 6.7% earlier), and ``large`` did not move.  Then "a
leaf's own clients open the read combiner's second slot": a rank with
no live children sends a second load once each of its job processes
has a read waiting there, and the readers one batch answered all
resume before its queue leaves, so their next misses share a request.
``small`` (two processes per leaf) sends 32 fewer events and 1,184
fewer bytes and its consumer phase reads 86.00 -> 72.07 us; ``medium``
60 fewer events, 2,220 fewer bytes, 46.43 -> 38.25 us.  Producer and
sync phases did not move, nor did ``large``.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

from repro.kap import KapConfig, run_kap

from .chaos import run_chaos_workload

#: (config kwargs, goldens from the pre-optimization tree).
GOLDEN_KAP = {
    "small": (
        dict(nnodes=8, procs_per_node=2, value_size=64, nputs=2,
             naccess=2, seed=3),
        dict(fingerprint="85bc82273a44d4103c32fc0a8017f11044142ba3",
             events=638, bytes_sent=34363,
             producer=1.6094000000000005e-05,
             sync=2.9619520833333292e-05,
             consumer=7.207364583333332e-05,
             total_time=0.00014886070833333335),
    ),
    "medium": (
        dict(nnodes=16, procs_per_node=4, value_size=512, dir_width=16,
             seed=5),
        dict(fingerprint="50c2f03f1dcaf0753a006d6e7aad615739d1b009",
             events=1475, bytes_sent=163905,
             producer=8.122166666666672e-06,
             sync=4.359887499999996e-05,
             consumer=3.8246208333333386e-05,
             total_time=0.00014958312500000002),
    ),
    "large": (
        dict(nnodes=32, procs_per_node=4, value_size=256,
             redundant_values=True, sync="commit_wait", seed=7),
        dict(fingerprint="dcdc8ce78ec19ccced59a1f6db823be918b42777",
             events=12539, bytes_sent=973120,
             producer=8.079333333333336e-06,
             sync=0.0007959190833333373,
             consumer=3.720116666666728e-05,
             total_time=0.000871311520833338),
    ),
}

#: Re-pinned six times: the live watchdog armed with or without a
#: fault plan, then the heartbeat (not the plan) selecting the hardened
#: protocol — ``kvs.getroot`` replies lost their fence-epoch field, and
#: gossip and retransmission timers keep running through the clean-
#: fabric verify pass — then the callback request hop (see above), then
#: the tagged, delta anti-entropy pull: a pulse's ``kvs.getroot`` sends
#: ``since`` and gets only what the child lacks (``{}`` when idle), so
#: message sizes, and with them the fault schedule, changed; then
#: batched fault-in (``kvs.load`` carries a list of SHAs, 6 bytes more
#: for a lone load, so the fault schedule changed again), then one fence
#: wire format (per-origin delta shares sent one-way, acknowledged only
#: once re-emitted, instead of the whole cumulative map as a request on
#: every arrival: fewer, smaller messages, so the fault schedule changed
#: again).  Each time ``converged`` and the verified reads did not move;
#: the makespan did not move before the fifth re-pin, rose by 7.5 ns
#: (0.005%) at it and fell by 10.8 us (6.9%) at the last.
GOLDEN_CHAOS = dict(
    fingerprint="775b7dfe4e3ab3d42315412b833034e1dc5377c2",
    converged=True, reads_verified=16,
    makespan=0.00014604685416666661)


@pytest.mark.parametrize("name", sorted(GOLDEN_KAP))
def test_kap_matches_preoptimization_goldens(name):
    cfg_kw, want = GOLDEN_KAP[name]
    res = run_kap(KapConfig(**cfg_kw), sanitize=True)
    assert res.sanitizer_findings == []
    assert res.event_fingerprint == want["fingerprint"]
    assert res.events == want["events"]
    assert res.bytes_sent == want["bytes_sent"]
    # Latencies are simulated-time floats: the same event stream must
    # reproduce them bit for bit, so exact equality is the point.
    assert res.max_producer_latency == want["producer"]
    assert res.max_sync_latency == want["sync"]
    assert res.max_consumer_latency == want["consumer"]
    assert res.total_time == want["total_time"]


def test_chaos_matches_preoptimization_goldens():
    rep = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.01,
                             n_iters=1, sanitize=True)
    assert rep.sanitizer_findings == []
    assert rep.event_fingerprint == GOLDEN_CHAOS["fingerprint"]
    assert rep.converged is GOLDEN_CHAOS["converged"]
    assert rep.reads_verified == GOLDEN_CHAOS["reads_verified"]
    assert rep.makespan == GOLDEN_CHAOS["makespan"]


def test_same_seed_runs_are_identical():
    """Replay determinism independent of the pinned goldens: two
    fresh same-seed runs in one process (so every memo cache is warm
    the second time) must still fingerprint identically."""
    cfg = dict(nnodes=8, procs_per_node=4, value_size=128, seed=11)
    a = run_kap(KapConfig(**cfg), sanitize=True)
    b = run_kap(KapConfig(**cfg), sanitize=True)
    assert a.event_fingerprint == b.event_fingerprint
    assert a.events == b.events
    assert a.bytes_sent == b.bytes_sent
    assert a.max_producer_latency == b.max_producer_latency
    assert a.max_sync_latency == b.max_sync_latency
    assert a.total_time == b.total_time


def test_exact_metric_gate_trips_on_any_moved_metric(tmp_path, monkeypatch,
                                                     capsys):
    """``benchmarks/check_exact.py`` (last step of CI's perf-harness
    job) compares a ``run.py --out`` document with the committed
    baseline: equal documents pass, one moved value is one finding,
    and re-declaring the baseline takes a reason that stays with it."""
    path = pathlib.Path(__file__).parent.parent / "benchmarks"
    spec = importlib.util.spec_from_file_location(
        "check_exact", path / "check_exact.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    want = json.loads((path / "exact_quick.json").read_text())
    assert len(want["workloads"]) == 5
    assert all(set(row) == set(gate.EXACT)
               for row in want["workloads"].values())

    doc = {"seed": want["seed"], "quick": want["quick"], "workloads": {
        name: {"end_to_end": {"events": row["events"], "metrics": {
            m: v for m, v in row.items() if m != "events"}}}
        for name, row in want["workloads"].items()}}
    assert gate.differences(want, gate.exact_of(doc)) == []

    moved = copy.deepcopy(doc)
    moved["workloads"]["kap_fence_4k"]["end_to_end"]["metrics"][
        "wire_bytes"] += 14
    del moved["workloads"]["kap_scale_4k"]
    found = gate.differences(want, gate.exact_of(moved))
    assert len(found) == 2
    assert any("kap_fence_4k wire_bytes" in line for line in found)
    assert any("kap_scale_4k" in line for line in found)

    assert want["reason"] and all(" → " in line for line in want["moved"])
    baseline = tmp_path / "exact_quick.json"
    baseline.write_text(json.dumps(want))
    monkeypatch.setattr(gate, "BASELINE", baseline)
    run = tmp_path / "doc.json"
    run.write_text(json.dumps({**moved, "commit": "f" * 40}))
    with pytest.raises(SystemExit):         # no reason: nothing written
        gate.main([str(run), "--update"])
    assert json.loads(baseline.read_text()) == want
    assert gate.main([str(run), "--update", "--reason", "14 B more"]) == 0
    assert gate.main([str(run)]) == 0
    shown = capsys.readouterr().out
    assert "declared at ffffffffffff: 14 B more" in shown
    assert all(f"  {line}\n" in shown for line in found)
