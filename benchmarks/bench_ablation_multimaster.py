"""Ablation — distributing the KVS master (paper Section VII).

"We must also continue to push the scalability envelope of our
infrastructure, in particular in the KVS.  We plan to address the
latter by distributing the KVS master itself."

Workload: every process owns a private namespace and repeatedly writes
keys and commits — the multi-job/multi-service pattern that serializes
at a single root master.  The master service-time model is enabled
(50 us per commit + 5 us per op — hashing, dedup, hash-tree rebuild),
since the serialization being relieved is the master's processing; with
a cost-free master the workload is communication-bound and a second
master merely lengthens paths.

The master is distributed by **runtime subtree delegation**: one ``kvs``
namespace whose directory subtrees are delegated to interior-broker
owners, each running its own subtree master (per-owner commit counts
come from the ``kvs_owner_commits_total`` metric).  DESIGN.md "Why
there is one way to distribute the master" records the static
hash-split alternative this replaced.

A failover probe additionally kills the root master with standby
replicas configured and reports the ring-election latency from the
``kvs_election_seconds`` histogram.

Standalone smoke mode for CI (from ``benchmarks/``)::

    PYTHONPATH=../src python bench_ablation_multimaster.py --smoke
"""

import argparse
import sys

import pytest

from conftest import write_table
from repro import make_cluster, standard_session
from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kvs import KvsClient, KvsModule

#: Delegated-owner counts (0 = classic single master, the
#: delegation-disabled baseline).
OWNER_COUNTS = (0, 2, 4, 8)
N_NODES = 16
CLIENTS = 32
ROUNDS = 4
VALUE = "x" * 2048
MASTER_COMMIT_COST = 5e-5
MASTER_OP_COST = 5e-6


def run_multimaster_workload(nowners: int, clients: int = CLIENTS,
                             rounds: int = ROUNDS) -> dict:
    """The workload over one ``kvs`` namespace whose per-client
    subtrees are delegated round-robin to ``nowners`` interior-broker
    owners (0 = no delegation: the classic single-master baseline)."""
    cluster = make_cluster(N_NODES, seed=55)
    session = CommsSession(
        cluster, topology=TreeTopology(N_NODES),
        modules=[ModuleSpec(KvsModule,
                            master_commit_cost=MASTER_COMMIT_COST,
                            master_op_cost=MASTER_OP_COST)]).start()
    sim = cluster.sim
    owner_ranks = [(i + 1) * N_NODES // (nowners + 1)
                   for i in range(nowners)]

    if nowners:
        def admin():
            kvs = KvsClient(session.connect(0, collective=False))
            for i in range(clients):
                yield kvs.delegate(f"job{i}",
                                   owner_ranks[i % nowners])

        aproc = sim.spawn(admin())
        sim.run()
        assert aproc.ok
    t0 = sim.now
    setup_bytes = cluster.network.total_bytes_sent()

    def client(i):
        kvs = KvsClient(session.connect(i % N_NODES))
        for r in range(rounds):
            yield kvs.put(f"job{i}.round{r}", VALUE)
            yield kvs.commit()
        value = yield kvs.get(f"job{i}.round{rounds - 1}")
        assert value == VALUE

    procs = [sim.spawn(client(i)) for i in range(clients)]
    sim.run()
    assert all(p.ok for p in procs)
    elapsed = sim.now - t0

    agg = session.metrics_aggregate()
    owner_commits = {m["labels"]["owner"]: m["value"]
                     for m in agg["metrics"]
                     if m["name"] == "kvs_owner_commits_total"}
    return {
        "time": elapsed,
        "commits_per_s": clients * rounds / elapsed,
        "bytes": cluster.network.total_bytes_sent() - setup_bytes,
        "owner_commits": owner_commits,
    }


def run_failover_probe() -> dict:
    """Kill the root master with standbys configured; report the ring
    election's latency (``kvs_election_seconds``) and that the
    namespace keeps serving afterwards."""
    cluster = make_cluster(8, seed=10)
    session = standard_session(cluster, kvs_replicas=(1, 2),
                               with_heartbeat=True, hb_period=0.05,
                               hb_max_epochs=100000).start()
    sim = cluster.sim

    def before():
        kvs = KvsClient(session.connect(5), timeout=5.0, retries=8)
        yield kvs.put("pre.k", 1)
        yield kvs.commit()

    bproc = sim.spawn(before())
    sim.run(until=sim.now + 2.0)
    assert bproc.ok
    t_kill = sim.now
    session.fail_rank(0)
    sim.run(until=sim.now + 3.0)

    def after():
        kvs = KvsClient(session.connect(6), timeout=2.0, retries=10)
        assert (yield kvs.get("pre.k")) == 1
        yield kvs.put("post.k", 2)
        yield kvs.commit()

    aproc = sim.spawn(after())
    sim.run(until=sim.now + 10.0)
    assert aproc.triggered and aproc.ok

    agg = session.metrics_aggregate()
    elections = sum(m["value"] for m in agg["metrics"]
                    if m["name"] == "kvs_elections_total")
    hists = [m for m in agg["metrics"]
             if m["name"] == "kvs_election_seconds"]
    latency = (hists[0]["sum"] / hists[0]["count"]
               if hists and hists[0]["count"] else 0.0)
    new_master = next(r for r in (1, 2)
                      if session.module_at(r, "kvs").master is not None)
    session.stop()
    return {"elections": elections, "election_latency": latency,
            "kill_time": t_kill, "promoted_rank": new_master}


def _owner_commit_cell(r: dict) -> str:
    counts = sorted(r["owner_commits"].values())
    if not counts:
        return "—"
    if counts[0] == counts[-1]:
        return f"{len(counts)}x{counts[0]}"
    return f"{len(counts)} owners, {counts[0]}..{counts[-1]}"


@pytest.fixture(scope="module")
def mm_results():
    return {k: run_multimaster_workload(k) for k in OWNER_COUNTS}


@pytest.fixture(scope="module")
def failover_result():
    return run_failover_probe()


@pytest.fixture(scope="module")
def ablation_table(mm_results, failover_result):
    lines = [f"Ablation: distributed KVS master — {CLIENTS} clients x "
             f"{ROUNDS} commits of 2 KiB, private namespaces",
             "multi-master (runtime subtree delegation, one namespace"
             " module; owners=0 is the classic single master)"]
    lines.append(f"{'owners':>8} {'time(ms)':>10} {'commits/s':>11} "
                 f"{'MB moved':>9}  commits/owner")
    for k, r in mm_results.items():
        lines.append(f"{k:>8} {r['time'] * 1e3:>10.3f} "
                     f"{r['commits_per_s']:>11.0f} "
                     f"{r['bytes'] / 1e6:>9.2f}  "
                     f"{_owner_commit_cell(r)}")
    f = failover_result
    lines.append("")
    lines.append(f"failover: root killed with 2 standbys -> "
                 f"{f['elections']} election(s), rank "
                 f"{f['promoted_rank']} promoted, election latency "
                 f"{f['election_latency'] * 1e3:.3f} ms")
    write_table("ablation_multimaster", "\n".join(lines),
                data={"multimaster": mm_results,
                      "failover": failover_result})
    return lines


def test_multimaster_table_regenerated(mm_results, ablation_table):
    assert set(mm_results) == set(OWNER_COUNTS)


def test_returns_diminish(mm_results):
    gain_2 = mm_results[0]["time"] / mm_results[2]["time"]
    gain_8 = mm_results[4]["time"] / mm_results[8]["time"]
    assert gain_8 < gain_2


def test_multimaster_delegation_beats_single(mm_results):
    """The future-work hypothesis: distributing the master improves
    commit throughput on namespace-disjoint workloads."""
    assert mm_results[4]["time"] < mm_results[0]["time"]


def test_multimaster_owner_commit_accounting(mm_results):
    """Every delegated commit is attributed to exactly one owner: the
    per-owner counters sum to the workload's commit count."""
    for k in OWNER_COUNTS:
        counts = mm_results[k]["owner_commits"]
        if k == 0:
            assert counts == {}
        else:
            assert len(counts) == k
            assert sum(counts.values()) == CLIENTS * ROUNDS


def test_failover_probe_promotes_once(failover_result):
    assert failover_result["elections"] == 1
    assert failover_result["election_latency"] > 0.0


def test_multimaster_benchmark_representative(benchmark, mm_results):
    benchmark.pedantic(lambda: run_multimaster_workload(4), rounds=2,
                       iterations=1)


# ----------------------------------------------------------------------
# standalone smoke mode (CI)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced scale, no table rewrite")
    args = ap.parse_args(argv)
    clients, rounds = (8, 2) if args.smoke else (CLIENTS, ROUNDS)

    mm = run_multimaster_workload(2, clients=clients, rounds=rounds)
    print(f"multi-master(2 owners): {mm['time'] * 1e3:.3f} ms, "
          f"{mm['commits_per_s']:.0f} commits/s, "
          f"owner commits {sorted(mm['owner_commits'].values())}")
    if sum(mm["owner_commits"].values()) != clients * rounds:
        print("FAIL: owner commit accounting off")
        return 1
    fo = run_failover_probe()
    print(f"failover: {fo['elections']} election(s), rank "
          f"{fo['promoted_rank']} promoted in "
          f"{fo['election_latency'] * 1e3:.3f} ms")
    if fo["elections"] != 1:
        print("FAIL: expected exactly one election")
        return 1
    print("ablation_multimaster OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
