#!/usr/bin/env python3
"""Distributed KVS master — running the paper's future work.

Section VII: "we must also continue to push the scalability envelope of
our infrastructure, in particular in the KVS.  We plan to address the
latter by distributing the KVS master itself."

This example runs a center-style workload — many independent jobs, each
committing bootstrap data into its own KVS directory — with the job
directories delegated at run time to 0, 2, 4 and 8 interior-broker
owners, with a realistic master service-time model (the serialization
delegation relieves), and prints the throughput recovery.

Run:  python examples/delegated_namespaces.py
"""

from repro.cmb.session import CommsSession, ModuleSpec
from repro.cmb.topology import TreeTopology
from repro.kvs import KvsClient, KvsModule
from repro.sim.cluster import make_cluster

N_NODES = 16
N_JOBS = 48
COMMITS_PER_JOB = 4


def run(owners: list[int]) -> tuple[float, float]:
    cluster = make_cluster(N_NODES, seed=17)
    session = CommsSession(
        cluster, topology=TreeTopology(N_NODES),
        modules=[ModuleSpec(
            KvsModule,
            master_commit_cost=5e-5,   # hash-tree rebuild, dedup, fsync-ish
            master_op_cost=5e-6)]).start()
    sim = cluster.sim

    def admin():
        kvs = KvsClient(session.connect(0, collective=False))
        for i in range(N_JOBS):
            yield kvs.delegate(f"lwj{i}", owners[i % len(owners)])

    if owners:
        sim.run_until_complete(sim.spawn(admin()))
    t0 = sim.now

    def job(i):
        kvs = KvsClient(session.connect(i % N_NODES))
        ns = f"lwj{i}"
        for r in range(COMMITS_PER_JOB):
            yield kvs.put(f"{ns}.stage{r}", {"rank": i, "round": r,
                                             "payload": "x" * 1024})
            yield kvs.commit()
        check = yield kvs.get(f"{ns}.stage{COMMITS_PER_JOB - 1}")
        assert check["round"] == COMMITS_PER_JOB - 1

    procs = [sim.spawn(job(i)) for i in range(N_JOBS)]
    sim.run()
    assert all(p.ok for p in procs)
    elapsed = sim.now - t0
    return elapsed, N_JOBS * COMMITS_PER_JOB / elapsed


def main() -> None:
    print(f"{N_JOBS} jobs x {COMMITS_PER_JOB} commits into private "
          f"directories on {N_NODES} nodes")
    print(f"{'owners':>8} {'placement':<30} {'time (ms)':>10} "
          f"{'commits/s':>10}")
    base = None
    for n in (0, 2, 4, 8):
        ranks = [(i + 1) * N_NODES // (n + 1) for i in range(n)]
        t, tput = run(ranks)
        base = base or t
        print(f"{n:>8} {str(ranks):<30} {t * 1e3:>10.3f} "
              f"{tput:>10.0f}   ({base / t:.2f}x)")
    print()
    print("Still one namespace: the root binds a link object at each")
    print("delegated directory, so reads compose across owners, one")
    print("fence spans them all, and KvsClient.recall() folds a")
    print("directory back into the root.")


if __name__ == "__main__":
    main()
