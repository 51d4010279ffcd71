"""Tests for the distributed-KVS-master extension (the paper's stated
future work: "distributing the KVS master itself") and the static tree
routing table it relies on."""

import hashlib

import pytest

from repro.cmb.session import CommsSession
from repro.cmb.topology import TreeTopology
from repro.kvs import KvsClient, KvsModule
from repro.kvs.hashtree import split_key
from repro.kvs.sharding import (ShardedKvsClient, _shard_of_top,
                                shard_of_key, sharded_kvs_specs,
                                spread_master_ranks)
from repro.sim.cluster import make_cluster


def make_session(n=16, modules=(), seed=41):
    cluster = make_cluster(n, seed=seed)
    session = CommsSession(cluster, topology=TreeTopology(n),
                           modules=list(modules)).start()
    return cluster, session


def run_all(cluster, gens):
    procs = [cluster.sim.spawn(g) for g in gens]
    cluster.sim.run()
    for p in procs:
        assert p.ok, repr(p._exc)
    return [p.value for p in procs]


class TestTopologyRouting:
    def test_is_in_subtree(self):
        t = TreeTopology(15, arity=2)
        assert t.is_in_subtree(7, 1)   # 7 under 3 under 1
        assert t.is_in_subtree(1, 1)
        assert not t.is_in_subtree(2, 1)
        assert t.is_in_subtree(14, 0)

    def test_next_hop_up_and_down(self):
        t = TreeTopology(15, arity=2)
        assert t.next_hop_toward(7, 0) == 3   # upward
        assert t.next_hop_toward(0, 7) == 1   # downward
        assert t.next_hop_toward(1, 7) == 3
        assert t.next_hop_toward(7, 8) == 3   # over the LCA

    def test_next_hop_same_rank_rejected(self):
        with pytest.raises(ValueError):
            TreeTopology(7).next_hop_toward(3, 3)

    def test_path_endpoints_and_adjacency(self):
        t = TreeTopology(15, arity=2)
        path = t.path(7, 8)
        assert path[0] == 7 and path[-1] == 8
        assert path == [7, 3, 8]
        for a, b in zip(path, path[1:]):
            assert t.parent(a) == b or t.parent(b) == a

    def test_path_lengths_logarithmic(self):
        t = TreeTopology(127, arity=2)
        assert len(t.path(63, 126)) <= 2 * t.max_depth() + 1


class TestShardPlacement:
    def test_shard_of_key_stable_and_in_range(self):
        for key in ("a.b", "ns7.x.y", "zzz"):
            s = shard_of_key(key, 4)
            assert 0 <= s < 4
            assert s == shard_of_key(key, 4)

    def test_same_toplevel_same_shard(self):
        assert shard_of_key("job1.a", 8) == shard_of_key("job1.z.q", 8)

    def test_spread_master_ranks(self):
        assert spread_master_ranks(4, 16) == [0, 4, 8, 12]
        assert spread_master_ranks(1, 16) == [0]
        with pytest.raises(ValueError):
            spread_master_ranks(0, 16)
        with pytest.raises(ValueError):
            spread_master_ranks(17, 16)

    def test_specs_shape(self):
        specs = sharded_kvs_specs(3, 16)
        assert [s.config["name"] for s in specs] == ["kvs0", "kvs1", "kvs2"]
        assert [s.config["master_rank"] for s in specs] == [0, 5, 10]

    def test_memoized_routing_matches_uncached_exactly(self):
        """The lru_cache on the per-component digest must be a pure
        speedup: for every (key, nshards) pair the memoized router
        answers exactly what a from-scratch digest computes."""

        def uncached(key, nshards):
            top = split_key(key)[0]
            digest = hashlib.sha1(top.encode("utf-8")).digest()
            return int.from_bytes(digest[:4], "big") % nshards

        keys = ([f"job.{i}.task.{i * 7}" for i in range(50)]
                + [f"svc{i}.state" for i in range(50)]
                + ["a", "a.b", "a.b.c", "zzz.deep.deep.deep"])
        for nshards in (1, 2, 3, 7, 8, 64):
            for key in keys:
                assert shard_of_key(key, nshards) == uncached(key, nshards)
                # And again, now certainly served from the cache.
                assert shard_of_key(key, nshards) == uncached(key, nshards)

    def test_memoization_actually_caches(self):
        _shard_of_top.cache_clear()
        shard_of_key("memo.a", 4)
        shard_of_key("memo.b", 4)       # same top-level component
        info = _shard_of_top.cache_info()
        assert info.hits >= 1 and info.misses == 1


class TestShardedProtocol:
    def _session(self, nshards=4, n=16):
        return make_session(n=n, modules=sharded_kvs_specs(nshards, n))

    def test_put_commit_get_roundtrip(self):
        cluster, session = self._session()

        def worker(i):
            kvs = ShardedKvsClient(session.connect(i % 16), 4)
            yield kvs.put(f"ns{i}.v", i * 3)
            yield kvs.commit()
            return (yield kvs.get(f"ns{i}.v"))

        assert run_all(cluster, [worker(i) for i in range(8)]) == \
            [i * 3 for i in range(8)]

    def test_masters_actually_distributed(self):
        cluster, session = self._session()

        def worker(i):
            kvs = ShardedKvsClient(session.connect(i), 4)
            yield kvs.put(f"ns{i}.v", i)
            yield kvs.commit()

        run_all(cluster, [worker(i) for i in range(16)])
        masters_with_data = []
        for shard, rank in enumerate(spread_master_ranks(4, 16)):
            mod = session.module_at(rank, f"kvs{shard}")
            assert mod.master is not None
            if mod.master.version > 0:
                masters_with_data.append(rank)
        assert len(masters_with_data) >= 3  # load spread over masters

    def test_cross_shard_fence(self):
        cluster, session = self._session()
        N = 16

        def worker(i):
            kvs = ShardedKvsClient(session.connect(i % 16), 4)
            yield kvs.put(f"ns{i}.x", i)
            yield kvs.fence("xf", N)
            return (yield kvs.get(f"ns{(i + 5) % N}.x"))

        assert run_all(cluster, [worker(i) for i in range(N)]) == \
            [(i + 5) % N for i in range(N)]

    def test_single_shard_fence(self):
        cluster, session = self._session()
        N = 8
        shard = shard_of_key("shared.k0", 4)

        def worker(i):
            kvs = ShardedKvsClient(session.connect(i % 16), 4)
            yield kvs.put(f"shared.k{i}", i)
            yield kvs.fence_shard(shard, "sf", N)
            return (yield kvs.get(f"shared.k{(i + 1) % N}"))

        assert run_all(cluster, [worker(i) for i in range(N)]) == \
            [(i + 1) % N for i in range(N)]

    def test_per_shard_versions_independent(self):
        cluster, session = self._session()

        def worker():
            kvs = ShardedKvsClient(session.connect(2), 4)
            target = kvs.shard_of("only.here")
            yield kvs.put("only.here", 1)
            yield kvs.commit_shard(target)
            versions = []
            for s in range(4):
                v = yield kvs.get_version(s)
                versions.append(v["version"])
            return target, versions

        [(target, versions)] = run_all(cluster, [worker()])
        assert versions[target] == 1
        assert sum(versions) == 1  # other shards untouched

    def test_watch_on_shard(self):
        cluster, session = self._session()
        fired = []

        def watcher():
            kvs = ShardedKvsClient(session.connect(7), 4)
            kvs.watch("w.key", lambda k, v: fired.append(v))
            yield cluster.sim.timeout(2e-3)

        def writer():
            kvs = ShardedKvsClient(session.connect(3), 4)
            yield cluster.sim.timeout(2e-4)
            yield kvs.put("w.key", "seen")
            yield kvs.commit_shard(kvs.shard_of("w.key"))

        run_all(cluster, [watcher(), writer()])
        assert fired == ["seen"]

    def test_single_shard_degenerates_to_classic(self):
        cluster, session = make_session(
            modules=sharded_kvs_specs(1, 16, prefix="kvs"))

        def worker():
            kvs = ShardedKvsClient(session.connect(5), 1)
            yield kvs.put("a.b", 9)
            yield kvs.commit()
            return (yield kvs.get("a.b"))

        assert run_all(cluster, [worker()]) == [9]

    def test_nonroot_master_chain_caches(self):
        """Fault-in toward a relocated master still populates caches
        along the path."""
        cluster, session = self._session()
        # Find a key owned by the shard mastered at rank 8.
        nshards = 4
        key = None
        for i in range(100):
            candidate = f"probe{i}.data"
            if spread_master_ranks(nshards, 16)[
                    shard_of_key(candidate, nshards)] == 8:
                key = candidate
                break
        assert key is not None
        shard = shard_of_key(key, nshards)

        def writer():
            kvs = ShardedKvsClient(session.connect(8), nshards)
            yield kvs.put(key, "payload")
            yield kvs.commit_shard(shard)

        run_all(cluster, [writer()])

        def reader():
            kvs = ShardedKvsClient(session.connect(15), nshards)
            yield kvs.wait_version(shard, 1)
            return (yield kvs.get(key))

        [value] = run_all(cluster, [reader()])
        assert value == "payload"
        # The slave at rank 15 now holds the objects.
        mod = session.module_at(15, f"kvs{shard}")
        assert len(mod.cache) >= 3

    def test_invalid_shard_counts(self):
        cluster, session = self._session()
        with pytest.raises(ValueError):
            ShardedKvsClient(session.connect(0, collective=False), 0)


class TestDirtyShardCommit:
    def _session(self, nshards=4, n=16):
        return make_session(n=n, modules=sharded_kvs_specs(nshards, n))

    def test_commit_touches_only_dirty_shards(self):
        cluster, session = self._session()

        def worker():
            kvs = ShardedKvsClient(session.connect(3), 4)
            yield kvs.put("only.here", 1)       # one shard dirtied
            target = kvs.shard_of("only.here")
            results = yield kvs.commit()
            assert len(results) == 1            # single-shard fan-out
            versions = []
            for s in range(4):
                v = yield kvs.get_version(s)
                versions.append(v["version"])
            return target, versions

        [(target, versions)] = run_all(cluster, [worker()])
        assert versions[target] == 1
        assert sum(versions) == 1   # untouched masters never committed

    def test_commit_clears_dirty_and_falls_back_to_shard0(self):
        cluster, session = self._session()

        def worker():
            kvs = ShardedKvsClient(session.connect(5), 4)
            yield kvs.put("dirt.a", 1)
            yield kvs.commit()
            assert kvs._dirty == set()
            # A write-free commit still yields a version (shard 0).
            results = yield kvs.commit()
            assert len(results) == 1
            assert "version" in results[0]
            return "ok"

        assert run_all(cluster, [worker()]) == ["ok"]

    def test_multi_shard_batch_fans_out_to_each(self):
        cluster, session = self._session()

        def worker():
            kvs = ShardedKvsClient(session.connect(9), 4)
            shards = set()
            i = 0
            while len(shards) < 3:      # dirty three distinct shards
                key = f"fan{i}.x"
                if kvs.shard_of(key) not in shards:
                    shards.add(kvs.shard_of(key))
                    yield kvs.put(key, i)
                i += 1
            assert kvs._dirty == shards
            results = yield kvs.commit()
            assert len(results) == 3
            return sorted(shards)

        [shards] = run_all(cluster, [worker()])
        # Exactly the dirtied masters committed.
        versions = [session.module_at(r, f"kvs{s}").master.version
                    for s, r in enumerate(spread_master_ranks(4, 16))]
        assert [s for s, v in enumerate(versions) if v > 0] == shards

    def test_commit_shard_escape_hatch_clears_dirty_entry(self):
        cluster, session = self._session()

        def worker():
            kvs = ShardedKvsClient(session.connect(2), 4)
            yield kvs.put("esc.k", 7)
            shard = kvs.shard_of("esc.k")
            yield kvs.commit_shard(shard)
            assert shard not in kvs._dirty
            return (yield kvs.get("esc.k"))

        assert run_all(cluster, [worker()]) == [7]

    def test_unlink_dirties_owning_shard(self):
        cluster, session = self._session()

        def worker():
            kvs = ShardedKvsClient(session.connect(4), 4)
            yield kvs.put("gone.k", 1)
            yield kvs.commit()
            yield kvs.unlink("gone.k")
            assert kvs._dirty == {kvs.shard_of("gone.k")}
            yield kvs.commit()
            try:
                yield kvs.get("gone.k")
            except Exception:
                return "unlinked"
            return "still-there"

        assert run_all(cluster, [worker()]) == ["unlinked"]
