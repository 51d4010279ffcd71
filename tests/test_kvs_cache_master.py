"""Unit tests for the slave cache and the master commit engine."""

import pytest

from repro.jsonutil import sha1_of
from repro.kvs.cache import SlaveCache
from repro.kvs.master import KvsMaster
from repro.kvs.store import EMPTY_DIR_SHA, make_val_obj


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def cache(clock):
    return SlaveCache(clock)


def obj_for(value):
    obj = make_val_obj(value)
    return sha1_of(obj), obj


class TestSlaveCache:
    def test_insert_and_get(self, cache):
        sha, obj = obj_for(1)
        cache.put_with_sha(sha, obj)
        assert cache.get(sha) == obj
        assert cache.stats.hits == 1

    def test_miss_counted(self, cache):
        assert cache.get("0" * 40) is None
        assert cache.stats.misses == 1

    def test_expiry_evicts_idle_entries(self, cache, clock):
        sha, obj = obj_for("old")
        cache.put_with_sha(sha, obj)
        clock.t = 100.0
        evicted = cache.expire(max_idle=50.0)
        assert evicted == 1
        assert sha not in cache

    def test_recent_use_prevents_expiry(self, cache, clock):
        sha, obj = obj_for("warm")
        cache.put_with_sha(sha, obj)
        clock.t = 100.0
        cache.get(sha)  # touch
        clock.t = 140.0
        assert cache.expire(max_idle=50.0) == 0
        assert sha in cache

    def test_pinned_entries_survive_expiry(self, cache, clock):
        sha, obj = obj_for("dirty")
        cache.put_with_sha(sha, obj)
        cache.pin(sha)
        clock.t = 1000.0
        assert cache.expire(max_idle=1.0) == 0
        cache.unpin(sha)
        assert cache.expire(max_idle=1.0) == 1

    def test_empty_dir_never_expires(self, cache, clock):
        clock.t = 1e9
        cache.expire(max_idle=1.0)
        assert EMPTY_DIR_SHA in cache

    def test_cache_without_a_clock_keeps_no_last_use(self):
        cache = SlaveCache()
        for i in range(5):
            sha, obj = obj_for(i)
            cache.put_with_sha(sha, obj)
            assert cache.get(sha) == obj
        assert cache._last_used is None
        cache.pin(sha)
        assert cache.drop() == 4
        assert len(cache) == 2 and sha in cache and EMPTY_DIR_SHA in cache

    def test_drop_ignores_idleness(self, cache, clock):
        for i in range(3):
            sha, obj = obj_for(i)
            cache.put_with_sha(sha, obj)
        assert cache.drop() == 3
        assert cache._last_used == {EMPTY_DIR_SHA: 0.0}
        assert cache.stats.evictions == 3

    def test_eviction_stat(self, cache, clock):
        for i in range(5):
            sha, obj = obj_for(i)
            cache.put_with_sha(sha, obj)
        clock.t = 10.0
        cache.expire(max_idle=5.0)
        assert cache.stats.evictions == 5


class TestKvsMaster:
    def test_initial_state(self):
        m = KvsMaster()
        assert m.root_sha == EMPTY_DIR_SHA and m.version == 0

    def test_commit_bumps_version_and_root(self):
        m = KvsMaster()
        sha, obj = obj_for(42)
        m.ingest_objects({sha: obj})
        res = m.commit([("a.b", sha)])
        assert res.version == 1
        assert res.root_sha != EMPTY_DIR_SHA
        assert m.root_sha == res.root_sha

    def test_empty_commit_still_bumps_version(self):
        m = KvsMaster()
        res = m.commit([])
        assert res.version == 1

    def test_commit_unknown_object_rejected(self):
        m = KvsMaster()
        with pytest.raises(KeyError):
            m.commit([("k", "f" * 40)])

    def test_apply_record_ignores_duplicates_and_requires_order(self):
        master = KvsMaster()
        recs = []
        for i in range(3):
            sha, obj = obj_for(i)
            _, rec = master.commit_logged([(f"k{i}", sha)], {sha: obj})
            recs.append(rec)

        standby = KvsMaster()
        standby.apply_record(recs[0])
        standby.apply_record(recs[0])          # duplicate: ignored
        assert standby.version == 1
        standby.apply_record(recs[1])
        standby.apply_record(recs[2])
        assert standby.version == 3
        assert standby.root_sha == master.root_sha
