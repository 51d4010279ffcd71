"""Slave-side object cache with disuse expiry.

Every broker's KVS slave keeps a cache of full objects faulted in from
its tree parent.  The paper: "Unused slave object cache entries are
expired after a period of disuse to save memory" — :meth:`expire`
implements that policy; the ``kvs`` module drives it from heartbeats
when the ``hb`` module is loaded and its ``expiry`` is set.  The
last-use clock exists only then: a cache without expiry keeps no
per-entry timestamps, and ``kvs.dropcache`` (:meth:`drop`) walks the
store instead.

Dirty (not-yet-committed) objects are pinned and never evicted.
"""

from __future__ import annotations

from typing import Optional

from .store import EMPTY_DIR, EMPTY_DIR_SHA, ObjectStore

__all__ = ["CacheStats", "SlaveCache"]


class CacheStats:
    """Hit/miss/eviction counters for one slave cache."""

    __slots__ = ("hits", "misses", "evictions", "faults")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.faults = 0

    def as_dict(self) -> dict[str, int]:
        """Counter snapshot."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "faults": self.faults}


class SlaveCache:
    """An :class:`ObjectStore` augmented with pinning and, given a
    clock, last-use tracking (same ``get`` / ``put_with_sha``, so either
    can hold a rank's objects).

    ``now_fn`` supplies the simulated clock so expiry is measured in
    simulated seconds.  Only :meth:`expire` reads last use, so a cache
    built without one (``None``, as the ``kvs`` module builds it when
    no ``expiry`` is set) keeps no per-entry timestamps and its hits
    and fills touch no clock; :meth:`drop` needs none.
    """

    def __init__(self, now_fn=None):
        self._store = ObjectStore()
        self._last_used: Optional[dict[str, float]] = (
            None if now_fn is None else {EMPTY_DIR_SHA: 0.0})
        self._pinned: set[str] = set()
        self._now = now_fn
        self.stats = CacheStats()

    def __contains__(self, sha: str) -> bool:
        return sha in self._store

    def __len__(self) -> int:
        return len(self._store)

    def get(self, sha: str) -> Optional[dict]:
        """Cached object or None; touches the entry on hit."""
        obj = self._store.get(sha)
        if obj is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self._last_used is not None:
            self._last_used[sha] = self._now()
        return obj

    def put_with_sha(self, sha: str, obj: dict) -> None:
        """Cache ``obj`` under ``sha``."""
        self._store.put_with_sha(sha, obj)
        if self._last_used is not None:
            self._last_used[sha] = self._now()

    def pin(self, sha: str) -> None:
        """Protect ``sha`` from eviction (a dirty object awaiting commit)."""
        self._pinned.add(sha)

    def unpin(self, sha: str) -> None:
        """Allow a previously pinned object to be evicted again."""
        self._pinned.discard(sha)

    def expire(self, max_idle: float) -> int:
        """Evict unpinned entries idle longer than ``max_idle`` seconds;
        returns the eviction count.  Needs the clock."""
        now = self._now()
        return self._evict([sha for sha, t in self._last_used.items()
                            if now - t > max_idle])

    def drop(self) -> int:
        """Evict every unpinned entry; returns the eviction count."""
        return self._evict(self._store.shas())

    def _evict(self, shas: list[str]) -> int:
        # The empty directory is every rank's initial root: never evicted.
        victims = [sha for sha in shas
                   if sha not in self._pinned and sha != EMPTY_DIR_SHA]
        for sha in victims:
            self._store.discard(sha)
            if self._last_used is not None:
                del self._last_used[sha]
        self.stats.evictions += len(victims)
        return len(victims)
