"""Slave-side object cache with disuse expiry.

Every broker's KVS slave keeps a cache of full objects faulted in from
its tree parent.  The paper: "Unused slave object cache entries are
expired after a period of disuse to save memory" — :meth:`expire`
implements that policy; the ``kvs`` module drives it from heartbeats
when the ``hb`` module is loaded.

Dirty (not-yet-committed) objects are pinned and never expire.
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
    """An :class:`ObjectStore` augmented with last-use tracking (same
    ``get`` / ``put_with_sha``, so either can hold a rank's objects).

    ``now_fn`` supplies the simulated clock so expiry is measured in
    simulated seconds.
    """

    def __init__(self, now_fn):
        self._store = ObjectStore()
        self._last_used: dict[str, float] = {EMPTY_DIR_SHA: 0.0}
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
        self._last_used[sha] = self._now()
        return obj

    def put_with_sha(self, sha: str, obj: dict) -> None:
        """Cache ``obj`` under ``sha``."""
        self._store.put_with_sha(sha, obj)
        self._last_used[sha] = self._now()

    def pin(self, sha: str) -> None:
        """Protect ``sha`` from expiry (a dirty object awaiting commit)."""
        self._pinned.add(sha)

    def unpin(self, sha: str) -> None:
        """Allow a previously pinned object to expire again."""
        self._pinned.discard(sha)

    def expire(self, max_idle: float) -> int:
        """Evict unpinned entries idle longer than ``max_idle`` seconds;
        returns the eviction count.  The empty directory never expires."""
        now = self._now()
        victims = [sha for sha, t in self._last_used.items()
                   if now - t > max_idle
                   and sha not in self._pinned
                   and sha != EMPTY_DIR_SHA]
        for sha in victims:
            self._store.discard(sha)
            del self._last_used[sha]
        self.stats.evictions += len(victims)
        return len(victims)
