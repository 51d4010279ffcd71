"""Distributed KVS master — the paper's stated future work.

Section VII: "we must also continue to push the scalability envelope of
our infrastructure, in particular in the KVS.  We plan to address the
latter by *distributing the KVS master itself*."

This extension shards the key space into independent namespaces, each
served by its own :class:`~repro.kvs.module.KvsModule` instance with
its own master placed on a distinct session rank.  The top-level path
component of a key selects its shard (stable SHA1 hash), so unrelated
namespaces — different jobs, different services — stop serializing
through the single root master and its NIC.

Traffic to a non-root master follows the tree path toward that rank
(the :meth:`~repro.cmb.broker.Broker.rpc_hop_cb` extension), with the
same hop-by-hop slave caching as the root-ward original.  Consistency
properties hold *per shard*: each namespace has its own root reference
and version sequence.  Cross-shard fences compose from per-shard
fences (see :meth:`ShardedKvsClient.fence`).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any, Callable, Optional

from ..cmb.api import Handle
from ..cmb.session import ModuleSpec
from ..sim.kernel import AllOf, Event
from .api import KvsClient, Watcher
from .hashtree import split_key
from .module import KvsModule

__all__ = ["shard_of_key", "spread_master_ranks", "sharded_kvs_specs",
           "ShardedKvsClient"]


@lru_cache(maxsize=4096)
def _shard_of_top(top: str, nshards: int) -> int:
    """SHA1-of-component mod ``nshards``, memoized: shard routing runs
    on every keyed client call, and real workloads hit the same handful
    of top-level directories (``job.N``, service names) over and over,
    so the digest is worth caching.  Keyed on the *component*, not the
    full key, so ``a.b`` and ``a.c`` share one entry."""
    digest = hashlib.sha1(top.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % nshards


def shard_of_key(key: str, nshards: int) -> int:
    """Stable shard index for ``key``: SHA1 of its top-level path
    component, mod ``nshards`` (deterministic across runs/processes)."""
    return _shard_of_top(split_key(key)[0], nshards)


def spread_master_ranks(nshards: int, session_size: int) -> list[int]:
    """Master placement: spread shard masters evenly over the rank
    space so their tree neighbourhoods (and NICs) are disjoint."""
    if nshards < 1:
        raise ValueError("need at least one shard")
    if nshards > session_size:
        raise ValueError("more shards than session ranks")
    return [(i * session_size) // nshards for i in range(nshards)]


def sharded_kvs_specs(nshards: int, session_size: int, *,
                      prefix: str = "kvs",
                      expiry: Optional[float] = None,
                      master_commit_cost: float = 0.0,
                      master_op_cost: float = 0.0) -> list[ModuleSpec]:
    """Module specs for a sharded KVS: one namespace module per shard,
    named ``kvs0..kvsN-1``, masters spread via
    :func:`spread_master_ranks`.  Load them instead of the single
    ``ModuleSpec(KvsModule)``.

    ``master_commit_cost``/``master_op_cost`` feed the master
    service-time model — the serialization the sharding is meant to
    relieve; zero (the default) models an infinitely fast master.
    """
    masters = spread_master_ranks(nshards, session_size)
    return [
        ModuleSpec(KvsModule, name=f"{prefix}{i}", master_rank=masters[i],
                   expiry=expiry, master_commit_cost=master_commit_cost,
                   master_op_cost=master_op_cost)
        for i in range(nshards)
    ]


class ShardedKvsClient:
    """Client facade multiplexing the ``kvs_*`` API over shards.

    Reads and writes route to the shard owning the key's top-level
    directory; version operations and fences take an explicit shard (or
    fan out to all shards for the collective case).
    """

    def __init__(self, handle: Handle, nshards: int, *,
                 prefix: str = "kvs", timeout: Optional[float] = None):
        if nshards < 1:
            raise ValueError("need at least one shard")
        self.handle = handle
        self.nshards = nshards
        #: Default RPC timeout forwarded to every per-shard client.
        self.timeout = timeout
        self.clients = [KvsClient(handle, module=f"{prefix}{i}",
                                  timeout=timeout)
                        for i in range(nshards)]
        #: Shards this client has written to since its last commit;
        #: :meth:`commit` fans out only to these.
        self._dirty: set[int] = set()

    # -- routing ----------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """The shard index that owns ``key``."""
        return shard_of_key(key, self.nshards)

    def client_for(self, key: str) -> KvsClient:
        """The per-shard client that owns ``key``."""
        return self.clients[self.shard_of(key)]

    # -- keyed operations ---------------------------------------------------
    def put(self, key: str, value: Any) -> Event:
        """``kvs_put`` on the owning shard."""
        shard = self.shard_of(key)
        self._dirty.add(shard)
        return self.clients[shard].put(key, value)

    def unlink(self, key: str) -> Event:
        """Unlink on the owning shard."""
        shard = self.shard_of(key)
        self._dirty.add(shard)
        return self.clients[shard].unlink(key)

    def get(self, key: str) -> Event:
        """``kvs_get`` from the owning shard."""
        return self.client_for(key).get(key)

    def get_ref(self, key: str) -> Event:
        """SHA1 reference from the owning shard."""
        return self.client_for(key).get_ref(key)

    def get_dir(self, key: str) -> Event:
        """Directory listing from the owning shard."""
        return self.client_for(key).get_dir(key)

    def watch(self, key: str,
              callback: Callable[[str, Any], None]) -> Watcher:
        """``kvs_watch`` on the owning shard."""
        return self.client_for(key).watch(key, callback)

    # -- commit / synchronization -----------------------------------------
    def commit(self) -> AllOf:
        """Commit this client's dirty data, fanning out only to shards
        actually written through this facade since the last commit
        (an untouched shard's master would just bump its version for
        nothing).  Fires with the list of per-shard ``{"version",
        "rootref"}`` results, in shard order.  With no dirty shards the
        commit degenerates to shard 0 alone so the call still yields a
        version.  A shard whose commit fails is re-marked dirty, so a
        retried :meth:`commit` reaches it again."""
        sim = self.handle.sim
        shards = sorted(self._dirty) or [0]
        self._dirty.clear()

        def issue(shard: int) -> Event:
            ev = self.clients[shard].commit()

            def done(e: Event) -> None:
                if not e.ok:
                    self._dirty.add(shard)

            ev.add_callback(done)
            return ev

        return sim.all_of([issue(s) for s in shards])

    def commit_shard(self, shard: int) -> Event:
        """Commit only one shard (the explicit escape hatch when the
        caller knows exactly where its writes went)."""
        self._dirty.discard(shard)
        return self.clients[shard].commit()

    def fence(self, name: str, nprocs: int) -> AllOf:
        """Collective fence across *all* shards: every participant
        fences every shard (each shard master completes its own fence
        of ``nprocs``); fires when all shards' roots have been applied
        locally.  Use :meth:`fence_shard` when a phase only touched one
        namespace."""
        sim = self.handle.sim
        self._dirty.clear()   # a fence flushes every shard's dirty data
        return sim.all_of([c.fence(f"{name}#{i}", nprocs)
                           for i, c in enumerate(self.clients)])

    def fence_shard(self, shard: int, name: str, nprocs: int) -> Event:
        """Fence a single shard."""
        self._dirty.discard(shard)
        return self.clients[shard].fence(name, nprocs)

    def wait_version(self, shard: int, version: int) -> Event:
        """Per-shard ``kvs_wait_version`` (versions are per namespace)."""
        return self.clients[shard].wait_version(version)

    def get_version(self, shard: int) -> Event:
        """Per-shard root version."""
        return self.clients[shard].get_version()
