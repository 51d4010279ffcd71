"""Client-side KVS API — the paper's ``kvs_*`` function family.

A :class:`KvsClient` wraps a CMB :class:`~repro.cmb.api.Handle` and
exposes the Section IV-B calls: ``put``, ``get``, ``commit``,
``fence``, ``get_version``, ``wait_version``, ``watch`` and friends.
All calls return :class:`~repro.sim.kernel.Event` objects for use in
simulated processes (``value = yield kvs.get("a.b.c")``).

``watch`` follows the paper's described implementation: it internally
performs a get in response to each root-update event, compares the new
and old values, and fires the callback when they differ — which also
gives directory watches for free, since a directory's SHA1 changes when
anything beneath it changes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..cmb.api import Handle
from ..cmb.message import Message
from ..sim.kernel import Event

__all__ = ["KvsClient", "Watcher"]


class Watcher:
    """An active ``kvs_watch`` registration (cancel with :meth:`cancel`)."""

    def __init__(self, client: "KvsClient", key: str,
                 callback: Callable[[str, Any], None]):
        self.client = client
        self.key = key
        self.callback = callback
        self.cancelled = False
        self._last_ref: Optional[str] = None
        self._primed = False
        self._busy = False
        self._rerun = False

    def cancel(self) -> None:
        """Stop watching; no further callbacks fire."""
        self.cancelled = True

    # -- internals ------------------------------------------------------
    def _prime(self) -> None:
        """Record the key's current reference without firing."""
        self._check()

    def _on_root_update(self, _msg: Message) -> None:
        if self.cancelled:
            return
        if self._busy:
            self._rerun = True  # another root landed mid-check
        else:
            self._check()

    def _check(self) -> None:
        self._busy = True
        self.client.get_ref(self.key).add_callback(self._got_ref)

    def _got_ref(self, ev: Event) -> None:
        if self.cancelled:
            self._busy = False
            return
        ref = ev.value["ref"] if ev.ok else None  # None: key absent
        changed = self._primed and ref != self._last_ref
        self._last_ref = ref
        self._primed = True
        if changed and ref is not None:
            self.client.get(self.key).add_callback(self._got_value)
            return  # stay busy until the value arrives
        if changed:
            self.callback(self.key, None)  # key was removed
        self._finish_check()

    def _got_value(self, ev: Event) -> None:
        if not self.cancelled:
            self.callback(self.key, ev.value if ev.ok else None)
        self._finish_check()

    def _finish_check(self) -> None:
        self._busy = False
        if self._rerun and not self.cancelled:
            self._rerun = False
            self._check()


class KvsClient:
    """The ``kvs_*`` API bound to one CMB handle."""

    def __init__(self, handle: Handle,
                 timeout: Optional[float] = None, retries: int = 0):
        self.handle = handle
        #: Default RPC timeout (simulated seconds) applied to every
        #: call; ``None`` waits forever.  Per-call ``timeout=`` wins.
        #: Timeouts ride the request context, so a mid-tree broker
        #: drops an expired request with ``ETIMEDOUT`` instead of
        #: forwarding it further.
        self.timeout = timeout
        #: Re-issue attempts after retryable failures (see
        #: :meth:`repro.cmb.api.Handle.rpc`); safe because every retry
        #: reuses the original request identity and the brokers replay
        #: cached responses instead of re-executing.
        self.retries = retries
        self._watchers: list[Watcher] = []
        self._subscribed = False

    def _rpc(self, topic: str, payload: Optional[dict] = None,
             timeout: Optional[float] = None) -> Event:
        return self.handle.rpc(
            topic, payload,
            timeout=timeout if timeout is not None else self.timeout,
            retries=self.retries)

    # -- write path -------------------------------------------------------
    def put(self, key: str, value: Any,
            timeout: Optional[float] = None) -> Event:
        """``kvs_put``: write-back store of ``value`` under ``key``.
        Fires with ``{"sha": ...}`` once the local slave has buffered it."""
        return self._rpc("kvs.put", {
            "key": key, "value": value, "sender": self.handle.client_id},
            timeout=timeout)

    def unlink(self, key: str, timeout: Optional[float] = None) -> Event:
        """Remove ``key`` at the next commit/fence."""
        return self._rpc("kvs.unlink", {
            "key": key, "sender": self.handle.client_id}, timeout=timeout)

    def commit(self, timeout: Optional[float] = None) -> Event:
        """``kvs_commit``: synchronously flush this client's dirty data
        to the master; fires with ``{"version", "rootref"}`` after the
        new root is applied locally (read-your-writes)."""
        return self._rpc("kvs.commit",
                         {"sender": self.handle.client_id}, timeout=timeout)

    def fence(self, name: str, nprocs: int,
              timeout: Optional[float] = None) -> Event:
        """``kvs_fence``: collective commit across ``nprocs`` clients.
        Fires once every participant entered and the combined commit's
        root reference has been applied on this client's node."""
        return self._rpc("kvs.fence", {
            "name": name, "nprocs": nprocs,
            "sender": self.handle.client_id}, timeout=timeout)

    # -- read path --------------------------------------------------------
    def get(self, key: str, timeout: Optional[float] = None) -> Event:
        """``kvs_get``: fires with the value (faulting objects in as
        needed), or fails with RpcError for a missing key."""
        ev = self._rpc("kvs.get", {"key": key}, timeout=timeout)
        out = self.handle.sim.event(name=("kvs-get:%s", key))

        def done(e: Event) -> None:
            if not e.ok:
                out.fail(e._exc)
            elif "dir" in e.value:
                out.succeed({"__dir__": e.value["dir"]})
            else:
                out.succeed(e.value["value"])

        ev.add_callback(done)
        return out

    def get_ref(self, key: str, timeout: Optional[float] = None) -> Event:
        """Resolve ``key`` to its SHA1 reference without transferring
        the terminal object."""
        return self._rpc("kvs.get", {"key": key, "ref": True},
                         timeout=timeout)

    def get_dir(self, key: str, timeout: Optional[float] = None) -> Event:
        """Names under the directory at ``key``."""
        ev = self._rpc("kvs.get", {"key": key}, timeout=timeout)
        out = self.handle.sim.event(name=f"kvs-dir:{key}")

        def done(e: Event) -> None:
            if not e.ok:
                out.fail(e._exc)
            elif "dir" not in e.value:
                out.fail(KeyError(f"{key!r} is not a directory"))
            else:
                out.succeed(e.value["dir"])

        ev.add_callback(done)
        return out

    # -- consistency ------------------------------------------------------
    def get_version(self, timeout: Optional[float] = None) -> Event:
        """``kvs_get_version``: the root version applied on this node."""
        return self._rpc("kvs.getversion", timeout=timeout)

    def wait_version(self, version: int,
                     timeout: Optional[float] = None) -> Event:
        """``kvs_wait_version``: fires once the local slave has applied
        root version >= ``version`` (the causal-consistency wait)."""
        return self._rpc("kvs.waitversion",
                         {"version": version}, timeout=timeout)

    # -- watch --------------------------------------------------------------
    def watch(self, key: str,
              callback: Callable[[str, Any], None]) -> Watcher:
        """``kvs_watch``: invoke ``callback(key, new_value)`` whenever
        the value (or anything under a watched directory) changes."""
        w = Watcher(self, key, callback)
        self._watchers.append(w)
        if not self._subscribed:
            self.handle.subscribe("kvs.setroot", self._on_setroot)
            self._subscribed = True
        w._prime()
        return w

    def _on_setroot(self, msg: Message) -> None:
        for w in list(self._watchers):
            if w.cancelled:
                self._watchers.remove(w)
            else:
                w._on_root_update(msg)

    # -- ownership delegation ----------------------------------------------
    def delegate(self, prefix: str, rank: int,
                 timeout: Optional[float] = None) -> Event:
        """Delegate ownership of the directory subtree at ``prefix`` to
        the broker at ``rank``: that broker becomes the subtree's
        master (own root reference and version sequence), and the root
        tree binds a link object so cross-subtree reads still compose.
        Fires with ``{"pfx", "rank", "version"}`` once the link commit
        has been applied at the root master."""
        return self._rpc("kvs.delegate",
                         {"pfx": prefix, "rank": rank}, timeout=timeout)

    def recall(self, prefix: str, timeout: Optional[float] = None) -> Event:
        """Undo :meth:`delegate`: fold the subtree's current state back
        into the root master's tree and drop the ownership entry.
        Fires with ``{"pfx", "version"}`` after the fold-back commit."""
        return self._rpc("kvs.recall", {"pfx": prefix},
                         timeout=timeout)

    def owners(self, timeout: Optional[float] = None) -> Event:
        """The ownership table as seen by the answering broker: fires
        with ``{"owners": {prefix: rank}, "hosted": [prefix, ...]}``
        (``hosted`` lists subtrees mastered by that broker itself)."""
        return self._rpc("kvs.owners", timeout=timeout)

    # -- diagnostics --------------------------------------------------------
    def stats(self, rank: Optional[int] = None) -> Event:
        """Cache statistics of the local (or a specific) KVS instance,
        the latter via the rank-addressed ring overlay."""
        if rank is None:
            return self.handle.rpc("kvs.stats")
        return self.handle.rpc_rank(rank, "kvs.stats")
