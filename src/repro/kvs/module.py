"""The ``kvs`` comms module: master at the root, caching slaves below.

Implements the full Section IV-B protocol:

- **put** — write-back: the value object is hashed and cached locally;
  the (key, SHA1) tuple is parked per client pending commit.
- **commit** — flushes a client's dirty tuples/objects upstream hop by
  hop (each slave on the path caches what passes through) to the
  master, which applies them and answers with the new root reference;
  each hop — and finally the client's slave — applies that root before
  responding, giving read-your-writes consistency.
- **fence** — the collective commit.  Each slave merges the fence
  contributions of its subtree (local clients plus the per-origin
  shares of its children) — content objects union by SHA1, so
  redundant values reduce; (key, SHA1) tuples concatenate, which is
  why Figure 3's redundant case still falls short of logarithmic — and
  forwards what it holds unsent to its parent once the whole subtree
  is in, or earlier whenever it holds a message's worth and its NIC is
  idle, so a big fence streams up the tree.  The master rank holds
  what arrives until all ``nprocs`` participants are in, then commits
  the fence and multicasts the new root.  When only a
  subset of a subtree's clients joins a fence, a short aggregation
  window flushes partial aggregates upstream so the root still gets
  there.
- **get** — :func:`~repro.kvs.hashtree.resolve` walks the key's path
  from the currently applied root; it stops at an object missing from
  the slave cache, which is faulted in from the tree parent,
  recursively up to the master, and the walk resumes there.  Whole
  objects transfer, so a small value inside a huge directory drags the
  whole directory through every cache on the path (the Figure 4a
  effect).  With ``dedup=True`` the cold read ships a ``kvs.walk``
  master-ward instead.  Every read — fault-in, walk item, delegated, via a
  link — is that one resolver, one fetch (:meth:`KvsModule._fetch`) and
  one rendering (:func:`_read_payload`).
- **setroot events** — the master publishes each new root reference on
  the event plane; slaves apply versions monotonically, release
  ``wait_version`` waiters, and complete held fences.

Whatever brings a root-namespace write to the master rank (client
commit, relayed flush, in-broker service, delegation link, completed
fence), it commits through :meth:`KvsModule._master_commit` only.

The multi-master extension (the paper's stated future work of
"distributing the KVS master itself") adds two orthogonal mechanisms,
both inert — and event-identical to the single-master protocol — until
explicitly configured:

- **subtree ownership delegation** — ``kvs.delegate`` hands a directory
  subtree (e.g. ``job.42``) to an interior broker, which instantiates
  its own :class:`KvsMaster` for that namespace (own root ref and
  version sequence).  Every rank keeps an ownership table fed by
  totally-ordered ``kvs.delegation`` events; writes and reads under a
  delegated prefix route hop-by-hop toward the owner
  (``rpc_hop_cb``), falling back root-ward on a miss.  The root binds a
  *link object* at the delegated path so cross-subtree reads still
  compose into one hash tree: a walk landing on a link re-routes to the
  owning rank.
- **root replication + ring-election failover** — with ``replicas``
  configured, the root master streams each commit as a
  :class:`~repro.kvs.master.CommitRecord` to the standby replicas and
  defers both the client ack and the setroot publish until the ack
  watermark covers the commit (semi-synchronous replication: an acked
  write is never lost with the master).  On the master's death
  (``live.down``), the standbys run a Chang–Roberts ring election that
  promotes the most-caught-up replica; everyone else learns the winner
  from the totally-ordered ``kvs.newmaster`` event and re-routes, and
  in-flight fences replay idempotently through the chaos-recovery
  machinery.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Optional

from ..cmb.errors import (EEXIST, EHOSTUNREACH, EINVAL, EIO,
                          ENOENT, ETIMEDOUT, RETRYABLE_CODES)
from ..cmb.message import Message, MessageType, RequestContext
from ..cmb.module import CommsModule, request_handler
from ..cmb.modules.reduce import Slot
from ..obs import DEFAULT_SIZE_LADDER
from ..jsonutil import (canonical_size, digest_and_size, intern_fragment,
                        interned_size, size_by_sha)
from ..sim.network import NetworkParams
from .cache import SlaveCache
from .hashtree import KvsPathError, resolve, resolve_stored, split_key
from .master import CommitRecord, KvsMaster
from .store import (EMPTY_DIR_SHA, dir_entries, is_dir_obj, link_of,
                    make_link_obj, make_val_obj, val_of)

__all__ = ["KvsModule"]

#: Aggregation window for partial fence flushes (seconds): how long a
#: slave waits for more subtree contributions before forwarding an
#: incomplete aggregate upstream.
_FENCE_WINDOW = 1e-4
#: Standby acks required before a commit is acknowledged to the client
#: (clamped to the number of live replicas).
_REPL_ACK_MIN = 1
#: Entries kept in the completed-fence LRUs (``_completed`` and the
#: standby's ``_standby_completed``).
_COMPLETED_CAP = 64


def _read_payload(sha: str, obj: Optional[dict]) -> dict:
    """What a resolved read answers: the reference (``obj`` not
    loaded), a directory listing, or the value."""
    if obj is None:
        return {"ref": sha}
    if is_dir_obj(obj):
        return {"dir": sorted(dir_entries(obj))}
    return {"value": val_of(obj)}


def _fence_batch(params: NetworkParams) -> float:
    """Pending fence bytes (``ops_size + objs_size``) worth sending on
    their own: as many as the fabric moves in one message's overhead.
    A slave holding that much forwards it whenever its NIC is idle, so
    a big fence streams up the tree self-clocked — each message carries
    what piled up while the previous one was on the wire (DESIGN.md
    "Fence path")."""
    return params.per_message_overhead * params.bandwidth


class _Dirty:
    """Per-client uncommitted state (write-back buffer)."""

    __slots__ = ("ops", "objs")

    def __init__(self):
        self.ops: list[list] = []           # [key, sha|None] pairs
        self.objs: dict[str, dict] = {}     # sha -> object


class _Batch(dict):
    """Item -> waiters of one combined request; ``ctx`` is the
    ``(RequestContext, span)`` a ``kvs.load`` batch rides."""

    __slots__ = ("ctx",)


class _Combiner:
    """One rank's self-clocked read combiner (DESIGN.md "Read path"):
    the batches in flight master-ward (at most two), the queue behind
    them, and per child how many of its requests are parked here.
    ``kvs.walk`` items and ``kvs.load`` SHAs each run on one."""

    __slots__ = ("out", "q", "parked")

    def __init__(self):
        self.out: list[_Batch] = []
        self.q = _Batch()
        self.parked: dict[int, int] = {}

    def waiters(self, item) -> list:
        """The waiter list ``item`` joins: its batch's while it is in
        flight (it is not sent again), else its queue entry."""
        for batch in self.out:
            if item in batch:
                return batch[item]
        return self.q.setdefault(item, [])

    def may_send(self, children) -> bool:
        """The gate: the queue leaves when nothing is in flight, or as a
        second batch when every live child already has a request parked
        here — a blocked child asks again only under this same rule, so
        holding the queue merges next to nothing and idles the uplink."""
        if not self.q or len(self.out) > 1:
            return False
        return not self.out or bool(children) and all(
            self.parked.get(c) for c in children)

    def take(self) -> _Batch:
        """Hand over the queue (the caller puts what it sends in
        ``out``)."""
        queued, self.q = self.q, _Batch()
        return queued

    def settle(self, batch: _Batch) -> bool:
        """Take ``batch`` out of flight; False when it was not in it."""
        n = len(self.out)
        self.out = [b for b in self.out if b is not batch]
        return len(self.out) < n

    def park(self, child: int) -> None:
        self.parked[child] = self.parked.get(child, 0) + 1

    def unpark(self, child: int) -> None:
        if self.parked.get(child):      # dropped if it died
            self.parked[child] -= 1

    def census(self, field: str, show) -> dict:
        """Items in flight over all batches, batches, parked children,
        queued items and ``show`` of the first four (in flight first)."""
        return {"outstanding": sum(map(len, self.out)),
                "batches": len(self.out),
                "parked": sum(map(bool, self.parked.values())),
                "queued": len(self.q),
                field: [show(i) for b in (*self.out, self.q)
                        for i in b][:4]}


class _FenceAgg(Slot):
    """One round of a named fence at one rank (DESIGN.md "One fence
    protocol"): a :class:`Slot` whose ``parts[origin]`` is ``(count,
    ops)``, how many of rank ``origin``'s clients entered and their ops
    in entry order.  An origin's ops only grow, so the larger count
    wins and a duplicate or a re-emission adds nothing.  ``objs`` unions
    the objects by SHA1; ``gen`` is the root version the name's previous
    fence committed at (0: none); ``senders`` are the children whose
    contributions were folded in, where a refusal goes.

    What went up (slaves only): ``sent[origin]`` is the ``(count,
    len(ops))`` last sent to ``uplink``, ``nobjs_sent`` how many of
    ``objs`` (insertion order), ``pend[origin]`` the size of the unsent
    ops' elements and ``ops_size``/``objs_size`` the unsent totals, so
    neither the flush rule nor the frame sizing re-walks the aggregate.
    ``wake_armed``/``timer_armed``/``acked`` are :meth:`KvsModule.
    _maybe_flush_fence`'s and :meth:`KvsModule._flush_fence`'s; the
    master rank commits once (``completing``).  ``span`` is the tracing
    context of the latest contribution, the flush's parent span.
    """

    __slots__ = ("name", "nprocs", "gen", "objs", "held", "senders",
                 "sent", "pend", "uplink", "nobjs_sent", "ops_size",
                 "objs_size", "timer_armed", "wake_armed", "completing",
                 "acked", "span")

    def __init__(self, name: str, nprocs: int, gen: int):
        super().__init__()
        self.name, self.nprocs, self.gen = name, nprocs, gen
        self.objs: dict[str, dict] = {}
        self.held: list[Message] = []       # local client fence requests
        self.senders: set[int] = set()
        self.sent: dict[int, tuple[int, int]] = {}
        self.pend: dict[int, int] = {}
        self.uplink: Optional[int] = None
        self.nobjs_sent = self.ops_size = self.objs_size = 0
        self.timer_armed = self.wake_armed = False
        self.completing = self.acked = False
        self.span = None

    def pending(self, origin: int, size: int) -> None:
        """``origin``'s share grew by ops whose elements take ``size``
        bytes: it goes up with the next flush."""
        self.pend[origin] = self.pend.get(origin, 0) + size
        self.ops_size += size


class KvsModule(CommsModule):
    """Distributed KVS service (see module docstring).

    Config
    ------
    expiry:
        Cache-disuse expiry in simulated seconds, applied on each
        ``hb.pulse`` event when the heartbeat module is loaded
        (``None`` disables expiry — the default).
    dedup:
        The walk read path: a cold read ships one ``kvs.walk`` item
        master-ward instead of faulting directories down the tree.
        Writes are unaffected — every objs-carrying payload carries
        its objects in full either way.
    """

    name = "kvs"

    def __init__(self, broker, *, expiry: Optional[float] = None,
                 master_commit_cost: float = 0.0,
                 master_op_cost: float = 0.0,
                 replicas: tuple = (), dedup: bool = False):
        super().__init__(broker, expiry=expiry,
                         master_commit_cost=master_commit_cost,
                         master_op_cost=master_op_cost,
                         replicas=replicas, dedup=dedup)
        self.expiry = expiry
        #: Which session rank hosts the root-namespace master: the tree
        #: root, until a promotion or a ``kvs.newmaster`` event moves it.
        self.master_rank = 0
        #: Master service-time model: a commit occupies the master for
        #: ``master_commit_cost + master_op_cost * len(ops)`` simulated
        #: seconds, serialized FIFO.  Defaults to zero (the paper's
        #: evaluation is communication-bound); the distributed-master
        #: ablation sets realistic costs to expose the serialization.
        self.master_commit_cost = master_commit_cost
        self.master_op_cost = master_op_cost
        self._master_queue: list = []
        self._master_busy = False
        self.cache = SlaveCache(lambda: broker.sim.now)
        self._set_master(KvsMaster() if broker.rank == 0 else None)
        self.root_sha: str = EMPTY_DIR_SHA
        self.version: int = 0
        self._dirty: dict[Any, _Dirty] = {}
        self._fences: dict[str, _FenceAgg] = {}
        #: Fault-in combiner: SHA -> ``fn(obj)`` waiters.
        self._loads = _Combiner()
        self._version_waiters: list[tuple[int, Message]] = []
        #: Recently completed fences (name -> (version, root sha, tag)),
        #: a bounded LRU pulled by children so a fence-completion
        #: setroot event lost in transit cannot strand held waiters.
        #: The tag is ``_completed_seq`` when the entry last changed, so
        #: the LRU is in tag order and a pull gets only newer entries.
        self._completed: "OrderedDict[str, tuple[int, str, int]]" = (
            OrderedDict())
        self._completed_seq = 0
        #: ``[rank, seq]`` of the last pull reply that carried entries.
        self._sync_tag: list = []
        self._sync_busy = False
        self._sync_at = -1.0
        # ---- multi-master extension (all inert when unconfigured) ----
        #: Ranks holding standby replicas of the root master's state.
        #: Empty (the default) keeps the single-master protocol
        #: event-identical to the pre-replication revision.
        self.replicas = tuple(sorted(r for r in replicas))
        self._standby: Optional[KvsMaster] = (
            KvsMaster() if (self.rank in self.replicas
                            and self.rank != 0) else None)
        # Master-side replication: in-flight commit log suffix, per-
        # replica ack watermarks, and (version, fn) acks deferred until
        # the watermark covers them.
        self._repl_log: list[CommitRecord] = []
        self._repl_acks: dict[int, int] = {}
        self._repl_waiters: list[tuple[int, Callable[[], None]]] = []
        # Standby-side: out-of-order record buffer and the completed-
        # fence digest a promoted standby seeds ``_completed`` from.
        self._standby_buffer: dict[int, CommitRecord] = {}
        self._standby_completed: "OrderedDict[str, tuple[int, str]]" = (
            OrderedDict())
        self._repl_sync_busy = False
        self._repl_sync_at = -1.0
        #: Failover state.  ``_failed_over`` flips permanently once a
        #: promotion happened: routing then targets ``master_rank``
        #: explicitly instead of the root-ward parent chain.
        self._failed_over = False
        self._master_down = False
        self._master_down_at = 0.0
        #: Open election span at this candidate (tracing only): closed
        #: at promotion (we won) or on the ``newmaster`` event (lost).
        self._elect_span = None
        #: Ownership table: delegated prefix -> owning rank, learned
        #: from totally-ordered ``kvs.delegation`` events (every
        #: rank converges on the same table).
        self.owners: dict[str, int] = {}
        #: Delegate masters hosted at *this* rank: prefix -> KvsMaster.
        self.delegates: dict[str, KvsMaster] = {}
        #: Highest delegated-namespace version observed per prefix at
        #: this rank — a monotonic floor so an out-of-order remote-get
        #: response is not reported to the sanitizers as a read
        #: regression it is not.
        self._pfx_seen: dict[str, int] = {}
        # Fence completions deferred on in-flight delegated parts:
        # fence name -> outstanding part count / deferred finisher.
        self._fence_deleg_pending: dict[str, int] = {}
        self._fence_deferred: dict[str, Callable[[], None]] = {}
        # Per-owner commit counts (a CounterVec materializes no cells
        # until first inc, so snapshots are unchanged when delegation
        # is off).
        self._cv_owner_commits = broker.registry.counter_vec(
            "kvs_owner_commits_total", ("ns", "owner"))
        #: Walk read path (off by default — the paper's fault-in reads
        #: stay byte-identical): cold reads walk remotely instead of
        #: faulting whole directories down the tree (see ``req_walk``).
        self.dedup = bool(dedup)
        #: Walk combiner: ``(key, root, want_ref) -> [(msg, fn, tag)]``.
        self._walks = _Combiner()
        # Bytes of work the interning machinery avoided, by kind:
        # "sizing" (canonical re-serialization skipped via the intern
        # table).  Cells materialize on first inc, so snapshots are
        # unchanged when the machinery is idle.
        self._cv_interned = broker.registry.counter_vec(
            "kvs_interned_bytes_saved_total", ("ns", "kind"))
        self._cv_walks = broker.registry.counter_vec(
            "kvs_walk_gets_total", ("ns",))
        # Registry instruments (broker-owned registry).  Cache hit/miss
        # stay in the SlaveCache's own hot-path counters and are synced
        # into the registry at snapshot time (see sync_metrics).
        reg = broker.registry
        self._c_cache_hits = reg.counter("kvs_cache_hits_total",
                                         ns=self.name)
        self._c_cache_misses = reg.counter("kvs_cache_misses_total",
                                           ns=self.name)
        self._c_cache_evict = reg.counter("kvs_cache_evictions_total",
                                          ns=self.name)
        self._c_cache_faults = reg.counter("kvs_cache_faults_total",
                                           ns=self.name)
        self._g_cached_objects = reg.gauge("kvs_cached_objects",
                                           ns=self.name)
        self._g_version = reg.gauge("kvs_version", ns=self.name)
        self._h_batch = reg.histogram("kvs_commit_batch_ops",
                                      bounds=DEFAULT_SIZE_LADDER,
                                      ns=self.name)
        self._h_fence_wait = reg.histogram("kvs_fence_wait_seconds",
                                           ns=self.name)

    def _san(self):
        """The session's sanitizer hub, or ``None`` when disabled.

        Notify points sit at protocol-visible moments (version reads,
        commit/fence acks, root switches) so the consistency checker
        observes exactly what clients can."""
        return self.broker.session.sanitizers

    def sync_metrics(self) -> None:
        st = self.cache.stats
        self._c_cache_hits.value = st.hits
        self._c_cache_misses.value = st.misses
        self._c_cache_evict.value = st.evictions
        self._c_cache_faults.value = st.faults
        self._g_cached_objects.set(float(len(self.cache)))
        self._g_version.set(float(self.version))

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.broker.subscribe("kvs.setroot", self._on_setroot_event)
        self.broker.subscribe("kvs.delegation",
                              self._on_delegation_event)
        self.broker.subscribe("kvs.newmaster",
                              self._on_newmaster_event)
        self.broker.subscribe("live.down", self._on_live_down)
        self.broker.subscribe("hb.pulse", self._on_pulse)

    def _toward_master_cb(self, topic: str, payload: dict, callback,
                          ctx: Optional[RequestContext] = None,
                          span: Optional[tuple] = None,
                          payload_size: Optional[int] = None) -> None:
        """Forward a module-chain request one hop toward the master.

        With the master at the root (the paper's layout) this follows
        the *live* parent pointer, so it keeps working after the
        overlay self-heals around a dead interior node.  The survivor
        of a root failover is reached on the static topology, detouring
        around corpses via :meth:`_live_hop_toward`.

        ``ctx`` (when forwarding on behalf of a client request) keeps
        the originating request's id/origin/deadline attached to every
        hop of the module chain.  ``payload_size`` is the payload's
        canonical byte size when the caller already knows it (computed
        compositionally from cached object sizes — see
        :meth:`_payload_size_with_objs`), sparing the broker a full
        re-serialization of potentially large object payloads.
        """
        hop = self._uplink_peer()
        if hop is None:
            # E.g. the acting overlay root during a root-death window:
            # synthesize a retryable failure instead of raising into the
            # broker's dispatch; the client retries once a new master is
            # elected.
            self._unreachable(callback)
        elif self._failed_over:
            self.broker.rpc_hop_cb(hop, topic, payload, callback, ctx=ctx,
                                   span=span, payload_size=payload_size)
        else:
            self.broker.rpc_parent_cb(topic, payload, callback, ctx=ctx,
                                      span=span, payload_size=payload_size)

    # ------------------------------------------------------------------
    # rank-addressed routing (delegation / replication / election)
    # ------------------------------------------------------------------
    def _unreachable(self, callback: Callable[[Message], None]) -> None:
        """Answer ``callback`` with a locally synthesized retryable
        EHOSTUNREACH response when no live next hop exists."""
        callback(self._local_response({}, "no live route toward target",
                                      EHOSTUNREACH))

    def _live_hop_toward(self, dst: int) -> Optional[int]:
        """Next live hop toward rank ``dst`` on the (healed) overlay.

        Prefers the static tree hop — on a healthy fabric this is
        byte-identical to pre-failover routing.  When the static hop is
        a corpse, descend into the live child whose static subtree
        holds ``dst`` (adoption attaches whole subtrees, so a healed
        grandchild edge covers it), else climb to the live parent;
        parents are always static ancestors, so the walk is monotone
        and cannot loop.  ``None`` when no live hop exists.
        """
        if dst == self.rank:
            return None
        session = self.broker.session
        topo = session.topology
        hop = topo.next_hop_toward(self.rank, dst)
        if session.brokers[hop].alive:
            return hop
        for child in sorted(self.broker.children):
            if child != hop and topo.is_in_subtree(dst, child):
                return child
        parent = self.broker.parent
        if parent is not None and session.brokers[parent].alive:
            return parent
        return None

    def _hop_rpc(self, dst: int, topic: str, payload: dict, callback,
                 ctx: Optional[RequestContext] = None,
                 span: Optional[tuple] = None,
                 payload_size: Optional[int] = None) -> None:
        """RPC toward rank ``dst`` one live hop at a time (handlers at
        intermediate ranks forward on a ``dst`` payload mismatch)."""
        hop = self._live_hop_toward(dst)
        if hop is None:
            self._unreachable(callback)
            return
        self.broker.rpc_hop_cb(hop, topic, payload, callback, ctx=ctx,
                               span=span, payload_size=payload_size)

    def _relay_response(self, msg: Message, resp: Message) -> None:
        """Relay an upstream/peer response back to ``msg``'s source."""
        if resp.error is not None:
            self.respond(msg, error=resp.error, code=resp.errnum,
                         err_rank=resp.err_rank)
        else:
            self.respond(msg, dict(resp.payload))

    def _forwarded(self, msg: Message) -> bool:
        """Forward ``msg`` another hop when its ``dst`` is not us.
        Returns True when the message was passed on."""
        dst = msg.payload.get("dst")
        if dst is None or dst == self.rank:
            return False
        self._hop_rpc(dst, msg.topic, msg.payload,
                      lambda resp: self._relay_response(msg, resp),
                      ctx=msg.ctx, span=msg.span)
        return True

    def _owner_prefix(self, key: str) -> Optional[str]:
        """Longest delegated prefix owning ``key`` (component-wise
        match), or ``None`` when the key lives in the root namespace."""
        if not self.owners:
            return None
        k = key
        while True:
            if k in self.owners:
                return k
            i = k.rfind(".")
            if i < 0:
                return None
            k = k[:i]

    def _on_pulse(self, _msg: Message) -> None:
        if self.expiry is not None:
            self.cache.expire(self.expiry)
        # Anti-entropy gossip (pulses exist only in a hardened session):
        # a lossy fabric can lose setroot events outright (the event
        # plane is fire-and-forget), so each heartbeat a slave pulls
        # its parent's root version and completed-fence digest.  Stale
        # roots and stranded fence waiters heal one tree level per
        # pulse.
        if (self.master is None
                and (self.broker.parent is not None or self._failed_over)):
            self._resync_root()
            # Fences too: a lost contribution (or refusal) is repaired
            # within a pulse.
            self._reemit_fences()
        if self.replicas:
            # Replication re-drives (idempotent: streaming re-sends the
            # unacked log suffix, elections re-circulate tokens).
            if self.master is not None and self._repl_log:
                self._stream_replicas()
            if self._standby is not None and self._standby_buffer:
                self._standby_sync()
            if self._master_down and self._standby is not None:
                self._start_election()

    # ------------------------------------------------------------------
    # the root-namespace master: service-time queue and the one door in
    # ------------------------------------------------------------------
    def _master_run(self, nops: int, apply_fn) -> None:
        """Run ``apply_fn`` on the master after its FIFO service time.

        With zero costs the function runs synchronously, preserving the
        communication-bound behaviour of the paper's evaluation.
        """
        self._h_batch.observe(float(nops))
        cost = self.master_commit_cost + self.master_op_cost * nops
        if cost <= 0 and not self._master_busy:
            apply_fn()
            return
        self._master_queue.append((cost, apply_fn))
        if not self._master_busy:
            self._master_busy = True
            self.broker.sim.spawn(self._master_worker(),
                                  name=f"kvs-master[{self.rank}]")

    def _master_worker(self):
        while self._master_queue:
            cost, apply_fn = self._master_queue.pop(0)
            if cost > 0:
                yield self.broker.sim.timeout(cost)
            apply_fn()
        self._master_busy = False

    def _master_commit(self, ops: list, objs: dict,
                       done: Callable[[Message], None], *,
                       span: Optional[tuple] = None,
                       fence: Optional[str] = None) -> None:
        """The one door into this rank's root-namespace master: commit
        ``ops``/``objs`` and run ``done`` on a flush-shaped response,
        ``{"version", "rootref"}``, once the commit is durable, applied
        here and published — or on the master's ``EINVAL`` refusal (an op
        names an object nobody sent, or a malformed key).

        Client commits, relayed flushes, in-broker services, delegation
        link/recall commits and completed fences (``fence`` names it)
        all come through here, so each queues for the master's service
        time, enters the replication log and publishes its setroot
        exactly once.  With replicas, ``done``
        waits until ``_REPL_ACK_MIN`` live standbys acknowledged the
        :class:`CommitRecord` (an acknowledged write survives the
        master's death); a fence also waits for its delegated parts.
        """
        def finish(res) -> None:
            if fence is not None:
                self._record_completed(fence, res.version, res.root_sha)
            self._apply_root(res.version, res.root_sha)
            self._publish_setroot(res.version, res.root_sha, fence=fence,
                                  span=span)
            done(self._local_response({"version": res.version,
                                       "rootref": res.root_sha}))

        def durable(res) -> None:
            self._fence_finish_when_shipped(fence, lambda: finish(res))

        def apply() -> None:
            try:
                if self.replicas:
                    res, rec = self.master.commit_logged(ops, objs)
                else:
                    self.master.ingest_objects(objs)
                    res, rec = self.master.commit(ops), None
            except KeyError as exc:
                done(self._local_response({}, str(exc.args[0]), EINVAL))
                return
            if rec is None:
                durable(res)
                return
            if objs or fence is not None:
                # The journal only captures objects *new* to the store;
                # merge the flushed objects in explicitly so records stay
                # self-contained even when a value object was pre-stored
                # (e.g. by a master-rank client's put).  ``fence`` tags
                # the record so a promoted standby can seed its
                # completed-fence digest.
                rec = CommitRecord(rec.version, rec.root_sha,
                                   {**objs, **rec.objs}, fence)
            self._replicate(rec, lambda: durable(res))

        self._master_run(len(ops), apply)

    # ------------------------------------------------------------------
    # root replication (semi-synchronous commit log streaming)
    # ------------------------------------------------------------------
    def _replicate(self, rec: CommitRecord,
                   fn: Callable[[], None]) -> None:
        self._repl_log.append(rec)
        self._after_replicated(rec.version, fn)
        self._stream_replicas()

    def _live_replicas(self) -> list[int]:
        return [r for r in self.replicas
                if r != self.rank and self.broker.session.brokers[r].alive]

    def _ack_watermark(self) -> Optional[int]:
        """Highest version ``_REPL_ACK_MIN`` live standbys have acked,
        or ``None`` when no ack is required (degraded: no live
        replicas left — proceed unreplicated rather than hang)."""
        live = self._live_replicas()
        need = min(_REPL_ACK_MIN, len(live))
        if need <= 0:
            return None
        acks = sorted((self._repl_acks.get(r, 0) for r in live),
                      reverse=True)
        return acks[need - 1]

    def _after_replicated(self, version: int,
                          fn: Callable[[], None]) -> None:
        mark = self._ack_watermark()
        if mark is None or mark >= version:
            fn()
            return
        self._repl_waiters.append((version, fn))

    def _drain_repl_waiters(self) -> None:
        if not self._repl_waiters:
            return
        mark = self._ack_watermark()
        still: list[tuple[int, Callable[[], None]]] = []
        ready: list[tuple[int, Callable[[], None]]] = []
        for w in self._repl_waiters:
            (ready if (mark is None or mark >= w[0]) else still).append(w)
        self._repl_waiters = still
        for _v, fire in ready:      # appended in version order
            fire()

    def _stream_replicas(self) -> None:
        """Send each live standby the log suffix it has not acked.
        Idempotent (standbys drop duplicates by version), so the pulse
        re-drive simply calls this again."""
        if self.master is None or not self._repl_log:
            return
        live = self._live_replicas()
        if live:
            floor = min(self._repl_acks.get(r, 0) for r in live)
            while self._repl_log and self._repl_log[0].version <= floor:
                self._repl_log.pop(0)
        for r in live:
            acked = self._repl_acks.get(r, 0)
            recs = [rec.to_wire() for rec in self._repl_log
                    if rec.version > acked]
            if not recs:
                continue
            self._hop_rpc(r, "kvs.replicate",
                          {"dst": r, "recs": recs},
                          lambda resp, r=r: self._on_repl_ack(r, resp))

    def _on_repl_ack(self, r: int, resp: Message) -> None:
        if resp.error is not None:
            return      # next commit / pulse re-drive re-streams
        acked = resp.payload.get("acked", 0)
        if acked > self._repl_acks.get(r, 0):
            self._repl_acks[r] = acked
            self._drain_repl_waiters()

    @request_handler(required={"recs": list})
    def req_replicate(self, msg: Message) -> None:
        """Standby side: fold streamed commit records in, in version
        order (buffering gaps), and ack the contiguous watermark."""
        if self._forwarded(msg):
            return
        if self._standby is None:
            # Promoted meanwhile (or never a standby): ack at our own
            # version so the sender stops streaming to us.
            ver = self.master.version if self.master is not None else 0
            self.respond(msg, {"acked": ver})
            return
        sb = self._standby
        for wire in msg.payload["recs"]:
            rec = CommitRecord.from_wire(wire)
            if rec.version > sb.version:
                self._standby_buffer[rec.version] = rec
        while sb.version + 1 in self._standby_buffer:
            rec = self._standby_buffer.pop(sb.version + 1)
            sb.apply_record(rec)
            if rec.fence is not None:
                self._standby_completed[rec.fence] = (rec.version,
                                                      rec.root_sha)
                while len(self._standby_completed) > _COMPLETED_CAP:
                    self._standby_completed.popitem(last=False)
        for v in sorted(self._standby_buffer):
            if v <= sb.version:
                del self._standby_buffer[v]
        self.respond(msg, {"acked": sb.version})

    def _standby_sync(self) -> None:
        """Close a persistent replication gap (records lost on a lossy
        fabric) by pulling a full snapshot from the master."""
        now = self.broker.sim.now
        if self._repl_sync_busy and now - self._repl_sync_at < 0.25:
            return
        self._repl_sync_busy = True
        self._repl_sync_at = now
        self._hop_rpc(self.master_rank, "kvs.replsync",
                      {"dst": self.master_rank}, self._on_replsync)

    def req_replsync(self, msg: Message) -> None:
        if self._forwarded(msg):
            return
        if self.master is None:
            self.respond(msg, error="not the master", code=EHOSTUNREACH)
            return
        self.respond(msg, {
            "version": self.master.version,
            "rootref": self.master.root_sha,
            "objs": self.master.reachable_objects(),
            "completed": {n: [v, r]
                          for n, (v, r, _t) in self._completed.items()}})

    def _on_replsync(self, resp: Message) -> None:
        self._repl_sync_busy = False
        sb = self._standby
        if resp.error is not None or sb is None:
            return
        p = resp.payload
        if p["version"] > sb.version:
            for sha in sorted(p["objs"]):
                sb.store.put_with_sha(sha, p["objs"][sha])
            sb.root_sha = p["rootref"]
            sb.version = p["version"]
        for fname in sorted(p.get("completed", {})):
            ver, root = p["completed"][fname]
            self._standby_completed[fname] = (ver, root)
        for v in sorted(self._standby_buffer):
            if v <= sb.version:
                del self._standby_buffer[v]

    # ------------------------------------------------------------------
    # ring election among standbys (root failover)
    # ------------------------------------------------------------------
    def _election_ring(self) -> list[int]:
        """Live standby ranks in ascending order — the election ring.
        Deterministic at every rank (liveness is learned from the same
        totally-ordered ``live.down`` events)."""
        return [r for r in self.replicas
                if r != self.master_rank
                and self.broker.session.brokers[r].alive]

    def _start_election(self) -> None:
        """Chang–Roberts over the live standbys: each candidate
        circulates ``(version, rank)``; a token strictly better than
        the receiver's own candidacy (higher version; ties toward the
        lower rank) is forwarded, a worse one is swallowed, and a
        candidate receiving its own token back is the unique winner —
        the most-caught-up replica, which with semi-synchronous
        replication holds every acknowledged write.  Restarted on every
        heartbeat pulse while the master is down, so tokens lost on a
        lossy fabric only delay the election."""
        if not self._master_down or self._standby is None:
            return
        ring = self._election_ring()
        if self.rank not in ring:
            return
        self.broker._frec(self.broker.sim.now, "kvs_election",
                          self._standby.version, len(ring), None)
        tr = self.broker.session.span_tracer
        if tr is not None and self._elect_span is None:
            self._elect_span = tr.start_trace(
                "kvs_election", self.rank, ns=self.name,
                standby_version=self._standby.version)
        if len(ring) == 1:
            self._promote()
            return
        self._send_elect_token(ring, self._standby.version, self.rank)

    def _send_elect_token(self, ring: list[int], cver: int,
                          cand: int) -> None:
        succ = ring[(ring.index(self.rank) + 1) % len(ring)]
        self._hop_rpc(succ, "kvs.elect",
                      {"dst": succ, "cver": cver, "cand": cand},
                      lambda resp: None)

    @request_handler(required={"cver": int, "cand": int})
    def req_elect(self, msg: Message) -> None:
        if self._forwarded(msg):
            return
        p = msg.payload
        self.respond(msg, {})
        if self.master is not None and self._failed_over:
            # Already promoted: a circulating token means some standby
            # missed the announcement — repair it.
            self._publish_newmaster()
            return
        if self._standby is None:
            return
        if not self._master_down:
            # A candidate saw the master die; this standby missed that
            # ``live.down`` (events are not retransmitted).
            if self.broker.session.brokers[self.master_rank].alive:
                return
            self._master_down, self._master_down_at = True, self.broker.sim.now
        if p["cand"] == self.rank:
            self._promote()
            return
        ring = self._election_ring()
        if self.rank not in ring:
            return
        mine = (self._standby.version, -self.rank)
        theirs = (p["cver"], -p["cand"])
        if theirs > mine:
            self._send_elect_token(ring, p["cver"], p["cand"])
        else:
            self._send_elect_token(ring, self._standby.version, self.rank)

    def _promote(self) -> None:
        """This standby won: adopt the replicated state as the
        authoritative root-namespace master and announce it via the
        totally-ordered ``kvs.newmaster`` event."""
        if self.master is not None or self._standby is None:
            return
        reg = self.broker.registry
        reg.counter("kvs_elections_total", ns=self.name).inc()
        reg.histogram("kvs_election_seconds", ns=self.name).observe(
            self.broker.sim.now - self._master_down_at)
        self._set_master(self._standby)
        self._standby = None
        self._standby_buffer.clear()
        self.master_rank = self.rank
        self._failed_over = True
        self._master_down = False
        self.broker._frec(self.broker.sim.now, "kvs_promote",
                          self.master.version, self.rank, None)
        tr = self.broker.session.span_tracer
        if tr is not None and self._elect_span is not None:
            tr.finish(self._elect_span, winner=self.rank,
                      version=self.master.version)
            self._elect_span = None
        self._repl_log = []
        self._repl_acks = {}
        for fname in list(self._standby_completed):
            ver, root = self._standby_completed[fname]
            self._record_completed(fname, ver, root)
        self._apply_root(self.master.version, self.master.root_sha)
        self._publish_newmaster()
        # In-flight fences replay (idempotently: their shares are
        # re-emitted) toward the promoted master.
        self.broker.after(0.0, self._recover_after_down)

    def _publish_newmaster(self) -> None:
        self.broker.publish("kvs.newmaster",
                            {"rank": self.rank,
                             "version": self.master.version,
                             "rootref": self.master.root_sha})

    def _on_newmaster_event(self, msg: Message) -> None:
        p = msg.payload
        self._master_down = False
        if p["rank"] == self.rank:
            return
        self.master_rank = p["rank"]
        self._failed_over = True
        tr = self.broker.session.span_tracer
        if tr is not None and self._elect_span is not None:
            # We lost (or never finished) the election this span
            # tracked; the announced winner closes it.
            tr.finish(self._elect_span, winner=p["rank"],
                      version=p["version"])
            self._elect_span = None
        if self.master is not None:
            # Double promotion resolved by event total order: the later
            # announcement wins everywhere; demote to a plain slave.
            self._set_master(None)
            self.broker._frec(self.broker.sim.now, "kvs_demote",
                              p["rank"], p["version"], None)
        self._apply_root(p["version"], p["rootref"])
        self.broker.after(0.0, self._recover_after_down)

    # ------------------------------------------------------------------
    # subtree ownership delegation
    # ------------------------------------------------------------------
    def _partition_ops(self, ops: list, objs: dict
                       ) -> tuple[list, dict, dict]:
        """Split a commit into its root-namespace part and one group
        per delegated prefix: ``(root_ops, root_objs, {pfx: (ops,
        objs)})``.  Objects follow the ops that reference them (an
        object referenced from both sides travels with both)."""
        root_ops: list = []
        by_pfx: dict[str, list] = {}
        for op in ops:
            pfx = self._owner_prefix(op[0])
            if pfx is None:
                root_ops.append(op)
            else:
                by_pfx.setdefault(pfx, []).append(op)
        if not by_pfx:
            return ops, objs, {}
        used: set = set()
        groups: dict[str, tuple] = {}
        for pfx in sorted(by_pfx):
            g_ops = by_pfx[pfx]
            g_objs = {s: objs[s] for _k, s in g_ops
                      if s is not None and s in objs}
            used.update(g_objs)
            groups[pfx] = (g_ops, g_objs)
        root_shas = {s for _k, s in root_ops if s is not None}
        root_objs = {s: o for s, o in objs.items()
                     if s in root_shas or s not in used}
        return root_ops, root_objs, groups

    def _local_response(self, payload: dict, error: Optional[str] = None,
                        code: Optional[str] = None) -> Message:
        """A synthesized response for work applied (or refused) locally
        (keeps locally- and remotely-routed parts on one callback
        shape)."""
        return Message(topic="kvs.flush", mtype=MessageType.RESPONSE,
                       payload=payload, src_rank=self.rank, error=error,
                       errnum=code,
                       err_rank=self.rank if error is not None else -1)

    def _owner_flush(self, pfx: str, ops: list, objs: dict,
                     done: Callable[[Message], None],
                     ctx: Optional[RequestContext] = None,
                     span: Optional[tuple] = None) -> None:
        """Route a delegated-namespace commit part to its owner.

        Hosted here: apply on the local delegate master.  Owned
        elsewhere: ship hop-by-hop toward the owner.  No longer
        delegated (recall raced the write): fall back root-ward — the
        master re-partitions against its own table, so a stale hop
        table self-corrects.  Claimed by this rank but not yet adopted
        (delegation in flight): fail retryably.
        """
        dm = self.delegates.get(pfx)
        if dm is not None:
            def apply():
                dm.ingest_objects(objs)
                res = dm.commit(ops)
                self._cv_owner_commits.inc((self.name, self.rank))
                ns = f"kvs/{pfx}"
                seen = self._pfx_seen.get(pfx, -1)
                if res.version > seen:
                    self._pfx_seen[pfx] = res.version
                san = self._san()
                if san is not None:
                    san.kvs_root_applied(ns, self.rank, res.version)
                    san.kvs_commit_ack(ns, self.rank, res.version)
                self._publish_setroot(res.version, res.root_sha,
                                      span=span, pfx=pfx)
                done(self._local_response({"version": res.version,
                                           "rootref": res.root_sha,
                                           "pfx": pfx}))
            self._master_run(len(ops), apply)
            return
        owner = self.owners.get(pfx)
        if owner is None:
            # Recalled (or never delegated as far as this rank knows):
            # the keys belong to the root namespace again.
            self._root_part_commit(ops, objs, done, ctx=ctx, span=span)
            return
        if owner == self.rank:
            done(self._local_response(
                {}, f"delegation of {pfx!r} in flight", EIO))
            return
        payload = {"ops": ops, "objs": objs, "pfx": pfx, "dst": owner}
        self._hop_rpc(owner, "kvs.flush", payload, done,
                      ctx=ctx, span=span,
                      payload_size=self._payload_size_with_objs(payload,
                                                                objs))

    def _root_part_commit(self, ops: list, objs: dict,
                          done: Callable[[Message], None],
                          ctx: Optional[RequestContext] = None,
                          span: Optional[tuple] = None) -> None:
        """Commit root-namespace ``ops`` — on the master when it is here,
        else as a flush forwarded toward it (the one place that decides).
        ``done`` gets a flush response, its root already applied here."""
        if self.master is not None:
            self._master_commit(ops, objs, done, span=span)
            return

        def relay(resp: Message) -> None:
            if resp.error is None:
                # Read-your-writes: apply the commit's root before answering.
                self._apply_root(resp.payload["version"],
                                 resp.payload["rootref"])
            done(resp)

        self._send_objs("kvs.flush", {"ops": ops}, objs, relay,
                        ctx=ctx, span=span)

    def _commit_partitioned(self, msg: Message, sender: Any,
                            root_ops: list, root_objs: dict,
                            groups: dict) -> None:
        """Run a partitioned commit: the root part plus one delegated
        part per owner, all concurrently; answer ``msg`` once every
        part settled.  ``sender`` is set when this rank fronts the
        client (``None`` when relaying a downstream flush): the fronting
        rank re-stashes the whole batch on a retryable failure so the
        client's retry re-flushes it, and on success unpins it and
        notifies the consistency sanitizers (the origin acks)."""
        state: dict[str, Any] = {"left": 1 + len(groups), "error": None,
                                 "version": self.version,
                                 "rootref": self.root_sha,
                                 "subroots": {}}
        all_ops = list(root_ops)
        all_objs = dict(root_objs)
        for pfx in sorted(groups):
            all_ops.extend(groups[pfx][0])
            all_objs.update(groups[pfx][1])

        def finish() -> None:
            resp = state["error"]
            if resp is None:
                out = {"version": state["version"],
                       "rootref": state["rootref"]}
                if state["subroots"]:
                    out["subroots"] = state["subroots"]
                resp = self._local_response(out)
            if sender is not None:
                self._finish_commit(msg, resp, sender, all_ops, all_objs)
            else:
                self._relay_response(msg, resp)

        def part_done(pfx: Optional[str], resp: Message) -> None:
            state["left"] -= 1
            if resp.error is not None:
                if state["error"] is None:
                    state["error"] = resp
            elif pfx is None:
                state["version"] = resp.payload["version"]
                state["rootref"] = resp.payload["rootref"]
            else:
                state["subroots"][pfx] = [resp.payload["version"],
                                          resp.payload["rootref"]]
            if state["left"] == 0:
                finish()

        if root_ops or root_objs or not groups:
            self._root_part_commit(root_ops, root_objs,
                                   lambda resp: part_done(None, resp),
                                   ctx=msg.ctx, span=msg.span)
        else:
            # Wholly-delegated batch: don't serialize an empty commit
            # through the root master (that serialization is what
            # delegation exists to relieve); answer with the root
            # state as locally applied.
            state["left"] -= 1
        for pfx in sorted(groups):
            g_ops, g_objs = groups[pfx]
            self._owner_flush(pfx, g_ops, g_objs,
                              lambda resp, p=pfx: part_done(p, resp),
                              ctx=msg.ctx, span=msg.span)

    # -- fence completions with delegated parts -------------------------
    def _fence_part_flush(self, name: str, pfx: str, ops: list,
                          objs: dict) -> None:
        def shipped(resp: Message) -> None:
            if (resp.error is not None
                    and resp.errnum in RETRYABLE_CODES):
                self.broker.after(
                    5e-3,
                    lambda: self._fence_part_flush(name, pfx, ops, objs))
                return
            self._fence_part_done(name)
        self._owner_flush(pfx, ops, objs, shipped)

    def _fence_part_done(self, name: str) -> None:
        left = self._fence_deleg_pending.get(name, 0) - 1
        if left > 0:
            self._fence_deleg_pending[name] = left
            return
        self._fence_deleg_pending.pop(name, None)
        fire = self._fence_deferred.pop(name, None)
        if fire is not None:
            fire()

    def _fence_finish_when_shipped(self, name: Optional[str],
                                   finish: Callable[[], None]) -> None:
        """``name`` is ``None`` for a plain commit: nothing to wait for."""
        if self._fence_deleg_pending.get(name):
            self._fence_deferred[name] = finish
        else:
            finish()

    # -- delegation / recall RPCs ---------------------------------------
    @request_handler(required={"pfx": str, "rank": int})
    def req_delegate(self, msg: Message) -> None:
        """Delegate the subtree at ``pfx`` to broker ``rank``: snapshot
        it out of the root tree, ship it to the new owner, bind a link
        object in its place, and announce the new ownership on the
        (totally ordered) event plane."""
        if self.master is None:
            self._toward_master_cb(
                "kvs.delegate", dict(msg.payload),
                lambda resp: self._relay_response(msg, resp),
                ctx=msg.ctx, span=msg.span)
            return
        pfx = msg.payload["pfx"]
        rank = msg.payload["rank"]
        try:
            split_key(pfx)
        except KvsPathError as exc:
            self.respond(msg, error=str(exc), code=exc.code)
            return
        held = self._owner_prefix(pfx)
        if held is not None:
            # Under a delegated prefix the root tree holds only the link:
            # a nested owner would be seeded empty and shadow the outer
            # owner's keys.
            self.respond(msg, error=f"{pfx!r} is already delegated"
                         + ("" if held == pfx else f" (under {held!r})"),
                         code=EEXIST)
            return
        inner = min((p for p in self.owners if p.startswith(pfx + ".")),
                    default=None)
        if inner is not None:
            # The mirror case: the snapshot of ``pfx`` would carry the
            # inner link, and recalling the inner prefix would then
            # overwrite the outer link in the root tree.
            self.respond(msg, error=f"{inner!r} under {pfx!r} is already "
                         "delegated", code=EEXIST)
            return
        if not 0 <= rank < self.broker.session.size:
            self.respond(msg, error=f"rank {rank!r} is not in the session",
                         code=EINVAL)
            return
        if rank == self.master_rank:
            self.respond(msg, error="cannot delegate to the master rank",
                         code=EINVAL)
            return
        sub = self.master.subtree_ref(pfx)
        if sub is None:
            # Delegating a namespace that does not exist yet (the
            # common job.<id> case): the owner starts from empty.
            sub = EMPTY_DIR_SHA
        # Claim the prefix immediately: writes arriving between the
        # snapshot below and the delegation event must not land in the
        # root tree (they would be overwritten by the link object) —
        # they bounce retryably until the owner has adopted.
        self.owners[pfx] = rank
        self._hop_rpc(rank, "kvs.adopt",
                      {"dst": rank, "pfx": pfx,
                       "ver": self.master.version, "rootref": sub,
                       "objs": self.master.reachable_objects(sub)},
                      lambda resp: self._delegate_adopted(msg, pfx, rank,
                                                          resp),
                      ctx=msg.ctx, span=msg.span)

    def _delegate_adopted(self, msg: Message, pfx: str, rank: int,
                          resp: Message) -> None:
        if resp.error is not None:
            if self.owners.get(pfx) == rank:
                del self.owners[pfx]
            self._relay_response(msg, resp)
            return
        link = make_link_obj(pfx, rank)
        sha, _size = digest_and_size(link)

        def linked(ack: Message) -> None:
            self.broker.publish("kvs.delegation",
                                {"pfx": pfx, "rank": rank})
            self.respond(msg, {"pfx": pfx, "rank": rank,
                               "version": ack.payload["version"]})

        self._master_commit([[pfx, sha]], {sha: link}, linked,
                            span=msg.span)

    @request_handler(required={"pfx": str, "ver": int, "rootref": str,
                               "objs": dict})
    def req_adopt(self, msg: Message) -> None:
        """New-owner side of delegation: seed a delegate master from
        the shipped subtree snapshot (idempotent on retry)."""
        if self._forwarded(msg):
            return
        p = msg.payload
        pfx = p["pfx"]
        dm = self.delegates.get(pfx)
        if dm is None:
            dm = KvsMaster(start_version=p["ver"])
            for sha in sorted(p["objs"]):
                dm.store.put_with_sha(sha, p["objs"][sha])
            dm.commit([(pfx, p["rootref"])])
            self.delegates[pfx] = dm
            self.owners[pfx] = self.rank
        self.respond(msg, {"pfx": pfx, "version": dm.version})

    @request_handler(required={"pfx": str})
    def req_recall(self, msg: Message) -> None:
        """Recall a delegated subtree: pull the owner's state back,
        graft it over the link object, and retire the ownership entry
        on the event plane."""
        if self.master is None:
            self._toward_master_cb(
                "kvs.recall", dict(msg.payload),
                lambda resp: self._relay_response(msg, resp),
                ctx=msg.ctx, span=msg.span)
            return
        pfx = msg.payload["pfx"]
        rank = self.owners.get(pfx)
        if rank is None:
            self.respond(msg, error=f"{pfx!r} is not delegated",
                         code=ENOENT)
            return
        self._hop_rpc(rank, "kvs.release",
                      {"dst": rank, "pfx": pfx},
                      lambda resp: self._recall_released(msg, pfx, rank,
                                                         resp),
                      ctx=msg.ctx, span=msg.span)

    @request_handler(required={"pfx": str})
    def req_release(self, msg: Message) -> None:
        """Owner side of recall: stop mastering the namespace and hand
        the subtree state back.  The ownership entry stays until the
        delegation event clears it everywhere at once — in-flight
        writes keep bouncing retryably instead of looping root-ward."""
        if self._forwarded(msg):
            return
        pfx = msg.payload["pfx"]
        dm = self.delegates.pop(pfx, None)
        if dm is None:
            self.respond(msg, error=f"not the owner of {pfx!r}",
                         code=ENOENT)
            return
        sub = dm.subtree_ref(pfx)
        if sub is None:
            sub = EMPTY_DIR_SHA
        self.respond(msg, {"pfx": pfx, "ver": dm.version,
                           "rootref": sub,
                           "objs": dm.reachable_objects(sub)})

    def _recall_released(self, msg: Message, pfx: str, rank: int,
                         resp: Message) -> None:
        if resp.error is not None:
            self._relay_response(msg, resp)
            return
        p = resp.payload

        def grafted(ack: Message) -> None:
            self.broker.publish("kvs.delegation",
                                {"pfx": pfx, "rank": None})
            self.respond(msg, {"pfx": pfx,
                               "version": ack.payload["version"]})

        self._master_commit([[pfx, p["rootref"]]], p["objs"], grafted,
                            span=msg.span)

    def req_owners(self, msg: Message) -> None:
        """The ownership table as this rank sees it (introspection)."""
        self.respond(msg, {"owners": dict(sorted(self.owners.items())),
                           "hosted": sorted(self.delegates)})

    def _on_delegation_event(self, msg: Message) -> None:
        p = msg.payload
        if p.get("rank") is None:
            self.owners.pop(p["pfx"], None)
        else:
            self.owners[p["pfx"]] = p["rank"]

    # -- delegated reads ------------------------------------------------
    def _serve_delegated_get(self, msg: Message, pfx: str,
                             dm: KvsMaster) -> None:
        """Answer a get from the local delegate master (authoritative
        for the namespace, so no fault-in chain is needed)."""
        san = self._san()
        if san is not None:
            san.kvs_read(f"kvs/{pfx}", self.rank, dm.version)
        try:
            sha, obj = resolve_stored(
                dm.store, dm.root_sha, split_key(msg.payload["key"]),
                msg.payload.get("ref", False))
        except KvsPathError as exc:
            self.respond(msg, error=str(exc), code=exc.code)
            return
        self._answer_read(msg, sha, obj, pver=dm.version)

    def _remote_get(self, msg: Message, pfx: str, owner: int) -> None:
        self._hop_rpc(owner, "kvs.get", {**msg.payload, "dst": owner},
                      lambda resp: self._finish_remote_get(msg, pfx,
                                                           resp),
                      ctx=msg.ctx, span=msg.span)

    def _finish_remote_get(self, msg: Message, pfx: str,
                           resp: Message) -> None:
        pver = resp.payload.get("pver") if resp.error is None else None
        if pver is not None and pver >= self._pfx_seen.get(pfx, -1):
            # Only a version at or above everything this rank already
            # observed for the prefix counts as *the* read the client
            # sees; a response overtaken in flight would otherwise be
            # reported as a monotonicity regression it is not.
            self._pfx_seen[pfx] = pver
            san = self._san()
            if san is not None:
                san.kvs_read(f"kvs/{pfx}", self.rank, pver)
        self._relay_response(msg, resp)

    def _delegated_get(self, msg: Message, pfx: str, owner: int) -> None:
        """A read under the delegated ``pfx`` (named by the ownership
        table, or by a link object a walk landed on): answered by its
        delegate master when that is here, else sent to ``owner``."""
        dm = self.delegates.get(pfx)
        if dm is not None:
            self._serve_delegated_get(msg, pfx, dm)
        elif owner != self.rank:
            self._remote_get(msg, pfx, owner)
        else:
            self.respond(msg, error=f"delegation of {pfx!r} in flight",
                         code=EIO, err_rank=self.rank)

    # ------------------------------------------------------------------
    # local object plumbing
    # ------------------------------------------------------------------
    def _set_master(self, master: Optional[KvsMaster]) -> None:
        """Install (or drop) the root-namespace master at this rank.  Its
        store then holds the rank's objects; a slave's cache does."""
        self.master = master
        self._objs = master.store if master is not None else self.cache
        self._obj_get = self._objs.get
        self._obj_put = self._objs.put_with_sha

    def _payload_size_with_objs(self, payload: dict, objs: dict) -> int:
        """Canonical size of ``payload`` (which maps ``"objs"`` to
        ``objs``) computed *compositionally*: serialize the frame once
        with the objs dict emptied, then add each object's
        content-addressed size plus its fixed per-entry framing (a
        quoted 40-hex sha, a colon, and an inter-entry comma).  Canonical-JSON sizes are additive,
        so this equals ``canonical_size(payload)`` exactly — asserted
        by the equivalence tests — while touching each stored object's
        bytes zero times.
        """
        total = canonical_size({**payload, "objs": {}})
        for sha, obj in objs.items():
            total += 43 + size_by_sha(sha, obj)
        if objs:
            total += len(objs) - 1
        return total

    def _unpin(self, objs: dict) -> None:
        """An acknowledged commit or fence made ``objs`` clean: let
        disuse expiry reclaim them (puts pin them in the slave cache)."""
        for sha in objs:
            self.cache.unpin(sha)

    def _dirty_for(self, sender: Any) -> _Dirty:
        d = self._dirty.get(sender)
        if d is None:
            d = self._dirty[sender] = _Dirty()
        return d

    # ------------------------------------------------------------------
    # put / unlink (write-back)
    # ------------------------------------------------------------------
    @request_handler(required={"key": str, "value": None})
    def req_put(self, msg: Message) -> None:
        key = msg.payload["key"]
        try:
            split_key(key)
        except KvsPathError as exc:
            self.respond(msg, error=str(exc), code=exc.code)
            return
        if not self.check_field(msg, "sender", int, str):
            return
        sha = self.local_put(msg.payload.get("sender", 0), key,
                             msg.payload["value"])
        self.respond(msg, {"sha": sha})

    @request_handler(required={"key": str})
    def req_unlink(self, msg: Message) -> None:
        key = msg.payload["key"]
        if not self.check_field(msg, "sender", int, str):
            return
        sender = msg.payload.get("sender", 0)
        self._dirty_for(sender).ops.append([key, None])
        self.respond(msg, {})

    # ------------------------------------------------------------------
    # in-broker API (other comms modules writing through the KVS,
    # e.g. wexec stdout capture and resvc resource enumeration)
    # ------------------------------------------------------------------
    def local_put(self, sender: Any, key: str, value: Any) -> str:
        """Write-back a value into ``sender``'s dirty buffer (clients come
        through ``req_put``); returns the value object's SHA1."""
        obj = make_val_obj(value)
        sha = digest_and_size(obj)[0]
        self._obj_put(sha, obj)
        self.cache.pin(sha)     # dirty until a commit or fence acks it
        d = self._dirty_for(sender)
        d.ops.append([key, sha])
        d.objs[sha] = obj
        return sha

    def local_commit(self, sender: Any,
                     callback: Optional[Callable[[int, str], None]] = None
                     ) -> None:
        """Commit an in-broker service's dirty data; ``callback(version,
        rootref)`` fires after the new root is applied locally."""
        d = self._dirty.pop(sender, None)
        ops = d.ops if d else []
        objs = d.objs if d else {}
        if self.owners:
            # In-broker services write the root namespace; should their
            # keys be delegated anyway, ship those parts to the owner
            # (fire-and-forget — the callback tracks the root part).
            ops, objs, groups = self._partition_ops(ops, objs)
            for pfx in sorted(groups):
                g_ops, g_objs = groups[pfx]
                self._owner_flush(pfx, g_ops, g_objs, lambda resp: None)

        def done(resp: Message) -> None:
            if resp.error is None:
                self._unpin(objs)
                if callback is not None:
                    callback(resp.payload["version"],
                             resp.payload["rootref"])
            elif resp.errnum in RETRYABLE_CODES and (ops or objs):
                # Transient upstream failure: the data must not vanish
                # with the lost flush.  Re-stash and retry once the
                # overlay has had a heartbeat to heal.
                self._restash(sender, ops, objs)
                self.broker.after(5e-3,
                                  lambda: self.local_commit(sender, callback))

        self._root_part_commit(ops, objs, done)

    # ------------------------------------------------------------------
    # commit (single-client flush)
    # ------------------------------------------------------------------
    def req_commit(self, msg: Message) -> None:
        if not self.check_field(msg, "sender", int, str):
            return
        sender = msg.payload.get("sender", 0)
        d = self._dirty.pop(sender, None)
        ops = d.ops if d else []
        objs = d.objs if d else {}
        if self.owners:
            root_ops, root_objs, groups = self._partition_ops(ops, objs)
            if groups:
                self._commit_partitioned(msg, sender, root_ops, root_objs,
                                         groups)
                return
        self._root_part_commit(
            ops, objs,
            lambda resp: self._finish_commit(msg, resp, sender, ops, objs),
            ctx=msg.ctx, span=msg.span)

    def _restash(self, sender: Any, ops: list, objs: dict) -> None:
        """Return a failed flush's data to the dirty cache (ahead of any
        newer writes, preserving order) so the next commit re-sends it."""
        d = self._dirty_for(sender)
        d.ops[:0] = ops
        for sha, obj in objs.items():
            d.objs.setdefault(sha, obj)

    def _finish_commit(self, msg: Message, resp: Message, sender: Any,
                       ops: list, objs: dict) -> None:
        if resp.error is not None:
            # A transiently failed flush took the popped dirty data with
            # it; re-stash so the client's retry commit re-flushes it
            # through the healed route instead of committing nothing.
            if resp.errnum in RETRYABLE_CODES and (ops or objs):
                self._restash(sender, ops, objs)
        else:
            self._unpin(objs)
            san = self._san()
            if san is not None:
                san.kvs_commit_ack(self.name, self.rank,
                                   resp.payload["version"])
                for pfx in sorted(resp.payload.get("subroots", {})):
                    # Parts committed on delegate masters upstream: raise
                    # this rank's write floor per delegated namespace too.
                    san.kvs_commit_ack(f"kvs/{pfx}", self.rank,
                                       resp.payload["subroots"][pfx][0])
        self._relay_response(msg, resp)

    def _uplink_peer(self) -> Optional[int]:
        """The next-hop rank of the master-ward path (what
        :meth:`_toward_master_cb` sends to), or ``None`` without one."""
        if not self._failed_over:
            return self.broker.parent
        return self._live_hop_toward(self.master_rank)

    def _send_objs(self, topic: str, payload: dict, objs: dict, callback,
                   *, ctx: Optional[RequestContext] = None,
                   span: Optional[tuple] = None) -> None:
        """Send ``payload`` carrying ``objs`` in full toward the master,
        sized compositionally from the cached object sizes."""
        full = {**payload, "objs": objs}
        self._toward_master_cb(
            topic, full, callback, ctx=ctx, span=span,
            payload_size=self._payload_size_with_objs(full, objs))

    def interned_bytes_saved(self) -> int:
        """Total bytes of work the interning machinery avoided at this
        rank (all kinds — see the counter's init comment)."""
        return sum(self._cv_interned.data.values())

    @request_handler(required={"ops": list, "objs": dict})
    def req_flush(self, msg: Message) -> None:
        """A commit passing through from a downstream slave."""
        ops = msg.payload["ops"]
        objs = msg.payload["objs"]
        pfx = msg.payload.get("pfx")
        if pfx is not None:
            # Delegated-namespace commit part en route to its owner
            # (the ``pfx``/``dst`` tags only ever appear once a
            # delegation exists — plain flushes are byte-identical).
            self._owner_flush(pfx, ops, objs,
                              lambda resp: self._relay_response(msg, resp),
                              ctx=msg.ctx, span=msg.span)
            return
        if self.master is None:
            # Slaves cache what passes through; the master ingests on commit.
            for sha, obj in objs.items():
                self._obj_put(sha, obj)
        elif self.owners:
            root_ops, root_objs, groups = self._partition_ops(ops, objs)
            if groups:
                # Delegated keys reached the root (stale table
                # downstream): never fold them into the root tree —
                # that would overwrite the link objects.  Re-split
                # and ship each part to its owner.
                self._commit_partitioned(msg, None, root_ops, root_objs,
                                         groups)
                return
        self._root_part_commit(
            ops, objs, lambda resp: self._relay_response(msg, resp),
            ctx=msg.ctx, span=msg.span)

    # ------------------------------------------------------------------
    # fence (collective commit with tree reduction)
    # ------------------------------------------------------------------
    def _fence_gen(self, name: str) -> int:
        """The root version the last fence of ``name`` known here
        committed at (0: none): the generation of its next round."""
        done = self._completed.get(name)
        return 0 if done is None else done[0]

    def _fence_for(self, msg: Message,
                   gen: Optional[int] = None) -> Optional[_FenceAgg]:
        """The aggregate ``msg`` (``fence``/``fencedata``) contributes
        to, its tracing context moved under ``msg``'s.  A contribution
        of another generation ``gen`` than the round open here is
        dropped: a finished round's late re-emission, or one whose
        completion this rank has not learnt yet (the pull brings it,
        and the sender re-emits).  A client's entry (``gen`` None)
        joins the open round.  ``nprocs`` comes from the client: one
        contradicting the pending aggregate's is refused with
        ``EINVAL`` and leaves it alone."""
        name, nprocs = msg.payload["name"], msg.payload["nprocs"]
        agg = self._fences.get(name)
        mine = self._fence_gen(name) if agg is None else agg.gen
        if gen is not None and gen != mine:
            self.respond(msg, {})
            return None
        if agg is None:
            agg = self._fences[name] = _FenceAgg(name, nprocs, mine)
        elif agg.nprocs != nprocs:
            error = (f"fence {name!r}: inconsistent nprocs "
                     f"({agg.nprocs} vs {nprocs})")
            self.respond(msg, error=error, code=EINVAL)
            if msg.ctx is None:
                # A child's one-way contribution: nobody reads that
                # answer, so the refusal travels down.
                self._fence_abort(msg.src_rank, name, mine, error, EINVAL,
                                  self.rank)
            return None
        if msg.span is not None:
            agg.span = msg.span
        return agg

    def _fence_objs(self, agg: _FenceAgg, objs: dict) -> None:
        """Union ``objs`` into ``agg``; a slave counts the new ones."""
        slave = self.master is None
        for sha, obj in objs.items():
            if slave and sha not in agg.objs:
                agg.objs_size += 44 + size_by_sha(sha, obj)
            agg.objs[sha] = obj

    @request_handler(required={"name": str, "nprocs": int})
    def req_fence(self, msg: Message) -> None:
        """A local client entering a fence (carries its dirty state)."""
        if not self.check_field(msg, "sender", int, str):
            return
        agg = self._fence_for(msg)
        if agg is None:
            return
        sender = msg.payload.get("sender", 0)
        d = self._dirty.pop(sender, None)
        agg.held.append(msg)
        ops, objs = (d.ops, d.objs) if d is not None else ([], {})
        count, mine = agg.parts.get(self.rank, (0, []))
        agg.put(self.rank, count + 1, mine + ops)
        agg.pending(self.rank, sum(map(canonical_size, ops)))
        self._fence_objs(agg, objs)
        self.broker._frec(self.broker.sim.now, "kvs_fence_enter",
                          agg.name, sender, agg.total)
        self._maybe_flush_fence(agg)

    @request_handler(required={"name": str, "nprocs": int, "shares": dict,
                               "objs": dict})
    def req_fencedata(self, msg: Message) -> None:
        """A child subtree's fence contribution (:meth:`_flush_fence`):
        ``shares`` maps an origin rank to its whole ``[count, ops]``
        share, or to ``[count, ops, base]``, the ops added since the
        sender sent it at count ``base``; ``gen`` is the round's
        generation (omitted while 0)."""
        p = msg.payload
        if not (self.check_field(msg, "gen", int)
                and self._shares_ok(msg)):
            return
        agg = self._fence_for(msg, p.get("gen", 0))
        if agg is None:
            return
        if msg.src_rank != self.rank:
            agg.senders.add(msg.src_rank)
        slave = self.master is None
        for origin, share in p["shares"].items():
            self._fold_share(agg, int(origin), share, slave)
        for sha, obj in p["objs"].items():
            self._obj_put(sha, obj)
        self._fence_objs(agg, p["objs"])
        self.respond(msg, {})
        self._maybe_flush_fence(agg)

    def _shares_ok(self, msg: Message) -> bool:
        ok = all(o.isdigit() and type(s) is list and len(s) in (2, 3)
                 and type(s[1]) is list
                 and all(type(n) is int for n in s[::2])
                 for o, s in msg.payload["shares"].items())
        if not ok:
            self.respond(msg, error="fencedata: payload field 'shares' "
                         "must map origin ranks to [count, ops] or "
                         "[count, ops, base]", code=EINVAL)
        return ok

    def _fold_share(self, agg: _FenceAgg, origin: int, share: list,
                    slave: bool) -> None:
        """Merge one origin's share.  A delta that does not extend the
        count held here follows a lost one: the next re-emission
        repairs both."""
        count, ops = share[0], share[1]
        base = share[2] if len(share) > 2 else 0
        have, mine = agg.parts.get(origin, (0, []))
        if count <= have or base not in (0, have):
            return
        # A whole share extends the prefix held here.
        tail = ops[len(mine):] if mine and not base else ops
        agg.put(origin, count, mine + tail if mine else ops)
        if slave:
            size = interned_size(tail)
            if size is not None:
                # The sender interned what it sent with its exact size,
                # and in-process delivery shares the object: one probe
                # instead of an O(len) re-walk at every tree level.
                self._cv_interned.inc((self.name, "sizing"), size)
            else:
                size = canonical_size(tail)
            agg.pending(origin, size - 1 - len(tail) if tail else 0)

    def _maybe_flush_fence(self, agg: _FenceAgg) -> None:
        """The one flush rule.  The master rank commits once every
        participant is in.  A slave flushes when its whole subtree has
        contributed, when a message's worth is pending and the uplink
        is idle — or after the aggregation window, so fences joined by
        only a subset of the subtree's clients (e.g. two jobs sharing a
        session) still make progress."""
        if self.master is not None:
            self._maybe_complete(agg)
            return
        expected = self.broker.session.subtree_procs(self.rank)
        # Fast path (whole session fencing): the root-ward aggregation
        # matches the subtree counts.
        complete = agg.total >= min(expected, agg.nprocs)
        # Self-clocked relay: a message's worth leaves as soon as the
        # NIC has nothing queued, else the rule is looked at again when
        # it frees.
        batched = (agg.ops_size + agg.objs_size
                   >= _fence_batch(self.broker.network.params))
        now = self.broker.sim.now
        if complete or (batched and self.broker.nic_free_at() <= now):
            self._flush_fence(agg)
        elif batched:
            if not agg.wake_armed:
                agg.wake_armed = True
                self.broker.after(self.broker.nic_free_at() - now,
                                  lambda: self._fence_wake(agg))
        elif not agg.timer_armed:
            agg.timer_armed = True
            self.broker.after(_FENCE_WINDOW,
                              lambda: self._fence_timer(agg))

    def _fence_timer(self, agg: _FenceAgg) -> None:
        # The timer belongs to *this* aggregate: a fence name is
        # reusable, and a later fence of the name arms its own.
        if self._fences.get(agg.name) is not agg:
            return
        agg.timer_armed = False
        self._flush_fence(agg)

    def _fence_wake(self, agg: _FenceAgg) -> None:
        # Owned by its aggregate like the window timer; the NIC may
        # have taken other sends since, so the rule is re-evaluated.
        if self._fences.get(agg.name) is not agg:
            return
        agg.wake_armed = False
        self._maybe_flush_fence(agg)

    def _flush_fence(self, agg: _FenceAgg, full: bool = False) -> None:
        """Send up what this rank holds of ``agg`` and has not sent: the
        origins whose count rose, each with its ops since (and the count
        they extend), and the objects since.  ``full`` (a re-emission)
        or a new uplink sends every share whole and every object, which
        repairs whatever was lost on the way.

        A contribution is one-way: the fence's ``setroot`` acknowledges
        it.  Once the aggregate has been re-emitted — it outlived a
        heartbeat pulse, or its uplink changed — every message it sends
        is a request the parent answers at once (``acked``), so a lost
        repair is repaired within a retransmission timeout rather than
        a pulse.  A fence that completes between pulses, as every fence
        of a session without the heartbeat does, sends none."""
        hop = self._uplink_peer()
        if hop is None:
            return
        if full or (agg.uplink is not None and hop != agg.uplink):
            agg.acked = True
            agg.sent, agg.nobjs_sent, agg.pend, agg.ops_size = {}, 0, {}, 0
            for origin, (_count, ops) in agg.parts.items():
                agg.pending(origin, canonical_size(ops) - 1 - len(ops)
                            if ops else 0)
            agg.objs_size = sum(44 + size_by_sha(sha, obj)
                                for sha, obj in agg.objs.items())
        if not agg.pend:
            return
        shares = {}
        for origin, size in agg.pend.items():
            count, ops = agg.parts[origin]
            base, nsent = agg.sent.get(origin, (0, 0))
            delta = ops[nsent:] if nsent else ops
            if delta:
                # Frozen from here on: intern it with its exact size, so
                # this hop's frame sizing — and the parent's fold-in —
                # are each one probe instead of an O(len) re-walk.
                total = 1 + len(delta) + size
                intern_fragment(delta, total)
                if interned_size(delta) is not None:
                    self._cv_interned.inc((self.name, "sizing"), total)
            shares[str(origin)] = ([count, delta, base] if base
                                   else [count, delta])
            agg.sent[origin] = (count, len(ops))
        objs = dict(islice(agg.objs.items(), agg.nobjs_sent, None))
        payload = {"name": agg.name, "nprocs": agg.nprocs, "shares": shares,
                   **({"gen": agg.gen} if agg.gen else {})}
        # Canonical sizes are additive: the frame plus the per-object
        # counter, less the comma the last entry does not have.
        size = (canonical_size({**payload, "objs": {}})
                + max(agg.objs_size - 1, 0))
        agg.pend, agg.ops_size, agg.objs_size = {}, 0, 0
        agg.nobjs_sent, agg.uplink = len(agg.objs), hop
        payload["objs"] = objs
        if agg.acked:
            self.broker.rpc_hop_cb(hop, "kvs.fencedata", payload,
                                   lambda resp: self._fence_sent(agg, resp),
                                   span=agg.span, payload_size=size)
        else:
            self.broker.send_hop(hop, "kvs.fencedata", payload,
                                 span=agg.span, payload_size=size)

    def _fence_sent(self, agg: _FenceAgg, resp: Message) -> None:
        # Only a refusal matters: anything lost is re-emitted.
        if resp.errnum == EINVAL and self._fences.get(agg.name) is agg:
            self._refuse_fence(agg, resp.error, resp.errnum, resp.err_rank)

    def _reemit_fences(self) -> None:
        """A slave re-sends each pending fence whole (no share counts
        twice); the master rank re-checks completion."""
        for agg in list(self._fences.values()):
            if self.master is not None:
                self._maybe_complete(agg)
            else:
                self._flush_fence(agg, full=True)

    def _refuse_fence(self, agg: _FenceAgg, error: str, code: str,
                      err_rank: int) -> None:
        """Drop ``agg`` and fail what it held: this rank's client
        requests and, by ``kvs.fenceabort``, the children whose
        contributions it folded in — each holds its own clients'
        requests and tells its own senders in turn."""
        if self._fences.get(agg.name) is agg:
            del self._fences[agg.name]
        held, agg.held = agg.held, []
        for msg in held:
            self.respond(msg, error=error, code=code, err_rank=err_rank)
        senders, agg.senders = agg.senders, set()
        for child in sorted(senders):
            self._fence_abort(child, agg.name, agg.gen, error, code,
                              err_rank)

    def _fence_abort(self, rank: int, name: str, gen: int, error: str,
                     code: str, err_rank: int) -> None:
        self.broker.send_hop(rank, "kvs.fenceabort", {
            "name": name, "error": error, "errnum": code, "rank": err_rank,
            **({"gen": gen} if gen else {})})

    @request_handler(required={"name": str, "error": str, "errnum": str,
                               "rank": int})
    def req_fenceabort(self, msg: Message) -> None:
        """The parent refused a fence aggregate this rank contributed
        to: fail the fence here too (and below).  A lost one is sent
        again when the next re-emission meets the same refusal."""
        p = msg.payload
        if not self.check_field(msg, "gen", int):
            return
        agg = self._fences.get(p["name"])
        if agg is not None and agg.gen == p.get("gen", 0):
            self._refuse_fence(agg, p["error"], p["errnum"], p["rank"])

    def _maybe_complete(self, agg: _FenceAgg) -> None:
        """At the master rank: commit ``agg`` once the share counts sum
        to ``nprocs`` (they are disjoint per origin, so the sum is exact
        however often shares were re-sent).  A round this rank has seen
        commit already (before a failover) is only released."""
        if agg.gen < self._fence_gen(agg.name):
            self._release_fence(agg)
        elif agg.total >= agg.nprocs:
            self._complete_fence(agg)

    def _complete_fence(self, agg: _FenceAgg) -> None:
        """Every participant of ``agg`` is in: ship the delegated parts
        to their owners and commit the rest, ops in origin-rank order,
        as one master commit, which publishes and releases the waiters
        only once every part is acknowledged — a fence ack implies the
        whole collective write is readable."""
        if agg.completing:
            return
        agg.completing = True
        ops = [op for origin in sorted(agg.parts)
               for op in agg.parts[origin][1]]
        objs = agg.objs
        if self.owners:
            ops, objs, groups = self._partition_ops(ops, objs)
            if groups:
                self._fence_deleg_pending[agg.name] = len(groups)
            for pfx in sorted(groups):
                self._fence_part_flush(agg.name, pfx, *groups[pfx])
        self._master_commit(
            ops, objs,
            lambda resp: (self._release_fence(agg) if resp.error is None
                          else self._refuse_fence(agg, resp.error,
                                                  resp.errnum,
                                                  resp.err_rank)),
            span=agg.span, fence=agg.name)

    def _release_fence(self, agg: _FenceAgg) -> None:
        """Answer the fence requests held at this rank (once: the
        master's own setroot delivery and its commit finisher both land
        here) and let their now-clean objects expire again."""
        self._fences.pop(agg.name, None)
        held, agg.held = agg.held, []
        self._unpin(sha for _key, sha in agg.parts.get(self.rank,
                                                       (0, []))[1])
        now = self.broker.sim.now
        san = self._san()
        if san is not None and held:
            san.kvs_commit_ack(self.name, self.rank, self.version)
        for msg in held:
            t0 = getattr(msg, "_obs_t0", None)
            if t0 is not None:
                self._h_fence_wait.observe(now - t0)
            self.respond(msg, {"version": self.version,
                               "rootref": self.root_sha})

    def _record_completed(self, name: str, version: int,
                          root_sha: str) -> None:
        """Record a completed fence.  Only a newer completion of the
        name takes the next tag and writes a flight record: re-learning
        a known one, or an older round's, is a no-op."""
        cur = self._completed.get(name)
        if cur is not None and cur[0] >= version:
            return
        self.broker._frec(self.broker.sim.now, "kvs_commit",
                          name, version, None)
        self._completed_seq += 1
        self._completed[name] = (version, root_sha, self._completed_seq)
        self._completed.move_to_end(name)
        while len(self._completed) > _COMPLETED_CAP:
            self._completed.popitem(last=False)

    def waiter_census(self) -> dict:
        """Who is stuck on what at this rank — the KVS section of a
        post-mortem bundle (see ``repro.obs.postmortem``)."""
        return {
            "version": self.version,
            "master_rank": self.master_rank,
            "is_master": self.master is not None,
            "master_down": self._master_down,
            "standby_version": (self._standby.version
                                if self._standby is not None else None),
            "repl_acks": dict(sorted(self._repl_acks.items())),
            "version_waiters": sorted(w for w, _m in
                                      self._version_waiters),
            "fences": {name: {"nprocs": agg.nprocs,
                              "gen": agg.gen,
                              "total_seen": agg.total,
                              "held": len(agg.held)}
                       for name, agg in sorted(self._fences.items())},
            "repl_waiters": sorted(v for v, _fn in self._repl_waiters),
            "fence_deferred": sorted(self._fence_deferred),
            "dirty_clients": len(self._dirty),
            "dirty_ops": sum(len(d.ops) for d in self._dirty.values()),
            "loads": self._loads.census("shas", str),
            "walks": self._walks.census("keys", itemgetter(0)),
        }

    # ------------------------------------------------------------------
    # failure recovery (chaos tentpole)
    # ------------------------------------------------------------------
    def _on_live_down(self, msg: Message) -> None:
        """A broker died (only a hardened session sees this: ``live``
        needs the heartbeat).  Mark a dead master, drop the corpse's
        parked walks and defer the state recovery one tick: this module
        subscribed to ``live.down`` before the live module did, so the
        broker has not re-wired around the corpse yet when we run.
        """
        dead = msg.payload.get("rank")
        if dead == self.master_rank and self.master is None:
            # The root-namespace master died.  Standbys elect; everyone
            # else marks the master down (writes bounce retryably until
            # the ``newmaster`` event re-routes them).
            self._master_down = True
            self._master_down_at = self.broker.sim.now
            if self._standby is not None:
                self.broker.after(0.0, self._start_election)
        elif self.master is not None and self.replicas:
            # A standby may have died: recompute the ack watermark so
            # commits waiting on it are not stranded.
            self.broker.after(0.0, self._drain_repl_waiters)
        # A corpse's parked reads can neither open nor close a gate.
        self._walks.parked.pop(dead, None)
        self._loads.parked.pop(dead, None)
        self.broker.after(0.0, self._recover_after_down)

    def _recover_after_down(self) -> None:
        """Re-establish KVS invariants on the healed overlay.

        - Every rank (the master included) re-emits its pending fences
          whole over the healed route.  Shares merge idempotently, so
          a share that died with the corpse is restored and one that
          got through is not counted twice: there is nothing to reset.
        - Slaves pull their (possibly new) parent's root version and
          completed-fence digest: setroot events flooding through the
          corpse at the moment of death are lost for its whole former
          subtree, and a lost fence-completion notice would strand held
          waiters forever.
        """
        self._reemit_fences()
        if self.master is None:
            self._resync_root()

    def _resync_root(self) -> None:
        """Pull what the parent has and this rank lacks: a newer root
        and the fences completed since ``_sync_tag`` (one level of
        anti-entropy; chained pulses converge the whole tree)."""
        now = self.broker.sim.now
        if self.master is not None or (self.broker.parent is None
                                       and not self._failed_over):
            return
        if self._sync_busy and now - self._sync_at < 0.25:
            # A sync is outstanding — but never trust the busy flag
            # forever: if the request or its response was lost after
            # the broker gave up retransmitting, the callback never
            # fires, and a stuck flag would silence gossip for good.
            return
        self._sync_busy = True
        self._sync_at = now

        def done(resp: Message) -> None:
            self._sync_busy = False
            if resp.error is None:
                self._ingest_sync(resp.payload)

        self._toward_master_cb("kvs.getroot",
                               {"since": [self.version, *self._sync_tag]},
                               done)

    def _ingest_sync(self, p: dict) -> None:
        if p.get("version", 0) > self.version:
            self._local_setroot_event(p["version"], p["rootref"])
        if "ctag" in p:
            self._sync_tag = p["ctag"]
        # Entries are never re-sent once the tag covers them: this
        # rank's version is already at least their ``ver``, so an
        # aggregate created since could not be released by them.
        for name in sorted(p.get("completed", {})):
            ver, root = p["completed"][name]
            self._record_completed(name, ver, root)
            agg = self._fences.get(name)
            if agg is not None and ver > agg.gen:
                # We missed this fence's completion notice: replay it.
                self._local_setroot_event(ver, root, fence=name)

    def _local_setroot_event(self, version: int, root_sha: str,
                             fence: Optional[str] = None) -> None:
        """Synthesize a local ``setroot`` delivery for state learned by
        resync instead of the event plane, so every local subscriber —
        including client watchers — observes the same transition it
        would have seen had the flooded event not been lost."""
        payload: dict[str, Any] = {"version": version, "rootref": root_sha}
        if fence is not None:
            payload["fence"] = fence
        self.broker._deliver_event(
            Message(topic="kvs.setroot", mtype=MessageType.EVENT,
                    payload=payload, src_rank=self.rank))

    # ------------------------------------------------------------------
    # root-version protocol
    # ------------------------------------------------------------------
    def _publish_setroot(self, version: int, root_sha: str,
                         fence: Optional[str] = None,
                         span: Optional[tuple] = None,
                         pfx: Optional[str] = None) -> None:
        payload = {"version": version, "rootref": root_sha}
        if fence is not None:
            payload["fence"] = fence
        if pfx is not None:
            # A delegated namespace's root moved (published by its
            # owner, observability + span-tree completeness); never
            # present in a single-master session.
            payload["pfx"] = pfx
        self.broker.publish("kvs.setroot", payload, span=span)

    def _apply_root(self, version: int, root_sha: str) -> None:
        """Monotonic root switch: never apply an older version."""
        if version <= self.version:
            return
        self.broker._frec(self.broker.sim.now, "kvs_apply_root",
                          version, self.version, None)
        self.version = version
        self.root_sha = root_sha
        san = self._san()
        if san is not None:
            san.kvs_root_applied(self.name, self.rank, version)
        still = []
        for wanted, held in self._version_waiters:
            if self.version >= wanted:
                self.respond(held, {"version": self.version})
            else:
                still.append((wanted, held))
        self._version_waiters = still

    def _on_setroot_event(self, msg: Message) -> None:
        p = msg.payload
        if "pfx" in p:
            # Delegated-namespace root move: does not touch the root
            # namespace's version/ref and releases nothing here.
            return
        self._apply_root(p["version"], p["rootref"])
        fence = p.get("fence")
        if fence is not None:
            self._record_completed(fence, p["version"], p["rootref"])
            agg = self._fences.get(fence)
            if agg is not None and p["version"] > agg.gen:
                # The master completed the fence; the generation keeps
                # a replayed notice of an earlier round of the name
                # (KAP re-fences every iteration) from releasing it.
                self._release_fence(agg)

    def req_getversion(self, msg: Message) -> None:
        san = self._san()
        if san is not None:
            san.kvs_read(self.name, self.rank, self.version)
        self.respond(msg, {"version": self.version})

    @request_handler(required={"version": int})
    def req_waitversion(self, msg: Message) -> None:
        wanted = msg.payload["version"]
        if self.version >= wanted:
            san = self._san()
            if san is not None:
                san.kvs_read(self.name, self.rank, self.version)
            self.respond(msg, {"version": self.version})
        else:
            self._version_waiters.append((wanted, msg))

    def req_getroot(self, msg: Message) -> None:
        san = self._san()
        if san is not None:
            san.kvs_read(self.name, self.rank, self.version)
        since = msg.payload.get("since")
        if since is None:
            self.respond(msg, {"version": self.version,
                               "rootref": self.root_sha})
            return
        if (type(since) is not list or len(since) not in (1, 3)
                or set(map(type, since)) != {int}):
            self.respond(msg, error="since is not [version] or "
                         "[version, rank, seq]", code=EINVAL)
            return
        # Anti-entropy pull from a child holding ``[version, rank,
        # seq]`` (``[version]`` before its first digest): answer only
        # what it lacks — ``{}`` when nothing changed.  A tag naming
        # another rank (re-parented, failed over) gets the whole map.
        out: dict[str, Any] = {}
        if self.version > since[0]:
            out["version"] = self.version
            out["rootref"] = self.root_sha
        rank = self.broker.rank
        tag = [rank, self._completed_seq]
        if since[1:] != tag:
            after = since[2] if since[1:2] == [rank] else 0
            out["ctag"] = tag
            out["completed"] = {n: [v, r] for n, (v, r, t)
                                in self._completed.items() if t > after}
        self.respond(msg, out)

    # ------------------------------------------------------------------
    # get (with fault-in through the slave-cache chain)
    # ------------------------------------------------------------------
    @request_handler(required={"key": str})
    def req_get(self, msg: Message) -> None:
        if self.owners:
            if self._forwarded(msg):
                return
            pfx = self._owner_prefix(msg.payload["key"])
            if pfx is not None:
                self._delegated_get(msg, pfx, self.owners[pfx])
                return
        self._get_proc(msg)

    def _get_proc(self, msg: Message, allow_walk: bool = True) -> None:
        """Resolve the read ``msg`` from the current root."""
        self._get_step(msg, allow_walk, self.root_sha, None, 0, None)

    def _get_step(self, msg: Message, allow_walk: bool, root: str,
                  sha: Optional[str], i: int, obj: Optional[dict]) -> None:
        """Resolve ``msg`` from ``root``, or resume at depth ``i`` with
        ``obj``, which a fault brought in as ``sha`` (``None``: lost).  A
        miss walks remotely or resumes here from the fault's event."""
        key = msg.payload["key"]
        want_ref = msg.payload.get("ref", False)
        try:
            if sha is not None and obj is None:
                raise KvsPathError(f"object {sha} lost in transit", code=EIO)
            kind, i, sha, obj = resolve(self._obj_get, sha or root,
                                        split_key(key), want_ref, i, obj)
        except KvsPathError as exc:
            self.respond(msg, error=str(exc), code=exc.code)
            return
        if kind == "miss":
            if self.dedup and allow_walk and self.master is None:
                # Walk-path cold read: ship the walk to the data instead
                # of faulting whole directories down the tree (the
                # Figure 4a effect).
                self._walk_remote(msg, key, want_ref, root)
            else:
                self._fault(sha, ctx=msg.ctx, span=msg.span).add_callback(
                    lambda ev: self._get_step(msg, allow_walk, root, sha,
                                              i, ev._value))
        elif kind == "link":
            # Ownership link: the rest of the walk belongs to a
            # delegated namespace (this rank's owner table was stale, or
            # the key was read through the root tree).
            tgt = link_of(obj)
            self._delegated_get(msg, tgt["prefix"], tgt["rank"])
        else:
            self._answer_read(msg, sha, obj)

    def _answer_read(self, msg: Message, sha: str, obj: Optional[dict],
                     **extra: Any) -> None:
        """Answer the read ``msg`` resolved to: the reference ``sha``
        (``obj`` is ``None``), a directory listing or a value; ``extra``
        rides along (a delegate master's ``pver``)."""
        payload = _read_payload(sha, obj)
        size = None
        if "value" in payload and not extra:
            # {"value": X} is 10 framing bytes + size(X); the value
            # object {"v": X} is 6 + size(X), so the response costs the
            # object's content-addressed size + 4 — no per-get
            # re-serialization of the value.
            size = 4 + size_by_sha(sha, obj)
        payload.update(extra)
        self.respond(msg, payload, payload_size=size)

    def _fetch(self, sha: str, fn: Callable[[Optional[dict]], None],
               ctx: Optional[RequestContext],
               span: Optional[tuple]) -> None:
        """Bring ``sha`` here from the master-ward neighbour and run
        ``fn(obj)`` (``None`` on failure), through this rank's load
        combiner."""
        self._load_expire()
        self._load_enqueue(sha, fn, ctx, span)
        self._load_pump()

    def _load_enqueue(self, sha: str, fn: Callable[[Optional[dict]], None],
                      ctx: Optional[RequestContext],
                      span: Optional[tuple]) -> None:
        """Add ``fn`` to the waiters of ``sha``: a SHA in flight is
        joined, not sent again; a queue started here rides ``ctx`` and
        ``span``, its first waiter's."""
        loads = self._loads
        if not loads.q:
            loads.q.ctx = (ctx, span)
        waiters = loads.waiters(sha)
        if not waiters:
            self.cache.stats.faults += 1
        waiters.append(fn)

    def _load_pump(self) -> None:
        """Send the queued SHAs as one ``kvs.load`` when the combiner's
        gate allows — the walk's gate.  Unlike a walk batch the request
        keeps its first waiter's context: no deadline of its own, and
        ``failfast`` only when that context has no deadline for
        :meth:`_load_expire` to drop it by (DESIGN.md "Read path")."""
        loads = self._loads
        if not loads.may_send(self.broker.children):
            return
        batch = loads.take()
        loads.out.append(batch)
        shas = list(batch)
        # {"shas":["<id>",...]}: 10 framing bytes, and per id its
        # length, two quotes and a comma — exact for ids with no escapes.
        size = (10 + sum(map(len, shas)) + 3 * len(shas)
                if all(s.isascii() and s.isalnum() for s in shas) else None)
        ctx, span = batch.ctx
        if ctx is not None and ctx.deadline is None:
            ctx = ctx._replace(failfast=True)
        self._toward_master_cb("kvs.load", {"shas": shas},
                               lambda resp: self._load_done(batch, resp),
                               ctx=ctx, span=span, payload_size=size)

    def _load_done(self, batch: _Batch, resp: Message) -> None:
        if not self._loads.settle(batch):
            return          # dropped past its deadline, waiters answered
        objs = (resp.payload["objs"] if resp.error is None
                else [None] * len(batch))
        for (sha, waiters), obj in zip(batch.items(), objs):
            if obj is not None:
                self._obj_put(sha, obj)
            for fn in waiters:
                fn(obj)
        # Answer, then pump: the children just answered are unparked, so
        # the queue waits for their next miss instead of leaving beside
        # the other batch (DESIGN.md "Fault-in on the same combiner").
        self._load_pump()

    def _load_expire(self) -> None:
        """Drop every load batch whose deadline has passed.  A load with
        a deadline is not failfast, so a hop may have given up on one
        quietly; left in flight it would be joined by every later read
        of its SHAs and hold a combiner slot for good.  Its waiters get
        ``None``, the retryable EIO of an object lost in transit."""
        now = self.broker.sim.now
        for batch in [b for b in self._loads.out
                      if b.ctx[0] is not None and b.ctx[0].expired(now)]:
            self._loads.settle(batch)
            for waiters in batch.values():
                for fn in waiters:
                    fn(None)

    def _fault(self, sha: str, ctx: Optional[RequestContext] = None,
               span: Optional[tuple] = None):
        """:meth:`_fetch` as an event yielding the object (or None)."""
        ev = self.broker.sim.event(name=("fault:%s", sha[:8]))
        self._fetch(sha, ev.succeed, ctx, span)
        return ev

    @request_handler(required={"shas": list})
    def req_load(self, msg: Message) -> None:
        """A downstream slave faulting objects in through us: answer
        what this rank holds, join what is in flight, queue the rest and
        pump once.  The reply ``{"objs": [obj | null, ...]}`` has one
        entry per SHA; ``null`` (the master does not know it, or its
        load failed here) fails only the reads waiting for it."""
        shas = msg.payload["shas"]
        if not all(type(s) is str for s in shas):
            self.respond(msg, error="'shas' must be a list of strings",
                         code=EINVAL)
            return
        objs = [self._obj_get(s) for s in shas]
        todo = ([] if self.master is not None
                else [i for i, obj in enumerate(objs) if obj is None])
        if not todo:
            self._answer_load(msg, shas, objs)
            return
        child = msg.src_rank
        left = len(todo)

        def fill(i: int, obj: Optional[dict]) -> None:
            nonlocal left
            objs[i] = obj
            left -= 1
            if not left:
                self._loads.unpark(child)
                self._answer_load(msg, shas, objs)

        self._load_expire()
        self._loads.park(child)
        for i in todo:
            self._load_enqueue(shas[i], partial(fill, i), msg.ctx, msg.span)
        self._load_pump()

    def _answer_load(self, msg: Message, shas: list, objs: list) -> None:
        # {"objs":[X,...]}: 10 framing bytes, one per entry (its comma,
        # or the closing bracket) and each object's size, which its sha
        # already keys — no re-serialization of a possibly huge
        # directory object per fault-in hop; a null is 4 bytes.
        size = (10 + len(objs) + sum(
            4 if obj is None else size_by_sha(sha, obj)
            for sha, obj in zip(shas, objs)) if objs else None)
        self.respond(msg, {"objs": objs}, payload_size=size)

    # ------------------------------------------------------------------
    # combined remote walks (``dedup=True``)
    # ------------------------------------------------------------------
    def _walk_remote(self, msg: Message, key: str, want_ref: bool,
                     root: str) -> None:
        """Resolve a cold read by shipping the *walk* master-ward instead
        of faulting the path's directories into our cache (Figure 4a)."""
        self._cv_walks.inc((self.name,))

        def done(_tag, r: dict) -> None:
            if "error" in r:
                self.respond(msg, error=r["error"], code=r["errnum"],
                             err_rank=r["rank"])
            elif "link" in r:
                # The walk crossed into a delegated namespace; the
                # legacy fault-in path re-routes through link objects.
                self._get_proc(msg, False)
            else:
                self.respond(msg, r)

        self._walk_enqueue(msg, {None: (key, root, want_ref)}, done)

    def _walk_enqueue(self, msg: Message, items: dict, fn) -> None:
        """Queue ``items`` (``tag -> (key, root, want_ref)``) on this
        rank's walk combiner; ``fn(tag, result)`` gets each per-item
        result.  An item already in flight is joined, not re-sent; the
        rest queue, deduplicated, and leave as one list when
        :meth:`_walk_pump` next may send (self-clocked, like fault-in
        loads): one request per child, not per key."""
        for tag, item in items.items():
            self._walks.waiters(item).append((msg, fn, tag))
        self._walk_pump()

    def _walk_pump(self) -> None:
        """Send the queue as one ``kvs.walk`` batch when the combiner's
        gate allows."""
        walks = self._walks
        if not walks.may_send(self.broker.children):
            return
        queued = walks.take()
        batch = _Batch()
        late = {"error": "deadline expired in the walk queue",
                "errnum": ETIMEDOUT, "rank": self.rank}
        for item, waiters in queued.items():
            for w in waiters:
                if w[0].ctx.expired(self.broker.sim.now):
                    w[1](w[2], late)    # its client gave up already
                else:
                    batch.setdefault(item, []).append(w)
        if not batch:
            return
        walks.out.append(batch)
        msgs = [w[0] for waiters in batch.values() for w in waiters]
        # Rides the first waiter's context (as a load batch does) under
        # the earliest deadline of its items — and failfast, so a hop
        # giving up on it cannot strand the reads queued here.
        ends = [m.ctx.deadline for m in msgs if m.ctx.deadline is not None]
        # Items name their root snapshot by index into one roots table.
        roots: dict = {}
        items = [[key, roots.setdefault(root, len(roots)), ref]
                 for key, root, ref in batch]
        self._toward_master_cb(
            "kvs.walk", {"roots": list(roots), "items": items},
            lambda resp: self._walk_done(batch, resp),
            ctx=RequestContext(msgs[0].ctx.reqid, msgs[0].ctx.origin_rank,
                               min(ends, default=None), True),
            span=msgs[0].span)

    def _walk_done(self, batch: _Batch, resp: Message) -> None:
        self._walks.settle(batch)
        self._walk_pump()
        if resp.error is not None:
            # Every waiter of a failed batch gets its (retryable) code.
            results = [{"error": resp.error, "errnum": resp.errnum,
                        "rank": resp.err_rank}] * len(batch)
        else:
            results = resp.payload["res"]
        for waiters, r in zip(batch.values(), results):
            for _msg, fn, tag in waiters:
                fn(tag, r)

    def _walk_local(self, key: str, root: str,
                    want_ref: bool) -> Optional[dict]:
        """One ``kvs.walk`` item resolved from what this rank holds,
        under the requester's root snapshot; ``None`` when an object on
        the path is not here."""
        try:
            kind, _i, sha, obj = resolve(self._obj_get, root,
                                         split_key(key), want_ref)
        except KvsPathError as exc:
            return {"error": str(exc), "errnum": exc.code,
                    "rank": self.rank}
        if kind == "miss":
            return None
        if kind == "link":
            return {"link": True}
        return _read_payload(sha, obj)

    @request_handler(required={"roots": list, "items": list})
    def req_walk(self, msg: Message) -> None:
        """Resolve a downstream rank's ``[key, root_index, want_ref]``
        walks (``root_index`` into the batch's ``roots`` table),
        answering ``{"res": [...]}`` with one result per item (value /
        ref / dir / link / error+errnum+rank) so one item's ENOENT does
        not fail its neighbours; unresolved items join our combiner."""
        roots = msg.payload["roots"]
        try:
            items = []
            for k, i, f in msg.payload["items"]:
                if not (type(k) is str and type(i) is int
                        and 0 <= i < len(roots) and type(roots[i]) is str):
                    raise ValueError
                items.append((k, roots[i], bool(f)))
        except (TypeError, ValueError):
            self.respond(msg, error="items must be [key, root_index, ref] "
                         "triples indexing a list of root strings",
                         code=EINVAL)
            return
        res = [self._walk_local(*item) for item in items]
        todo = {i: items[i] for i, r in enumerate(res) if r is None}
        if self.master is not None:
            for i in todo:
                res[i] = {"error": f"unknown object under {items[i][0]!r}",
                          "errnum": ENOENT, "rank": self.rank}
            todo = {}
        if not todo:
            self.respond(msg, {"res": res})
            return

        child = msg.src_rank
        self._walks.park(child)

        def fill(i: int, r: dict) -> None:
            res[i] = r
            del todo[i]
            if not todo:
                self._walks.unpark(child)
                self.respond(msg, {"res": res})

        self._walk_enqueue(msg, todo, fill)

    # ------------------------------------------------------------------
    # debugging / administration
    # ------------------------------------------------------------------
    def req_stats(self, msg: Message) -> None:
        self.respond(msg, {
            "rank": self.rank,
            "version": self.version,
            "cache": self.cache.stats.as_dict(),
            "cached_objects": len(self.cache),
            "is_master": self.master is not None,
        })

    def req_dropcache(self, msg: Message) -> None:
        """Evict every unpinned cache entry (admin/testing hook)."""
        n = self.cache.expire(-1.0)
        self.respond(msg, {"evicted": n})
