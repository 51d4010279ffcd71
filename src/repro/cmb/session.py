"""Comms sessions: the per-job overlay network.

A :class:`CommsSession` corresponds to the paper's *comms session*: the
set of CMB daemons (one per node of a Flux job's allocation) wired into
the tree/event/ring planes, loaded with comms modules, and serving
local clients.  Sessions are created per Flux instance; a child job's
session is bootstrapped over a subset of its parent's nodes (see
:mod:`repro.core.instance`).
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Iterable, Optional, Sequence, Type

from ..obs import SpanTracer, merge_snapshots
from ..sim.cluster import Cluster
from .api import Handle
from .broker import Broker
from .module import CommsModule
from .topology import RingTopology, TreeTopology

__all__ = ["CommsSession", "ModuleSpec"]

_session_counter = iter(range(1, 1 << 31))


class ModuleSpec:
    """How to instantiate one comms module across the session.

    Parameters
    ----------
    factory:
        The :class:`CommsModule` subclass (or factory callable).
    max_depth:
        Load the module only at tree depth <= ``max_depth``.  The paper:
        "a comms module may be loaded at a configurable tree depth to
        tune its level of distribution or to conserve node resources".
        ``None`` loads everywhere.
    config:
        Keyword configuration forwarded to the module constructor.
    """

    def __init__(self, factory: Type[CommsModule] | Callable[..., CommsModule],
                 *, max_depth: Optional[int] = None, **config):
        self.factory = factory
        self.max_depth = max_depth
        self.config = config


class CommsSession:
    """The overlay network and daemons for one Flux instance.

    Parameters
    ----------
    cluster:
        The simulated cluster supplying nodes/network/clock.
    node_ids:
        Which cluster nodes participate; session rank ``i`` runs on
        ``node_ids[i]`` and rank 0 is the session root.
    topology:
        Shape of the tree plane (default: binary, as in the paper's
        experiments).
    modules:
        Comms modules to load at wire-up.
    """

    def __init__(self, cluster: Cluster,
                 node_ids: Optional[Sequence[int]] = None,
                 topology: Optional[TreeTopology] = None,
                 modules: Iterable[ModuleSpec] = ()):
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.node_ids = list(node_ids if node_ids is not None
                             else range(len(cluster)))
        if not self.node_ids:
            raise ValueError("session needs at least one node")
        self.size = len(self.node_ids)
        self.topology = topology or TreeTopology(self.size, arity=2)
        if self.topology.size != self.size:
            raise ValueError(
                f"topology size {self.topology.size} != session size "
                f"{self.size}")
        self.ring = RingTopology(self.size)
        #: Fabric port for this session's brokers: every Flux job's
        #: overlay network gets its own endpoints on the shared NICs.
        self.port_key = f"cmb{next(_session_counter)}"
        self.parent_map = self.topology.parent_map()
        self.local_procs: dict[int, int] = {r: 0 for r in range(self.size)}
        #: True once the heartbeat (``hb``) is loaded: the session then
        #: runs the hardened protocol — retransmission timers,
        #: anti-entropy gossip and fence re-emission — because only
        #: there can ``live`` declare a rank dead.  Without it the
        #: paper's loss-free protocol runs.  Derived by
        #: :meth:`load_module`, never configured.
        self.hardened = False
        #: Terminal client RpcErrors noted by Handle retry loops —
        #: bounded bookkeeping the post-mortem dump triggers consult.
        self.terminal_errors: list = []
        self._next_client_id = 1
        #: Client ids of the handles holding no collective registration:
        #: tool handles (``collective=False``) and closed ones.
        self._unregistered: set[int] = set()
        self._subtree_procs_cache: Optional[list[int]] = None
        #: Distributed-tracing collector (``None`` = tracing off, the
        #: default; see :meth:`enable_tracing`).  Pure bookkeeping —
        #: it schedules no events and draws no randomness, so enabling
        #: it cannot change simulated behavior.
        self.span_tracer: Optional[SpanTracer] = None
        #: Runtime sanitizer hub (``None`` = sanitizers off, the
        #: default; see :meth:`enable_sanitizers`).  Like the span
        #: tracer, a pure observer: enabling it cannot change a run.
        self.sanitizers = None
        self.brokers: list[Broker] = [Broker(self, r)
                                      for r in range(self.size)]
        self._started = False
        for spec in modules:
            self.load_module(spec)

    # ------------------------------------------------------------------
    # wiring helpers used by brokers
    # ------------------------------------------------------------------
    def node_of_rank(self, rank: int) -> int:
        """Cluster node hosting session rank ``rank``."""
        return self.node_ids[rank]

    def parent_of(self, rank: int) -> Optional[int]:
        """Original-topology parent (used to compute heal targets)."""
        return self.topology.parent(rank)

    def children_of(self, rank: int) -> list[int]:
        """Original-topology children of ``rank``."""
        return self.topology.children(rank)

    def nearest_live_ancestor(self, rank: int) -> Optional[int]:
        """First *live* broker on ``rank``'s original ancestor chain —
        where orphans re-attach when ``rank`` dies (walks past earlier
        corpses, so cascading failures still heal toward the root)."""
        p = self.parent_of(rank)
        while p is not None and not self.brokers[p].alive:
            p = self.parent_of(p)
        return p

    def acting_root(self) -> Optional[int]:
        """The deterministic acting overlay root: the minimum live
        rank.  When the static root (or a rank's whole ancestor chain)
        is dead, every live broker heals toward this rank — it takes
        over the event-plane flood point and the heartbeat."""
        for broker in self.brokers:
            if broker.alive:
                return broker.rank
        return None

    # ------------------------------------------------------------------
    # module management
    # ------------------------------------------------------------------
    def load_module(self, spec: ModuleSpec) -> None:
        """Instantiate ``spec`` on every eligible broker."""
        for broker in self.brokers:
            depth = self.topology.depth(broker.rank)
            if spec.max_depth is not None and depth > spec.max_depth:
                continue
            mod = spec.factory(broker, **spec.config)
            broker.load_module(mod)
            self.hardened = self.hardened or mod.name == "hb"
            if self._started:
                mod.start()

    def module_at(self, rank: int, name: str) -> CommsModule:
        """The instance of module ``name`` loaded at ``rank``."""
        return self.brokers[rank].modules[name]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CommsSession":
        """Start every broker's inbox loop and module set."""
        if self._started:
            raise RuntimeError("session already started")
        self._started = True
        for broker in self.brokers:
            broker.start()
        return self

    def stop(self) -> None:
        """Tear the session down."""
        if self.sanitizers is not None:
            self.sanitizers.finish()
        if self.span_tracer is not None:
            self.span_tracer.close_open()
        for broker in self.brokers:
            if broker.alive:
                broker.stop()
        self._started = False

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_tracing(self) -> SpanTracer:
        """Turn on distributed tracing; returns the session tracer.

        Every client API call then becomes one trace whose spans cover
        each forwarding hop, module dispatch, retry, and KVS protocol
        step.  Export with
        ``session.span_tracer.to_chrome_trace()`` (Perfetto-loadable).
        Every trace is kept.
        """
        if self.span_tracer is None:
            self.span_tracer = SpanTracer(lambda: self.sim.now)
        return self.span_tracer

    def enable_sanitizers(self):
        """Turn on the runtime sanitizer suite; returns the
        :class:`~repro.analysis.sanitizers.SanitizerSet`.

        Installs the hub on this session (KVS consistency hooks) and
        on the shared network fabric (FIFO link checking), and enables
        tracing so the span-forest checker validates the causal forest
        at ``finish()`` time.
        Sanitizers are pure observers — they schedule no events and
        draw no randomness — so the run stays event-identical.
        """
        if self.sanitizers is None:
            from ..analysis.sanitizers import SanitizerSet
            self.sanitizers = SanitizerSet(lambda: self.sim.now)
            self.network.sanitizers = self.sanitizers
            self.sanitizers.attach_tracer(self.enable_tracing())
        return self.sanitizers

    def metrics_aggregate(self) -> dict:
        """Session-wide aggregate of every broker's registry, merged
        in-process (the ``stats`` comms module computes the same thing
        over the wire via tree reduction)."""
        return merge_snapshots(b.metrics_snapshot()
                               for b in self.brokers)

    def write_stats(self, path: str, meta: dict, ranks: Iterable[int],
                    extra: Optional[dict] = None) -> None:
        """Write the stats document (``python -m repro.stats``) to
        ``path``: ``meta``, the ``aggregate`` of every broker's
        registry, the ``per_rank`` snapshots of ``ranks`` and any
        ``extra`` top-level sections.

        Each registry is snapshotted once and the aggregate merges
        those snapshots.  The document is ``json.dumps(doc,
        sort_keys=True)`` with compact separators, which the C encoder
        writes; ``per_rank``, the bulk, is encoded one snapshot at a
        time, so the whole text is never in memory at once.
        """
        snaps = [b.metrics_snapshot() for b in self.brokers]
        doc = {"meta": meta, "aggregate": merge_snapshots(snaps),
               "per_rank": None, **(extra or {})}
        dumps = functools.partial(json.dumps, sort_keys=True,
                                  separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            for i, key in enumerate(sorted(doc)):
                fh.write(("," if i else "{") + dumps(key) + ":")
                if key != "per_rank":
                    fh.write(dumps(doc[key]))
                    continue
                fh.write("[")
                for j, r in enumerate(ranks):
                    fh.write(("," if j else "") + dumps(snaps[r]))
                fh.write("]")
            fh.write("}\n")

    def message_counts(self) -> dict[tuple[str, str, str], int]:
        """Session-wide message counts keyed by (module, plane, kind).

        Kinds are ``request`` / ``response`` / ``error`` / ``event`` /
        ``ring``; planes are the fabric planes plus the ``ipc`` and
        ``local`` pseudo-planes (client deliveries / in-broker
        dispatches).  Each forwarding hop counts once — the per-hop
        accounting behind the benchmarks' message-count breakdowns.
        """
        totals: dict[tuple[str, str, str], int] = {}
        for broker in self.brokers:
            for key, n in broker.msg_counts.items():
                totals[key] = totals.get(key, 0) + n
        return totals

    def fail_rank(self, rank: int) -> None:
        """Kill the broker at ``rank`` along with its node (fault
        injection for the self-healing / liveness tests)."""
        broker = self.brokers[rank]
        broker.alive = False
        self.cluster.fail_node(self.node_of_rank(rank))
        # Physical teardown: processes hosted by the dead node (wexec
        # tasks, ...) die with it.
        for mod in broker.modules.values():
            mod.node_failed()
        self._subtree_procs_cache = None

    def heal_around(self, dead_rank: int) -> None:
        """Rewire all live brokers around ``dead_rank`` at once — a test
        hook.  In a run, each broker's ``live`` module calls its own
        :meth:`Broker.handle_peer_down` when ``live.down`` reaches it."""
        for broker in self.brokers:
            if broker.alive and broker.rank != dead_rank:
                broker.handle_peer_down(dead_rank)
        self._subtree_procs_cache = None

    def revive_rank(self, rank: int) -> None:
        """Bring a previously failed broker back into the session.

        Restores the node on the fabric, re-wires the revived broker
        from the original topology (parent = nearest live original
        ancestor; children = its live original children), and publishes
        ``live.reattach`` so every peer prunes the rank from its
        dead-set and hands back adopted orphans.
        """
        broker = self.brokers[rank]
        if broker.alive:
            return
        self.cluster.revive_node(self.node_of_rank(rank))
        broker.alive = True
        broker.parent = self.nearest_live_ancestor(rank) \
            if self.parent_of(rank) is not None else None
        broker.children = [c for c in self.children_of(rank)
                           if self.brokers[c].alive]
        self._subtree_procs_cache = None
        broker.publish("live.reattach", {"rank": rank})

    def note_terminal_error(self, topic: str, code: str,
                            rank: int, detail: str = "") -> None:
        """Record a terminal (non-retryable / retries-exhausted) client
        RpcError.  Pure bookkeeping: a bounded list append, consulted
        by the post-mortem dump triggers — never by the protocol."""
        if len(self.terminal_errors) < 256:
            self.terminal_errors.append(
                {"t": self.sim.now, "topic": topic, "code": code,
                 "rank": rank, "detail": detail[:200]})

    def flight_snapshots(self) -> dict[int, dict]:
        """Every broker's flight-recorder snapshot, keyed by rank
        (dead brokers included — their rings hold the era that killed
        them, which is exactly what a post-mortem wants)."""
        return {b.rank: b.flight.snapshot() for b in self.brokers}

    def plane_bytes(self) -> dict[str, int]:
        """Session-wide payload bytes sent per fabric plane."""
        totals: dict[str, int] = {}
        for broker in self.brokers:
            for plane, n in broker.plane_bytes.items():
                totals[plane] = totals.get(plane, 0) + n
        return totals

    def flight_peak(self) -> int:
        """Highest flight-ring occupancy across brokers."""
        return max((b.flight.peak for b in self.brokers), default=0)

    def level_bytes(self) -> dict[int, int]:
        """Payload bytes sent per *tree level*: all planes, grouped by
        the sending broker's static topology depth (root = 0).  The
        per-level view shows where aggregation payloads concentrate —
        the Figure 3 pathology is a byte bulge at the low depths."""
        totals: dict[int, int] = {}
        for broker in self.brokers:
            d = self.topology.depth(broker.rank)
            n = sum(broker.plane_bytes.values())
            if n:
                totals[d] = totals.get(d, 0) + n
        return totals

    def retry_stats(self) -> dict[str, int]:
        """Aggregate chaos-recovery counters across every broker:
        retransmissions, reroutes around dead hops, replay-cache hits,
        and duplicates parked behind in-flight originals."""
        out = {"retransmits": 0, "reroutes": 0, "replay_hits": 0,
               "dups_parked": 0}
        for broker in self.brokers:
            out["retransmits"] += broker.retransmits
            out["reroutes"] += broker.reroutes
            out["replay_hits"] += broker.replay_hits
            out["dups_parked"] += broker.dups_parked
        return out

    # ------------------------------------------------------------------
    # client service
    # ------------------------------------------------------------------
    def connect(self, rank: int, *, collective: bool = True) -> Handle:
        """Create a client :class:`Handle` bound to the broker at
        ``rank`` (the paper's UNIX-domain-socket client transport).

        ``collective=True`` registers the client as a participant in
        collective operations (fence), updating the per-subtree
        process counts the KVS reduction logic relies on.
        """
        handle = Handle(self, rank)
        if collective:
            self.local_procs[rank] += 1
            self.brokers[rank].clients += 1
            self._subtree_procs_cache = None
        else:
            self._unregistered.add(handle.client_id)
        return handle

    def disconnect(self, handle: Handle) -> None:
        """Release ``handle``: a collective one leaves the process
        counts once; a tool handle, or a second close, changes nothing."""
        if handle.client_id in self._unregistered:
            return
        self._unregistered.add(handle.client_id)
        self.local_procs[handle.rank] -= 1
        self.brokers[handle.rank].clients -= 1
        self._subtree_procs_cache = None

    def subtree_procs(self, rank: int) -> int:
        """Number of collective participants in the subtree at ``rank``."""
        if self._subtree_procs_cache is None:
            counts = [0] * self.size
            # Ranks in reverse order: children have higher indices in a
            # heap-layout tree, so one backward pass accumulates bottom-up.
            for r in range(self.size - 1, -1, -1):
                counts[r] = self.local_procs[r] + sum(
                    counts[c] for c in self.brokers[r].children
                    if self.brokers[c].alive)
            self._subtree_procs_cache = counts
        return self._subtree_procs_cache[rank]

    @property
    def total_procs(self) -> int:
        """Total registered collective participants."""
        return sum(self.local_procs.values())
