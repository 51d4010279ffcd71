"""The Comms Message Broker (CMB) daemon.

One :class:`Broker` runs on every node of a comms session, wired into
three overlay planes exactly as in the paper:

- **tree plane** — request/response RPCs.  Requests route *upstream*
  toward the root until they hit the first broker with a matching
  comms module loaded; responses retrace the same hops in reverse.
  Module instances along the path may intercept and aggregate
  (reduce) requests instead of forwarding them verbatim.
- **event plane** — pub-sub.  A publish travels up to the root, which
  floods it down the tree; FIFO links give every broker the same
  total event order, which the KVS root-version protocol relies on.
- **ring plane** — rank-addressed RPCs forwarded around a ring
  "without routing tables", used by debugging tools.

External programs talk to their local broker over an IPC hop via
:class:`~repro.cmb.api.Handle`, mirroring the paper's UNIX-domain
socket client transport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..obs import (DEFAULT_SIZE_LADDER, FlightRecorder, Histogram,
                   MetricsRegistry)
from ..sim.kernel import Event, Simulation, Timeout
from .errors import (EHOSTUNREACH, ENOSYS, ETIMEDOUT, RETRYABLE_CODES,
                     RpcError)
from .message import (_RESPONSE, HEADER_BYTES, Message, MessageType,
                      RequestContext, _split_cache, split_topic)
from .module import CommsModule, NoHandlerError

if TYPE_CHECKING:  # pragma: no cover
    from .session import CommsSession

__all__ = ["Broker", "RpcError"]

# Planes (tags on fabric payloads so a broker knows how a message got in).
PLANE_TREE = "tree"
PLANE_EVENT_UP = "event_up"
PLANE_EVENT_DOWN = "event_down"
PLANE_RING = "ring"
# Pseudo-planes for the message-count breakdown: local IPC deliveries to
# clients and in-broker deliveries (module/callback/event sources).
PLANE_IPC = "ipc"
PLANE_LOCAL = "local"

#: Per-hop retransmission of a pending request in a hardened session
#: (lost-message repair): the first timeout, doubled per attempt, and
#: the attempts before the hop gives up.
RETRANSMIT_TIMEOUT = 5e-3
RETRANSMIT_MAX = 4
#: Answered requests each module's idempotent-replay cache keeps.
REPLAY_CAP = 256
#: Flight-recorder ring capacity per broker.  The recorder is always
#: on — it is a pure observer, so it cannot perturb a run (see
#: :mod:`repro.obs.flight`).
FLIGHT_CAPACITY = 1024

#: Flight-recorder salient-key extractors for event deliveries: which
#: payload field(s) the post-mortem doctor needs to reconstruct the
#: entity timeline that topic belongs to.  Topics without an entry are
#: recorded with a ``None`` payload slot (the topic itself is enough).
_EVENT_SALIENT = {
    "hb.pulse": lambda p: p.get("epoch"),
    "live.down": lambda p: p.get("rank"),
    "live.reattach": lambda p: p.get("rank"),
    "kvs.setroot": lambda p: (p.get("version"), p.get("fence")),
    "kvs.newmaster": lambda p: (p.get("rank"), p.get("version")),
    "kvs.delegation": lambda p: (p.get("prefix"), p.get("owner")),
    "wexec.start": lambda p: p.get("jobid"),
    "wexec.done": lambda p: (p.get("jobid"), p.get("status")),
    "wexec.respawn": lambda p: (p.get("jobid"), p.get("epoch")),
    "wexec.lost": lambda p: p.get("jobid"),
    "job.state": lambda p: (p.get("jobid"), p.get("state")),
    "mon.update": lambda p: (p.get("name"), p.get("state"),
                             p.get("epoch")),
}


class _Source:
    """Where a request came from, i.e. where its response must go.

    kind is one of ``child`` (downstream broker rank), ``client``
    (local Handle), ``local`` (an Event a local caller waits on), or
    ``callback`` (module-supplied function).
    """

    __slots__ = ("kind", "target")

    def __init__(self, kind: str, target: Any):
        self.kind = kind
        self.target = target


#: The source of every one-way request (one that arrives without a
#: request context, from :meth:`Broker.send_parent` /
#: :meth:`Broker.send_hop`): it owes no reply, so a response a handler
#: makes for it goes nowhere, and nothing is recorded for replay.
_ONEWAY = _Source("oneway", None)


class _Pending:
    """One forwarded request awaiting its response.

    Remembers everything needed to act on the request while it is in
    flight: the message itself (for retransmission and peer-down
    re-routing), the plane and next hop it left on, and how the next
    hop is chosen when the route must be recomputed (``hop_kind``):

    - ``parent`` — follows the broker's *live* parent pointer, so the
      request heals with the overlay;
    - ``ring`` — the static ring successor;
    - ``fixed`` — pinned to the original peer (direct neighbour RPCs).
    """

    __slots__ = ("source", "msg", "plane", "hop", "hop_kind", "attempts",
                 "timer", "span")

    def __init__(self, source: _Source, msg: Message, plane: str,
                 hop: int, hop_kind: str):
        self.source = source
        self.msg = msg
        self.plane = plane
        self.hop = hop
        self.hop_kind = hop_kind
        self.attempts = 0
        self.timer: Optional[Timeout] = None
        self.span = None  # forwarding span, closed when the reply lands


class Broker:
    """One CMB daemon instance: routing, module hosting, client service."""

    def __init__(self, session: "CommsSession", rank: int):
        self.session = session
        self.rank = rank
        self.sim: Simulation = session.sim
        self.network = session.network
        self.node_id = session.node_of_rank(rank)
        # Live wiring (mutable for self-healing).
        self.parent: Optional[int] = session.parent_map[rank]
        self.children: list[int] = session.children_of(rank)
        self.modules: dict[str, CommsModule] = {}
        self._pending: dict[int, _Pending] = {}
        # Idempotent-replay state (tentpole of the chaos work): per
        # module, a bounded LRU (a dict in recency order) of recently
        # answered requests keyed by
        # (ctx.reqid, msgid, topic) -> the response fields; duplicates
        # of an answered request replay the cached response instead of
        # re-executing the handler.  Duplicates of a *still unanswered*
        # request park in ``_inflight`` and are answered alongside the
        # original.  Keys include the msgid because a module chain may
        # issue several sub-requests under one logical reqid (e.g. the
        # kvs.load fan-out of a single get).
        self._replay: dict[str, dict] = {}
        self._inflight: dict[tuple, list[Message]] = {}
        self._subs: list[tuple[str, Callable[[Message], None]]] = []
        # topic -> subscribers' handlers in registration order (a tuple
        # mid-delivery changes cannot touch); reset by (un)subscribe.
        self._topic_subs: dict[str, tuple] = {}
        self._child_sources: dict[int, _Source] = {}  # rank -> route
        self._inbox = session.network.open_port(
            self.node_id, session.port_key)
        self.alive = True
        # Observability: every broker-level stat lives in a per-broker
        # MetricsRegistry so the `stats` comms module can snapshot and
        # tree-merge it.  The legacy int attributes (requests_handled,
        # retransmits, ...) remain readable via properties below, and
        # `msg_counts` stays a plain dict (the registry's CounterVec
        # cell store) so the hot per-send path is one dict update.
        reg = self.registry = MetricsRegistry(rank=rank)
        self._c_requests = reg.counter("broker_requests_handled_total")
        self._c_events = reg.counter("broker_events_seen_total")
        #: Chaos/recovery counters: broker-level retransmissions of
        #: pending requests, requests re-routed around a dead hop,
        #: cached-response replays served, and duplicates parked behind
        #: an in-flight original.
        self._c_retransmits = reg.counter("broker_retransmits_total")
        self._c_reroutes = reg.counter("broker_reroutes_total")
        self._c_replay_hits = reg.counter("broker_replay_hits_total")
        self._c_dups_parked = reg.counter("broker_dups_parked_total")
        #: Per-(module, plane, kind) message counters; ``kind`` is
        #: ``request``/``response``/``error``/``event``/``ring``.  Each
        #: forwarding hop counts once, giving the per-hop accounting the
        #: benchmarks aggregate via ``CommsSession.message_counts()``.
        self.msg_counts: dict[tuple[str, str, str], int] = reg.counter_vec(
            "cmb_messages_total", ("module", "plane", "kind")).data
        #: Inbox backlog observed at each dispatch (per-hop queue depth).
        #: Most deliveries find the inbox empty; those only bump
        #: ``_inbox_idle``, which :meth:`inbox_histogram` folds in
        #: before anything reads the histogram.
        self._h_inbox = reg.histogram("broker_inbox_depth",
                                      bounds=DEFAULT_SIZE_LADDER)
        self._inbox_idle = 0
        #: Service-time histograms keyed by topic (lazy; labels are
        #: (module, method) in the registry).
        self._svc_hist: dict[str, Any] = {}
        #: Always-on flight recorder (black box): a bounded ring of
        #: compact structured records of what this broker recently did.
        #: Pure observer — appends never schedule events or draw
        #: randomness, so it cannot perturb the event stream.
        self.flight = FlightRecorder(FLIGHT_CAPACITY)
        self._frec = self.flight.rec
        #: Per-plane payload-byte attribution (tree vs event vs ring),
        #: feeding the ROADMAP fence-payload investigation via
        #: ``CommsSession.plane_bytes()`` and ``bench_simperf``.
        self.plane_bytes: dict[str, int] = {}
        #: Peak inbox depth since the last pulse of an active ``health``
        #: metric (``mon`` reads and resets it; one compare on the hot
        #: path).
        self.inbox_peak = 0

    # -- int-compat views over the registry counters -----------------------
    @property
    def requests_handled(self) -> int:
        return self._c_requests.value

    @property
    def events_seen(self) -> int:
        return self._c_events.value

    @property
    def retransmits(self) -> int:
        return self._c_retransmits.value

    @property
    def reroutes(self) -> int:
        return self._c_reroutes.value

    @property
    def replay_hits(self) -> int:
        return self._c_replay_hits.value

    @property
    def dups_parked(self) -> int:
        return self._c_dups_parked.value

    @property
    def inbox_depth(self) -> int:
        """Messages waiting in this broker's inbox behind the one
        being (or about to be) dispatched."""
        return len(self._inbox)

    @property
    def span_tracer(self):
        """The session's span tracer (``None`` = tracing off)."""
        return self.session.span_tracer

    def inbox_histogram(self) -> Histogram:
        """The ``broker_inbox_depth`` histogram, complete: the
        deliveries that found the inbox empty are folded in first."""
        if self._inbox_idle:
            self._h_inbox.observe_zeros(self._inbox_idle)
            self._inbox_idle = 0
        return self._h_inbox

    def metrics_snapshot(self) -> dict:
        """Snapshot this broker's metrics registry, after giving every
        loaded module the chance to sync its internal counters in."""
        for mod in list(self.modules.values()):
            mod.sync_metrics()
        self.inbox_histogram()
        return self.registry.snapshot()

    def pending_census(self) -> list:
        """JSON-able census of in-flight forwarded requests — what this
        broker is still waiting on (post-mortem bundles; health plane
        reads only the count)."""
        out = []
        for msgid, entry in sorted(self._pending.items()):
            ctx = entry.msg.ctx
            out.append({
                "msgid": msgid,
                "topic": entry.msg.topic,
                "plane": entry.plane,
                "hop": entry.hop,
                "hop_kind": entry.hop_kind,
                "attempts": entry.attempts,
                "timer_armed": entry.timer is not None,
                "reqid": ctx.reqid if ctx is not None else None,
                "deadline": ctx.deadline if ctx is not None else None,
            })
        return out

    def _observe_service(self, topic: str, dt: float) -> None:
        """Record one RPC service time into the (module, method)
        histogram (covers queueing/holding inside the module too)."""
        h = self._svc_hist.get(topic)
        if h is None:
            mod, method = split_topic(topic)
            h = self._svc_hist[topic] = self.registry.histogram(
                "rpc_service_seconds", module=mod, method=method)
        h.observe(dt)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def load_module(self, module: CommsModule) -> None:
        """Install a comms module into this broker's address space."""
        if module.name in self.modules:
            raise ValueError(f"module {module.name!r} already loaded "
                             f"at rank {self.rank}")
        self.modules[module.name] = module

    def unload_module(self, name: str) -> CommsModule:
        """Remove a module (supports the paper's live-reconfiguration)."""
        mod = self.modules.pop(name)
        mod.shutdown()
        return mod

    def start(self) -> None:
        """Begin consuming the node inbox and start loaded modules."""
        self._inbox.serve(self._on_inbox)
        for mod in list(self.modules.values()):
            mod.start()

    def stop(self) -> None:
        """Stop the broker (used for failure injection / teardown)."""
        self.alive = False
        for mod in list(self.modules.values()):
            mod.shutdown()
        self.network.close_port(self.node_id, self.session.port_key)

    def _on_inbox(self, item: tuple) -> None:
        """Dispatch one ``(plane, msg)`` fabric delivery."""
        depth = len(self._inbox)
        if depth:
            self._h_inbox.observe(float(depth))
            if depth > self.inbox_peak:
                self.inbox_peak = depth
        else:
            self._inbox_idle += 1
        if not self.alive:
            # A failed or stopped broker silently eats traffic (the
            # network already drops fabric messages to it; this covers
            # the loopback/IPC path) but stays served, so a later
            # revive_rank() brings it back.
            return
        plane, msg = item
        if plane == PLANE_TREE:
            if msg.mtype is _RESPONSE:
                self._dispatch_response(msg)
            elif msg.ctx is None:
                self._route_request(msg, _ONEWAY)
            else:
                src = self._child_sources.get(msg.src_rank)
                if src is None:
                    src = self._child_sources[msg.src_rank] = _Source(
                        "child", msg.src_rank)
                self._route_request(msg, src)
        elif plane == PLANE_RING:
            self._dispatch_ring(msg)
        else:
            self._dispatch_event(plane, msg)

    # ------------------------------------------------------------------
    # plane-level sends
    # ------------------------------------------------------------------
    def _count(self, plane: str, msg: Message) -> None:
        """Tally one message for the per-module/per-plane breakdown
        (``_value_``: ``Enum.value`` is a slow descriptor lookup)."""
        kind = "error" if msg.error is not None else msg.mtype._value_
        st = _split_cache.get(msg.topic) or split_topic(msg.topic)
        key = (st[0], plane, kind)
        counts = self.msg_counts
        counts[key] = counts.get(key, 0) + 1

    def _send(self, peer_rank: int, plane: str, msg: Message) -> None:
        msg.hops += 1
        self._count(plane, msg)
        size = msg._size_cache or msg.size()
        pb = self.plane_bytes
        pb[plane] = pb.get(plane, 0) + size
        self._frec(self.sim.now, "send", plane, msg.topic, peer_rank)
        self.network.send(self.node_id, self.session.node_of_rank(peer_rank),
                          (plane, msg), size,
                          port=self.session.port_key)

    def _expired(self, msg: Message) -> bool:
        """True when the request's deadline passed (checked per hop)."""
        ctx = msg.ctx
        return ctx is not None and ctx.expired(self.sim.now)

    def _expiry_response(self, msg: Message) -> Message:
        return msg.make_response(
            error=(f"deadline expired in transit at rank {self.rank} "
                   f"(t={self.sim.now:g})"),
            errnum=ETIMEDOUT, err_rank=self.rank)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def _route_request(self, msg: Message, source: _Source) -> None:
        """Deliver to a local module or forward upstream (paper: requests
        are routed upstream to the first matching comms module).  The
        replay key of a request with a context is its reqid, msgid and
        topic: stable across every retransmission, re-route and client
        retry of it, distinct across a module chain's sub-requests."""
        topic = msg.topic
        st = _split_cache.get(topic) or split_topic(topic)
        mod = self.modules.get(st[0])
        if mod is not None:
            ctx = msg.ctx
            if ctx is not None:
                key = (ctx.reqid, msg.msgid, topic)
                cache = self._replay.get(st[0])
                if ((cache is not None and key in cache)
                        or key in self._inflight):
                    self._absorb_duplicate(st[0], key, msg, source)
                    return
                reqid = ctx.reqid
            else:
                key = reqid = None
            self._c_requests.value += 1
            self._count(PLANE_LOCAL, msg)
            now = self.sim.now
            self._frec(now, "dispatch", topic, reqid, source.kind)
            msg._source = source
            msg._broker = self
            msg._obs_t0 = now
            if (msg.span is not None
                    and (tr := self.session.span_tracer) is not None):
                # Open the dispatch span and re-point the message's
                # span context at it, so sub-requests the module issues
                # (carrying span=msg.span) become its children.
                span = tr.start_span(msg.span, f"dispatch:{msg.topic}",
                                     "dispatch", self.rank)
                msg._obs_span = span  # type: ignore[attr-defined]
                msg.span = (span.trace_id, span.span_id)
            if key is not None:
                self._inflight[key] = []
            try:
                mod.dispatch_request(msg)
            except NoHandlerError as exc:
                self._finish_request(msg, msg.make_response(
                    error=str(exc), errnum=ENOSYS, err_rank=self.rank))
            if source is _ONEWAY and msg._obs_span is not None:
                # Nobody waits on a one-way request: its dispatch ends
                # when the handler returns.
                self.session.span_tracer.finish(msg._obs_span)
            return
        if source is _ONEWAY:
            if self.parent is not None:
                self._send(self.parent, PLANE_TREE,
                           msg.copy(src_rank=self.rank))
            return
        if self.parent is None:
            self._send_response(
                source,
                msg.make_response(
                    error=f"no module matches topic {msg.topic!r}",
                    errnum=ENOSYS, err_rank=self.rank))
            return
        if self._expired(msg):
            self._send_response(source, self._expiry_response(msg))
            return
        fwd = msg.copy(src_rank=self.rank)
        self._register_pending(source, fwd, PLANE_TREE, self.parent,
                               "parent")
        self._send(self.parent, PLANE_TREE, fwd)

    def _absorb_duplicate(self, mod_name: str, key: tuple, msg: Message,
                          source: _Source) -> None:
        """Serve a duplicate request from the replay cache, or park it
        behind its still-in-flight original (the handler must not run
        again)."""
        msg._source = source
        msg._broker = self
        cache = self._replay.get(mod_name)
        if cache is not None:
            hit = cache.pop(key, None)
            if hit is not None:
                cache[key] = hit  # most recently used
                self._c_replay_hits.inc()
                self._frec(self.sim.now, "replay", msg.topic, key[0], None)
                tr = self.session.span_tracer
                if tr is not None:
                    tr.instant(msg.span, f"replay:{msg.topic}", "retry",
                               self.rank)
                payload, error, errnum, err_rank = hit
                self._emit_response(msg, msg.make_response(
                    payload, error=error, errnum=errnum, err_rank=err_rank))
                return
        self._c_dups_parked.inc()
        self._frec(self.sim.now, "dup_parked", msg.topic, key[0], None)
        tr = self.session.span_tracer
        if tr is not None:
            tr.instant(msg.span, f"dup_parked:{msg.topic}", "retry",
                       self.rank)
        self._inflight[key].append(msg)
        self._kick_pending(msg.ctx)

    def _kick_pending(self, ctx: RequestContext) -> None:
        """Revive stalled upstream legs of a logical request.

        A duplicate arrival (client retry) proves the origin is still
        waiting: an upstream leg that stopped retransmitting — budget
        spent, or its deadline (from the *previous* attempt) expired —
        must not blackhole the retry behind its parked original.  Adopt
        the retry's fresher deadline, reset the budget, and re-arm.
        Legs still actively retransmitting (live timer) are left alone,
        and upstream dedup absorbs the extra copies either way."""
        for entry in self._pending.values():
            ectx = entry.msg.ctx
            if entry.timer is not None or ectx is None \
                    or ectx.reqid != ctx.reqid:
                continue
            if ctx.deadline is not None and (
                    ectx.deadline is None or ctx.deadline > ectx.deadline):
                entry.msg.ctx = ectx._replace(deadline=ctx.deadline)
            entry.attempts = 0
            self._arm_retransmit(entry)

    def _finish_request(self, request: Message, resp: Message) -> None:
        """Emit ``resp``, record it for idempotent replay, and answer
        any duplicates parked behind the original.

        Transient (retryable-coded) error responses are deliberately
        NOT recorded: a client retry after ETIMEDOUT/EHOSTUNREACH must
        re-execute the request on the healed overlay, not have the old
        transient failure replayed back at it forever.  A one-way
        request owes no reply: its response is dropped here.
        """
        if request._source is _ONEWAY:
            return
        topic = request.topic
        t0 = request._obs_t0
        if t0 is not None:
            self._observe_service(topic, self.sim.now - t0)
        error = resp.error
        if error is not None:
            self._frec(self.sim.now, "resp_error", topic,
                       resp.errnum, resp.err_rank)
        tr = self.session.span_tracer
        if tr is not None:
            span = request._obs_span
            if span is not None:
                if error is not None:
                    tr.finish(span, error=resp.errnum)
                else:
                    tr.finish(span)
        ctx = request.ctx
        if ctx is not None:
            key = (ctx.reqid, request.msgid, topic)
            if error is None or resp.errnum not in RETRYABLE_CODES:
                mod_name = (_split_cache.get(topic)
                            or split_topic(topic))[0]
                cache = self._replay.get(mod_name)
                if cache is None:
                    cache = self._replay[mod_name] = {}
                elif key in cache:
                    del cache[key]
                cache[key] = (resp.payload, error, resp.errnum,
                              resp.err_rank)
                if len(cache) > REPLAY_CAP:
                    del cache[next(iter(cache))]
            for dup in self._inflight.pop(key, ()):
                self._emit_response(dup, dup.make_response(
                    resp.payload, error=error, errnum=resp.errnum,
                    err_rank=resp.err_rank))
        self._emit_response(request, resp)

    def _emit_response(self, request: Message, resp: Message) -> None:
        source: _Source = request._source  # type: ignore[attr-defined]
        if source.kind == "ringback":
            # Responses on the ring keep travelling forward to the origin.
            self._send(self.session.ring.next_rank(self.rank),
                       PLANE_RING, resp)
        else:
            self._send_response(source, resp)

    def _dispatch_response(self, msg: Message) -> None:
        entry = self._pending.pop(msg.msgid, None)
        if entry is None:
            return  # response for a forgotten/failed request: drop
        if entry.timer is not None:
            self._cancel_retransmit(entry)
        if entry.span is not None:
            tr = self.session.span_tracer
            if tr is not None:
                if msg.error is not None:
                    tr.finish(entry.span, error=msg.errnum)
                else:
                    tr.finish(entry.span)
        self._send_response(entry.source, msg)

    # -- pending-request bookkeeping (retransmission / fail-over) --------
    def _register_pending(self, source: _Source, msg: Message, plane: str,
                          hop: int, hop_kind: str) -> _Pending:
        """Track a forwarded request; in a hardened session (heartbeat
        loaded), arm the per-hop retransmission timer that repairs lost
        messages.  Without the heartbeat no timer exists, so the paper's
        loss-free protocol schedules exactly the events it always did."""
        entry = _Pending(source, msg, plane, hop, hop_kind)
        self._pending[msg.msgid] = entry
        if (msg.span is not None
                and (tr := self.session.span_tracer) is not None):
            # Per-hop forwarding span: opened when the request leaves
            # this broker, closed when its response retraces the hop
            # (or the hop is failed/re-routed).  Re-pointing msg.span
            # chains the next hop's span under this one.
            span = tr.start_span(msg.span, f"fwd:{msg.topic}", "net",
                                 self.rank, hop=hop, plane=plane)
            entry.span = span
            msg.span = (span.trace_id, span.span_id)
        if msg.ctx is not None and self.session.hardened:
            self._arm_retransmit(entry)
        return entry

    def _arm_retransmit(self, entry: _Pending) -> None:
        rto = RETRANSMIT_TIMEOUT * 2 ** min(entry.attempts, 6)
        timer = self.sim.timeout(rto)
        entry.timer = timer
        timer.add_callback(
            lambda _e, e=entry, t=timer: self._retransmit(e, t))

    def _cancel_retransmit(self, entry: _Pending) -> None:
        timer, entry.timer = entry.timer, None
        if timer is not None and not timer.processed:
            timer.abandon()

    def _retransmit(self, entry: _Pending, timer: Timeout) -> None:
        if entry.timer is not timer or not self.alive:
            return
        entry.timer = None
        if self._pending.get(entry.msg.msgid) is not entry:
            return  # answered/failed while the timer was in flight
        if (entry.attempts >= RETRANSMIT_MAX
                or self._expired(entry.msg)):
            # Give up quietly: the request may be legitimately held
            # upstream (barrier/fence); deadlines and client-level
            # retries are the backstop for genuinely lost ones.  A
            # failfast read is never held on purpose and may have other
            # requests coalesced behind it, so it fails out loud.
            if entry.msg.ctx is not None and entry.msg.ctx.failfast:
                self._fail_pending(
                    entry, "giveup", ETIMEDOUT, self.rank,
                    f"no answer from rank {entry.hop} after "
                    f"{entry.attempts} retransmissions")
            return
        hop = self._resolve_hop(entry)
        if hop is None:
            return
        entry.attempts += 1
        entry.hop = hop
        self._c_retransmits.inc()
        self._frec(self.sim.now, "retransmit", entry.msg.topic,
                   entry.attempts, hop)
        tr = self.session.span_tracer
        if tr is not None:
            tr.instant(entry.msg.span, f"retransmit:{entry.msg.topic}",
                       "retry", self.rank, attempt=entry.attempts)
        self._send(hop, entry.plane, entry.msg)
        self._arm_retransmit(entry)

    def _resolve_hop(self, entry: _Pending) -> Optional[int]:
        """Recompute the next hop for a pending request (the route may
        have healed since the original send)."""
        if entry.hop_kind == "parent":
            return self.parent
        if entry.hop_kind == "ring":
            return self.session.ring.next_rank(self.rank)
        return entry.hop  # fixed neighbour

    def _send_response(self, source: _Source, resp: Message) -> None:
        kind = source.kind
        if kind == "child":
            self._send(source.target, PLANE_TREE, resp)
        elif kind == "callback":
            self._count(PLANE_LOCAL, resp)
            source.target(resp)
        elif kind == "client":
            self._count(PLANE_IPC, resp)
            source.target._deliver_response(resp)
        elif kind == "local":
            self._count(PLANE_LOCAL, resp)
            ev: Event = source.target
            if not ev.triggered:
                if resp.error is not None:
                    ev.fail(RpcError(resp.topic, resp.error,
                                     code=resp.errnum, rank=resp.err_rank))
                else:
                    ev.succeed(resp.payload)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown source kind {kind}")

    # -- event path -------------------------------------------------------
    def _dispatch_event(self, plane: str, msg: Message) -> None:
        if plane == PLANE_EVENT_UP and self.parent is not None:
            self._send(self.parent, PLANE_EVENT_UP, msg)
        else:  # the root injects an event, or it floods on down
            self._flood_event(msg)

    def _flood_event(self, msg: Message) -> None:
        """Deliver the event here and flood it on to the children (the
        root injects every event into the downward flood this way)."""
        self._deliver_event(msg)
        for child in self.children:
            self._send(child, PLANE_EVENT_DOWN, msg)

    def _deliver_event(self, msg: Message) -> None:
        self._c_events.inc()
        fn = _EVENT_SALIENT.get(msg.topic)
        self._frec(self.sim.now, "event", msg.topic,
                   fn(msg.payload) if fn is not None else None, None)
        if msg.span is not None:
            tr = self.session.span_tracer
            if tr is not None:
                tr.instant(msg.span, f"event:{msg.topic}", "event",
                           self.rank)
        topic = msg.topic
        fns = self._topic_subs.get(topic)
        if fns is None:
            fns = self._topic_subs[topic] = tuple(
                fn for prefix, fn in self._subs if topic.startswith(prefix))
        for fn in fns:
            fn(msg)

    # -- neighbour-addressed module hops ----------------------------------
    def rpc_hop_cb(self, peer_rank: int, topic: str, payload: dict,
                   callback: Callable[[Message], None],
                   ctx: Optional[RequestContext] = None,
                   span: Optional[tuple] = None,
                   payload_size: Optional[int] = None) -> None:
        """Send a request directly to an adjacent tree neighbour
        (parent OR child), bypassing the local module match — the
        generalization of :meth:`rpc_parent_cb` that lets comms-module
        chains run toward an arbitrary rank (e.g. a non-root KVS
        master).  ``ctx`` propagates an in-flight request's context
        (deadline, origin) across the module-level hop; ``span`` the
        tracing context, so the hop appears in the caller's trace;
        ``payload_size`` pre-seeds the wire-size cache when the caller
        already knows the payload's canonical byte size."""
        msg = Message.request(topic, payload, self.rank, ctx=ctx,
                              span=span, payload_size=payload_size)
        self._register_pending(_Source("callback", callback), msg,
                               PLANE_TREE, peer_rank, "fixed")
        self._send(peer_rank, PLANE_TREE, msg)

    # -- ring path --------------------------------------------------------
    def _dispatch_ring(self, msg: Message) -> None:
        if msg.mtype == MessageType.RESPONSE:
            if msg.src_rank == self.rank:
                self._dispatch_response(msg)
            else:
                self._send(self.session.ring.next_rank(self.rank),
                           PLANE_RING, msg)
            return
        if msg.dst_rank == self.rank:
            self._route_request(msg, _Source("ringback", None))
            return
        if self._expired(msg):
            # Error responses travel on around the ring to the origin.
            self._send(self.session.ring.next_rank(self.rank),
                       PLANE_RING, self._expiry_response(msg))
            return
        if msg.span is not None:
            tr = self.session.span_tracer
            if tr is not None:
                tr.instant(msg.span, f"ring_hop:{msg.topic}", "net",
                           self.rank)
        self._send(self.session.ring.next_rank(self.rank), PLANE_RING, msg)

    # ------------------------------------------------------------------
    # services offered to modules and clients
    # ------------------------------------------------------------------
    def respond(self, request: Message, payload: Optional[dict] = None,
                error: Optional[str] = None, code: Optional[str] = None,
                err_rank: Optional[int] = None,
                payload_size: Optional[int] = None) -> None:
        """Send the response for ``request`` back where it came from.

        Error responses carry the structured ``code`` (``EPROTO`` when
        the caller supplied none) and the failing rank — this broker's
        unless a relay passes through an upstream ``err_rank``.
        ``payload_size`` pre-seeds the response's wire-size cache when
        the caller already knows the payload's canonical byte size
        (e.g. a KVS object response sized from the store's size cache).
        """
        resp = request.make_response(
            payload, error=error, errnum=code,
            err_rank=(err_rank if err_rank is not None and err_rank >= 0
                      else self.rank) if error is not None else -1)
        if payload_size is not None and error is None:
            resp._size_cache = HEADER_BYTES + payload_size
        self._finish_request(request, resp)

    def rpc_up(self, topic: str, payload: dict,
               deadline: Optional[float] = None,
               span: Optional[tuple] = None) -> Event:
        """Module/local RPC routed upstream; returns a result event."""
        ev = self.sim.event(name=("rpc:%s", topic))
        msg = Message.request(topic, payload, self.rank, span=span,
                              deadline=deadline)
        self._route_request(msg, _Source("local", ev))
        return ev

    def rpc_up_cb(self, topic: str, payload: dict,
                  callback: Callable[[Message], None],
                  ctx: Optional[RequestContext] = None,
                  span: Optional[tuple] = None) -> None:
        """Like :meth:`rpc_up` but delivers the raw response to a
        callback — used by modules aggregating many child requests."""
        msg = Message.request(topic, payload, self.rank, ctx=ctx, span=span)
        self._route_request(msg, _Source("callback", callback))

    def rpc_parent_cb(self, topic: str, payload: dict,
                      callback: Callable[[Message], None],
                      ctx: Optional[RequestContext] = None,
                      span: Optional[tuple] = None,
                      payload_size: Optional[int] = None) -> None:
        """Send a request directly to the tree parent, bypassing the
        local module match — how instances of the same comms module
        talk upstream to each other (cache fault-in, flush/fence
        forwarding).  The raw response is handed to ``callback``;
        ``ctx`` propagates an in-flight request's context upstream and
        ``span`` its tracing context; ``payload_size`` pre-seeds the
        wire-size cache when the caller already knows the payload's
        canonical byte size (fence/flush payloads are sized
        compositionally from cached object sizes)."""
        if self.parent is None:
            raise RpcError(topic, "root has no parent",
                           code=EHOSTUNREACH, rank=self.rank)
        msg = Message.request(topic, payload, self.rank, ctx=ctx,
                              span=span, payload_size=payload_size)
        self._register_pending(_Source("callback", callback), msg,
                               PLANE_TREE, self.parent, "parent")
        self._send(self.parent, PLANE_TREE, msg)

    def send_parent(self, topic: str, payload: dict) -> None:
        """One-way request to the tree parent (see :meth:`send_hop`),
        e.g. the ``live`` module's heartbeat-synchronized hellos or a
        barrier tally."""
        if self.parent is not None:
            self.send_hop(self.parent, topic, payload)

    def send_hop(self, peer_rank: int, topic: str, payload: dict, *,
                 span: Optional[tuple] = None,
                 payload_size: Optional[int] = None) -> int:
        """One-way request to a tree neighbour: no pending entry here,
        no response from there.  It carries no request context, so the
        receiving broker owes it no reply (a reduction relays its state
        this way, and a refusal travels back down the same way).
        ``span`` and ``payload_size`` are as for :meth:`rpc_hop_cb`.
        Returns the message id."""
        msg = Message(topic=topic, payload=payload, src_rank=self.rank,
                      span=span)
        if payload_size is not None:
            msg._size_cache = HEADER_BYTES + payload_size
        self._send(peer_rank, PLANE_TREE, msg)
        return msg.msgid

    def rpc_rank(self, dst_rank: int, topic: str, payload: dict,
                 deadline: Optional[float] = None,
                 span: Optional[tuple] = None) -> Event:
        """Rank-addressed RPC over the ring overlay."""
        ev = self.sim.event(name=("ring:%s@%d", topic, dst_rank))
        msg = Message(topic=topic, mtype=MessageType.RING, payload=payload,
                      src_rank=self.rank, dst_rank=dst_rank, span=span)
        msg.ensure_context(origin_rank=self.rank, deadline=deadline)
        if dst_rank == self.rank:
            self._route_request(msg, _Source("local", ev))
        else:
            nxt = self.session.ring.next_rank(self.rank)
            self._register_pending(_Source("local", ev), msg,
                                   PLANE_RING, nxt, "ring")
            self._send(nxt, PLANE_RING, msg)
        return ev

    def publish(self, topic: str, payload: dict,
                span: Optional[tuple] = None) -> None:
        """Publish an event session-wide via the event plane.

        ``span`` attaches a tracing context: every broker's delivery
        of the event then shows up in that trace."""
        msg = Message(topic=topic, mtype=MessageType.EVENT,
                      payload=payload, src_rank=self.rank, span=span)
        if self.parent is None:
            self._flood_event(msg)
        else:
            self._send(self.parent, PLANE_EVENT_UP, msg)

    def subscribe(self, prefix: str, fn: Callable[[Message], None]) -> None:
        """Register ``fn`` for events whose topic starts with ``prefix``."""
        self._subs.append((prefix, fn))
        self._topic_subs.clear()

    def unsubscribe(self, prefix: str, fn: Callable[[Message], None]) -> None:
        """Remove a previously registered subscription."""
        self._subs.remove((prefix, fn))
        self._topic_subs.clear()

    def nic_free_at(self) -> float:
        """Simulated time at which this node's NIC has serialized every
        send queued on it (at or before ``sim.now`` when idle)."""
        return self.network.nic(self.node_id).busy_until

    def after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` after ``delay`` simulated seconds (module timers)."""
        ev = self.sim.timeout(delay)
        ev.add_callback(lambda _e: fn() if self.alive else None)
        return ev

    def log(self, level: str, text: str) -> None:
        """Route a log record into the ``log`` module when loaded."""
        mod = self.modules.get("log")
        if mod is not None:
            mod.append(level, text)  # type: ignore[attr-defined]

    # -- self-healing ------------------------------------------------------
    def handle_peer_down(self, dead_rank: int) -> None:
        """Rewire around a dead interior node (paper: planes self-heal).

        Orphans re-attach to the dead node's *nearest live ancestor*
        (the grandparent, unless it too is dead — cascading failures
        walk further up), and that ancestor adopts every live broker
        currently pointing at the corpse — including orphans it had
        itself inherited from an earlier failure.  The live.down event
        flood guarantees ancestors process the death before the orphans
        do, so the current parent pointers this scan reads are still
        the pre-rewire ones.

        In-flight requests routed through the corpse are then failed
        immediately with EHOSTUNREACH (no more waiting for a deadline
        that may never come) or, for tree-plane requests that can
        follow the healed parent pointer, re-sent along the new route.
        """
        heal_target = self.session.nearest_live_ancestor(dead_rank)
        if heal_target is None:
            # The dead rank's whole ancestor chain (the static root
            # included) is gone: the minimum live rank becomes the
            # acting overlay root — it keeps parent None and adopts;
            # everyone else heals toward it.
            acting = self.session.acting_root()
            adopter = acting
            heal_target = acting if acting != self.rank else None
        else:
            adopter = heal_target
        self._frec(self.sim.now, "peer_down", dead_rank, heal_target, None)
        if self.parent == dead_rank:
            self.parent = heal_target
        if dead_rank in self.children:
            self.children.remove(dead_rank)
        if adopter == self.rank:
            for peer in self.session.brokers:
                if (peer.alive and peer.rank != self.rank
                        and peer.parent == dead_rank
                        and peer.rank not in self.children):
                    self.children.append(peer.rank)
        self._fail_pending_via(dead_rank)

    def handle_peer_up(self, rank: int) -> None:
        """Re-wire for a revived peer announcing itself (live.reattach):
        restore the original topology edges that involve ``rank`` and
        hand any orphans we adopted on its behalf back to it."""
        session = self.session
        if rank == self.rank:
            return
        if session.parent_of(self.rank) == rank:
            self.parent = rank
        if (self.rank in (session.parent_of(rank),
                          session.brokers[rank].parent)
                and rank not in self.children):
            # Its static parent, or the rank it attached to when that
            # parent had died (a static edge to a corpse is no edge).
            self.children.append(rank)
        for orphan in session.children_of(rank):
            if orphan != self.rank and orphan in self.children:
                self.children.remove(orphan)

    def _fail_pending_via(self, dead_rank: int) -> None:
        """Resolve every pending request whose next hop just died:
        re-send healable tree requests through the new parent, fail the
        rest promptly with EHOSTUNREACH carrying the dead rank."""
        for msgid, entry in list(self._pending.items()):
            if entry.hop != dead_rank:
                continue
            if (entry.hop_kind == "parent" and self.parent is not None
                    and not self._expired(entry.msg)):
                # The tree plane healed under us: re-issue the request
                # along the new route.  The receiving module's replay
                # cache absorbs it if the original was already served.
                self._cancel_retransmit(entry)
                entry.hop = self.parent
                entry.attempts = 0
                self._c_reroutes.inc()
                self._frec(self.sim.now, "reroute", entry.msg.topic,
                           dead_rank, self.parent)
                tr = self.session.span_tracer
                if tr is not None:
                    tr.instant(entry.msg.span,
                               f"reroute:{entry.msg.topic}", "retry",
                               self.rank, dead=dead_rank, hop=self.parent)
                self._send(self.parent, entry.plane, entry.msg)
                self._arm_retransmit(entry)
                continue
            self._fail_pending(
                entry, "fail_via", EHOSTUNREACH, dead_rank,
                f"next hop rank {dead_rank} declared down", dead=dead_rank)

    def _fail_pending(self, entry: _Pending, kind: str, errnum: str,
                      err_rank: int, error: str, **span_attrs) -> None:
        """Answer a pending request's source with a transport error
        (recorded as ``kind`` in the flight recorder)."""
        del self._pending[entry.msg.msgid]
        self._cancel_retransmit(entry)
        self._frec(self.sim.now, kind, entry.msg.topic, entry.hop, None)
        if entry.span is not None:
            tr = self.session.span_tracer
            if tr is not None:
                tr.finish(entry.span, error=errnum, **span_attrs)
        self._send_response(entry.source, entry.msg.make_response(
            error=error, errnum=errnum, err_rank=err_rank))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Broker rank={self.rank} node={self.node_id}>"
