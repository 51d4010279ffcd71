"""Client-side access to the CMB — the ``flux_open`` equivalent.

External (simulated) programs never touch broker internals; they hold a
:class:`Handle` connected to the broker on their node, mirroring the
paper's UNIX-domain-socket transport: every request and response pays
an IPC hop, and subscribed events arrive with the same local delay.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..sim.kernel import Event
from .broker import _Source
from .errors import ETIMEDOUT, RpcError
from .message import Message, MessageType, RequestContext

if TYPE_CHECKING:  # pragma: no cover
    from .session import CommsSession

__all__ = ["Handle", "RpcError"]

#: Base client retry backoff (simulated seconds), doubled per attempt
#: and jittered.
RETRY_BACKOFF = 1e-3


class Handle:
    """A client connection to the local CMB broker.

    Created via :meth:`repro.cmb.session.CommsSession.connect`.  All
    methods are non-blocking: they return
    :class:`~repro.sim.kernel.Event` objects that a simulated process
    waits on with ``yield``.
    """

    def __init__(self, session: "CommsSession", rank: int):
        self.session = session
        self.rank = rank
        self.broker = session.brokers[rank]
        self.sim = session.sim
        # Per-session ids keep payload encodings (and therefore message
        # sizes and simulated latencies) independent of how many other
        # sessions this Python process has created: runs stay
        # bit-deterministic.
        self.client_id = session._next_client_id
        session._next_client_id += 1
        self._waiters: dict[int, Event] = {}
        #: The broker's response route to this handle.
        self._source = _Source("client", self)
        self._subs: list[tuple[str, Callable[[Message], None]]] = []
        #: RPC attempts re-issued after a retryable failure (chaos
        #: observability: client-side retry amplification).
        self.retries = 0

    # ------------------------------------------------------------------
    # request / response
    # ------------------------------------------------------------------
    def rpc(self, topic: str, payload: Optional[dict] = None,
            timeout: Optional[float] = None,
            deadline: Optional[float] = None,
            retries: int = 0) -> Event:
        """Issue an RPC; the returned event fires with the response
        payload, or fails with :class:`RpcError` on an error response.

        ``timeout`` (simulated seconds) bounds the wait: a response
        lost to a node failure otherwise hangs the caller forever.  On
        expiry the event fails with ``RpcError(code="ETIMEDOUT")``; the
        stale response, if it ever arrives, is dropped.  The deadline
        (``now + timeout``, or an explicit absolute ``deadline``) also
        rides the request's header-frame context, so brokers drop the
        request at the first forward hop past it instead of letting a
        doomed request keep consuming the fabric.

        ``retries`` re-issues the request after a *retryable* failure
        (:attr:`RpcError.retryable`: timeout, unreachable hop, data
        lost in transit), sleeping an exponentially growing, jittered
        backoff (from ``RETRY_BACKOFF``) between attempts.  Every
        attempt reuses the original ``msgid``/``reqid``, so broker-side
        idempotent replay absorbs the duplicate if the first attempt
        actually got through: at most one execution is observed.
        Definitive service errors (``ENOENT``, ``EINVAL``, ...) are
        never retried.  An explicit absolute ``deadline`` bounds the
        whole retry loop; a relative ``timeout`` bounds each attempt.
        """
        if retries <= 0:
            ev = self.sim.event(name=("client-rpc:%s", topic))
            if deadline is None and timeout is not None:
                deadline = self.sim.now + timeout
            msg = Message.request(topic, payload or {}, self.rank,
                                  deadline=deadline)
            if self.session.span_tracer is not None:
                # Guarded here so the tracing-off fast path skips the
                # call.
                self._trace_root("rpc", topic, msg, ev)
            self._waiters[msg.msgid] = ev
            self._ipc_deliver(msg)
            if timeout is not None:
                self._arm_timeout(msg.msgid, ev, topic, timeout)
            return ev
        return self._rpc_with_retries(topic, payload or {}, timeout,
                                      deadline, retries)

    def _trace_root(self, kind: str, topic: str, msg: Message, ev: Event):
        """Open the root span of a new trace for one client call,
        attach its context to ``msg``, and close it when ``ev``
        resolves (success, error, or timeout).  Returns the span's
        context (``None`` when tracing is off)."""
        tr = self.session.span_tracer
        if tr is None:
            return None
        root = msg.span = tr.start_trace(kind, topic, self.rank,
                                         client=self.client_id)

        def close(done_ev: Event) -> None:
            exc = done_ev._exc
            if exc is not None:
                tr.finish(root, error=getattr(exc, "code", None)
                          or type(exc).__name__)
            else:
                tr.finish(root)

        ev.add_callback(close)
        return root

    def _rpc_with_retries(self, topic: str, payload: dict,
                          timeout: Optional[float],
                          deadline: Optional[float], retries: int
                          ) -> Event:
        ev = self.sim.event(name=("client-rpc:%s", topic))
        msg0 = Message(topic=topic, payload=payload, src_rank=self.rank)
        tr = self.session.span_tracer
        root = self._trace_root("rpc", topic, msg0, ev)
        attempt_no = 0

        def attempt() -> None:
            if ev.triggered:
                return
            att_deadline = deadline
            if att_deadline is None and timeout is not None:
                att_deadline = self.sim.now + timeout
            # Same msgid (hence same reqid) on every attempt: the
            # broker's replay cache keys on it, making retries
            # idempotent end to end.  Only the deadline is refreshed.
            msg = msg0.copy()
            msg.ctx = RequestContext(reqid=msg0.msgid,
                                     origin_rank=self.rank,
                                     deadline=att_deadline)
            inner = self.sim.event(name=("client-rpc-try:%s", topic))
            if root is not None:
                # One child span per attempt under the logical call's
                # root, so retries are visible in the trace tree.
                aspan = msg.span = tr.start_span(
                    root, "attempt", topic, "client", self.rank,
                    attempt=attempt_no)
                inner.add_callback(
                    lambda done_ev, s=aspan: tr.finish(
                        s, **({"error": getattr(done_ev._exc, "code",
                                                None)
                               or type(done_ev._exc).__name__}
                              if done_ev._exc is not None else {})))
            self._waiters[msg.msgid] = inner
            self._ipc_deliver(msg)
            if timeout is not None:
                self._arm_timeout(msg.msgid, inner, topic, timeout,
                                  terminal=False)
            inner.add_callback(done)

        def done(inner: Event) -> None:
            nonlocal attempt_no
            if ev.triggered:
                return
            exc = inner._exc
            if exc is None:
                ev.succeed(inner._value)
                return
            out_of_time = (deadline is not None
                           and self.sim.now >= deadline)
            if (not isinstance(exc, RpcError) or not exc.retryable
                    or attempt_no >= retries or out_of_time):
                self.session.note_terminal_error(
                    topic, getattr(exc, "code", None)
                    or type(exc).__name__, self.rank, str(exc))
                ev.fail(exc)
                return
            # Exponential backoff with jitter: decorrelates the retry
            # storms of many clients hammering the same healed route.
            backoff = (RETRY_BACKOFF * (2 ** attempt_no)
                       * (0.5 + self.sim.rng.random()))
            attempt_no += 1
            self.retries += 1
            if root is not None:
                tr.instant(root, "retry", topic, "retry", self.rank,
                           attempt=attempt_no, backoff=backoff)
            t = self.sim.timeout(backoff)
            t.add_callback(lambda _e: attempt())

        attempt()
        return ev

    def _arm_timeout(self, msgid: int, ev: Event, topic: str,
                     timeout: float, terminal: bool = True) -> None:
        timer = self.sim.timeout(timeout)

        def expire(_e) -> None:
            if ev.triggered:
                return
            self._waiters.pop(msgid, None)
            if terminal:
                # Per-attempt timeouts under a retry loop are noted by
                # the retry driver only once they become unrecoverable.
                self.session.note_terminal_error(
                    topic, ETIMEDOUT, self.rank,
                    f"timeout after {timeout:g}s")
            ev.fail(RpcError(topic, f"timeout after {timeout:g}s",
                             code=ETIMEDOUT, rank=self.rank))

        timer.add_callback(expire)
        # Cancel the timer when the response wins the race.
        ev.add_callback(lambda _e: timer.abandon()
                        if not timer.processed else None)

    def rpc_rank(self, dst_rank: int, topic: str,
                 payload: Optional[dict] = None,
                 timeout: Optional[float] = None) -> Event:
        """Rank-addressed RPC routed over the ring overlay."""
        ev = self.sim.event(name=("client-ring:%s@%d", topic, dst_rank))
        msg = Message(topic=topic, mtype=MessageType.RING,
                      payload=payload or {}, src_rank=self.rank,
                      dst_rank=dst_rank)
        msg.ensure_context(
            origin_rank=self.rank,
            deadline=self.sim.now + timeout if timeout is not None else None)
        self._trace_root("ring", topic, msg, ev)
        self._waiters[msg.msgid] = ev
        delay = self._ipc_delay(msg.size())
        t = self.sim.timeout(delay)
        t.add_callback(lambda _e: self._inject_ring(msg))
        if timeout is not None:
            self._arm_timeout(msg.msgid, ev, topic, timeout)
        return ev

    def publish(self, topic: str, payload: Optional[dict] = None) -> None:
        """Publish an event session-wide (pays the IPC hop first)."""
        tr = self.session.span_tracer
        span = None
        if tr is not None:
            span = tr.start_trace("publish", topic, self.rank,
                                  client=self.client_id)
            tr.finish(span)  # fire-and-forget: deliveries are children
        delay = self._ipc_delay(
            Message(topic=topic, payload=payload or {}).size())
        t = self.sim.timeout(delay)
        t.add_callback(
            lambda _e: self.broker.publish(topic, payload or {},
                                           span=span))

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def subscribe(self, prefix: str,
                  fn: Callable[[Message], None]) -> None:
        """Deliver matching events to ``fn`` after the local IPC delay."""
        def relay(msg: Message) -> None:
            t = self.sim.timeout(self._ipc_delay(msg.size()))
            t.add_callback(lambda _e: fn(msg))
        self.broker.subscribe(prefix, relay)
        self._subs.append((prefix, relay))

    def wait_event(self, prefix: str) -> Event:
        """Event firing with the next published message under ``prefix``."""
        ev = self.sim.event(name=("wait-event:%s", prefix))

        def once(msg: Message) -> None:
            if not ev.triggered:
                self.broker.unsubscribe(prefix, relay)
                ev.succeed(msg)

        def relay(msg: Message) -> None:
            t = self.sim.timeout(self._ipc_delay(msg.size()))
            t.add_callback(lambda _e: once(msg))

        self.broker.subscribe(prefix, relay)
        return ev

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self, name: str, nprocs: int) -> Event:
        """Enter the named collective barrier of ``nprocs`` participants;
        fires when every participant has entered."""
        return self.rpc("barrier.enter", {"name": name, "nprocs": nprocs})

    def close(self) -> None:
        """Disconnect: drop subscriptions and the collective registration."""
        for prefix, relay in self._subs:
            try:
                self.broker.unsubscribe(prefix, relay)
            except ValueError:
                pass
        self._subs.clear()
        self.session.disconnect(self)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _ipc_delay(self, size: int) -> float:
        p = self.session.network.params
        return p.ipc_latency + size / p.ipc_bandwidth + p.per_message_overhead

    def _ipc_deliver(self, msg: Message) -> None:
        t = self.sim.timeout(self._ipc_delay(msg.size()))
        # Fresh timeout: assign the first-callback slot directly.
        t._cb1 = (lambda _e: self.broker._route_request(msg, self._source))

    def _inject_ring(self, msg: Message) -> None:
        if msg.dst_rank == self.rank:
            self.broker._route_request(msg, self._source)
        else:
            nxt = self.session.ring.next_rank(self.rank)
            self.broker._register_pending(self._source, msg,
                                          "ring", nxt, "ring")
            self.broker._send(nxt, "ring", msg)

    def _deliver_response(self, resp: Message) -> None:
        """Called by the broker; pays the IPC hop, then wakes the waiter."""
        ev = self._waiters.pop(resp.msgid, None)
        if ev is None or ev.triggered:
            return
        t = self.sim.timeout(self._ipc_delay(resp.size()))

        def finish(_e) -> None:
            if ev.triggered:
                return
            if resp.error is not None:
                ev.fail(RpcError(resp.topic, resp.error,
                                 code=resp.errnum, rank=resp.err_rank))
            else:
                ev.succeed(resp.payload)

        t._cb1 = finish

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Handle client={self.client_id} rank={self.rank}>"
