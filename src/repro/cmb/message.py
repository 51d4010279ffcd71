"""CMB wire messages.

The paper specifies a uniform multi-part format: a *header frame*
identifying the recipient through a hierarchical topic namespace
(``kvs.put`` routes to the ``kvs`` comms module, then to its ``put``
handler) plus a free-form *JSON frame* with the payload.

:class:`Message` models both frames.  The network cost model charges
``HEADER_BYTES`` for the header plus the canonical-JSON size of the
payload, so protocol asymmetries (e.g. fence payload concatenation)
show up in simulated latency exactly as they would on the wire.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple, Optional

from ..jsonutil import canonical_size
from .errors import EPROTO

__all__ = ["MessageType", "Message", "RequestContext", "HEADER_BYTES",
           "split_topic"]

#: Fixed header-frame cost: routing envelope, message id, flags, and the
#: request context (request id / origin rank / hop count / deadline) —
#: all small fixed-width fields, so carrying a context never changes a
#: message's wire size.
HEADER_BYTES = 64

_msg_ids = itertools.count(1)


class RequestContext(NamedTuple):
    """Request-scoped metadata carried in the header frame.

    A context is attached where a request *originates* (a client
    :class:`~repro.cmb.api.Handle` or a broker RPC primitive) and rides
    the header frame unchanged through every forward hop and module
    relay, so mid-tree brokers can act on it without parsing payloads:

    - ``reqid`` correlates all hops of one logical request, across
      module-level re-issues (a proxy relay creates a fresh ``msgid``
      per hop but preserves the ``reqid``).
    - ``origin_rank`` is the rank whose client/service started it.
    - ``deadline`` is an *absolute simulated time*; brokers check it on
      every forward hop and answer ``ETIMEDOUT`` instead of forwarding
      a request that can no longer meet it.

    - ``failfast`` (a header flag) marks an idempotent read nobody
      upstream holds on purpose: a hop whose retransmission budget or
      deadline is spent answers ``ETIMEDOUT`` instead of going silent,
      so whoever coalesced other requests behind it can move on.

    The per-message hop count lives in :attr:`Message.hops` (it is a
    property of the message's path, not of the logical request) but is
    part of the same fixed-size header frame (immutable: see ``_replace``).
    """

    reqid: int
    origin_rank: int = -1
    deadline: Optional[float] = None
    failfast: bool = False

    def expired(self, now: float) -> bool:
        """True once ``now`` has passed the deadline (if any)."""
        return self.deadline is not None and now > self.deadline


class MessageType(Enum):
    """The four CMB message classes carried over the overlay planes."""

    REQUEST = "request"    # routed upstream to the first matching module
    RESPONSE = "response"  # retraces the request's hops in reverse
    EVENT = "event"        # published session-wide on the event plane
    RING = "ring"          # rank-addressed request on the ring overlay


_REQUEST, _RESPONSE = MessageType.REQUEST, MessageType.RESPONSE

#: Memoized topic splits.  Sessions use a small fixed topic vocabulary
#: (module registries plus a handful of per-namespace heads), but
#: split_topic runs several times per message hop, so the dict lookup
#: replaces a string partition + tuple build on the hottest broker
#: paths.  Bounded so pathological dynamic topics cannot grow it
#: without limit (entries past the cap are computed but not cached).
_split_cache: dict[str, tuple[str, str]] = {}
_SPLIT_CACHE_CAP = 4096


def split_topic(topic: str) -> tuple[str, str]:
    """Split ``"kvs.put"`` into ``("kvs", "put")``.

    A bare module name maps to the module's default handler ``""``.
    """
    hit = _split_cache.get(topic)
    if hit is None:
        if not topic:
            raise ValueError("empty topic")
        head, _, rest = topic.partition(".")
        hit = (head, rest)
        if len(_split_cache) < _SPLIT_CACHE_CAP:
            _split_cache[topic] = hit
    return hit


@dataclass(slots=True)
class Message:
    """One CMB message (header frame + JSON payload frame).

    Attributes
    ----------
    topic:
        Hierarchical service address, e.g. ``"kvs.commit"``.
    mtype:
        One of :class:`MessageType`.
    payload:
        JSON-able dict (the paper's free-form JSON frame).
    msgid:
        Unique id used to correlate responses with requests.
    src_rank:
        Rank that originated the message.
    dst_rank:
        Target rank for RING messages (ignored otherwise).
    error:
        Error string on failed RESPONSEs (``None`` on success).
    errnum:
        Symbolic error code (see :mod:`repro.cmb.errors`) on failed
        RESPONSEs; rides the header frame next to ``error``.
    err_rank:
        Session rank where the error originated (``-1`` if none).
    hops:
        Number of broker hops taken so far (header-frame field).
    ctx:
        The :class:`RequestContext` of the logical request this message
        belongs to (``None`` for events and for one-way requests, which
        nobody waits on a reply to).  Carried in the fixed-size header
        frame: attaching a context does not change :meth:`size`.
    span:
        Tracing context ``(trace_id, span_id)`` of the span that sent
        this message (``None`` when tracing is off).  Two small
        fixed-width ids in the header frame, so — like ``ctx`` — a
        span never changes :meth:`size`.
    """

    topic: str
    mtype: MessageType = MessageType.REQUEST
    payload: dict = field(default_factory=dict)
    msgid: int = field(default_factory=lambda: next(_msg_ids))
    src_rank: int = -1
    dst_rank: int = -1
    error: Optional[str] = None
    errnum: Optional[str] = None
    err_rank: int = -1
    hops: int = 0
    ctx: Optional[RequestContext] = None
    span: Optional[tuple] = None
    # Cached wire size: payloads are treated as immutable once a message
    # is built, and size() is evaluated on every forwarding hop —
    # re-serializing a multi-megabyte directory object per hop would
    # dominate simulation time (profiled at ~25%).
    _size_cache: Optional[int] = field(default=None, repr=False,
                                       compare=False)
    # Broker-attached delivery bookkeeping (`slots=True` forbids ad-hoc
    # attributes): the response route, the dispatching broker, the
    # dispatch timestamp and span.  Never copied across hops — see
    # :meth:`copy` — and excluded from equality/repr like _size_cache.
    _source: Any = field(default=None, repr=False, compare=False)
    _broker: Any = field(default=None, repr=False, compare=False)
    _obs_t0: Optional[float] = field(default=None, repr=False,
                                     compare=False)
    _obs_span: Any = field(default=None, repr=False, compare=False)

    @staticmethod
    def request(topic: str, payload: dict, src_rank: int,
                ctx: Optional[RequestContext] = None,
                span: Optional[tuple] = None,
                deadline: Optional[float] = None,
                payload_size: Optional[int] = None) -> "Message":
        """A REQUEST from ``src_rank`` carrying ``ctx`` (else a fresh
        context with ``deadline``), built by slot assignment, which is
        cheaper than the generated ``__init__``; ``payload_size``
        pre-seeds the wire size."""
        new = Message.__new__(Message)
        new.topic, new.payload, new.hops = topic, payload, 0
        new.mtype, new.span = _REQUEST, span
        new.msgid = msgid = next(_msg_ids)
        new.src_rank, new.dst_rank, new.err_rank = src_rank, -1, -1
        new.error = new.errnum = new._source = new._broker = None
        new._obs_t0 = new._obs_span = None
        new.ctx = (ctx if ctx is not None
                   else RequestContext(msgid, src_rank, deadline))
        new._size_cache = (None if payload_size is None
                           else HEADER_BYTES + payload_size)
        return new

    def size(self) -> int:
        """Wire size in bytes: fixed header + canonical JSON payload."""
        if self._size_cache is None:
            self._size_cache = HEADER_BYTES + canonical_size(self.payload)
        return self._size_cache

    def module_name(self) -> str:
        """The module component of :attr:`topic` (``kvs`` of ``kvs.put``)."""
        return split_topic(self.topic)[0]

    def method_name(self) -> str:
        """The handler component of :attr:`topic` (``put`` of ``kvs.put``)."""
        return split_topic(self.topic)[1]

    def ensure_context(self, origin_rank: int = -1,
                       deadline: Optional[float] = None) -> RequestContext:
        """Attach (or return the existing) request context.

        Called at the request's origin; forward hops and proxy relays
        then carry the same frozen context object untouched.
        """
        if self.ctx is None:
            self.ctx = RequestContext(reqid=self.msgid,
                                      origin_rank=origin_rank,
                                      deadline=deadline)
        return self.ctx

    def make_response(self, payload: Optional[dict] = None,
                      error: Optional[str] = None,
                      errnum: Optional[str] = None,
                      err_rank: int = -1) -> "Message":
        """Build the RESPONSE correlated with this REQUEST/RING message.

        Failed responses should carry a symbolic ``errnum`` (see
        :mod:`repro.cmb.errors`) and the failing rank; both propagate
        losslessly through multi-hop relays back to the originator.
        """
        if error is not None:
            if errnum is None:
                errnum = EPROTO
        else:
            errnum = None
            err_rank = -1
        new = Message.__new__(Message)
        new.topic = self.topic
        new.mtype = _RESPONSE
        new.payload = payload if payload is not None else {}
        new.msgid = self.msgid
        new.src_rank = self.src_rank
        new.dst_rank = self.dst_rank
        new.error = error
        new.errnum = errnum
        new.err_rank = err_rank
        new.hops = 0
        new.ctx = self.ctx
        new.span = self.span
        new._size_cache = None
        new._source = None
        new._broker = None
        new._obs_t0 = None
        new._obs_span = None
        return new

    def copy(self, **changes: Any) -> "Message":
        """Shallow copy with field overrides (fresh msgid NOT assigned).

        Implemented as explicit slot assignments instead of
        ``dataclasses.replace`` — this runs on every forwarding hop, and
        ``replace`` pays a full keyword-argument ``__init__`` per call.
        The size cache survives unless the payload is overridden;
        broker-attached delivery bookkeeping never propagates to the
        copy (matching the old ``__dict__``-attribute behaviour).
        """
        new = Message.__new__(Message)
        new.topic = self.topic
        new.mtype = self.mtype
        new.payload = self.payload
        new.msgid = self.msgid
        new.src_rank = self.src_rank
        new.dst_rank = self.dst_rank
        new.error = self.error
        new.errnum = self.errnum
        new.err_rank = self.err_rank
        new.hops = self.hops
        new.ctx = self.ctx
        new.span = self.span
        new._size_cache = self._size_cache
        new._source = None
        new._broker = None
        new._obs_t0 = None
        new._obs_span = None
        if changes:
            if "payload" in changes and "_size_cache" not in changes:
                changes["_size_cache"] = None
            for name, value in changes.items():
                setattr(new, name, value)
        return new
