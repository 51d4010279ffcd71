"""Comms-module plugin framework.

The paper implements Flux services as *comms modules*: "plugins which
are loaded into the CMB address space and pass messages over shared
memory".  A module instance lives inside each broker that loads it;
request messages whose topic head matches the module name are handed to
it, and the tree overlay lets instances of the same module aggregate
("reduce") upstream traffic between them.

Subclasses define request handlers as methods named ``req_<method>``
(``kvs.put`` dispatches to the ``kvs`` module's ``req_put``) and may
subscribe to event topics at :meth:`start` time.

Two service-layer facilities sit on top of the bare ``req_`` discovery:

- a **declarative handler registry** — decorating a handler with
  :func:`request_handler` records its required payload fields and,
  optionally, their types; the dispatcher validates them before the
  handler runs and auto-responds with a structured ``EINVAL`` error on
  violation, so every module gets uniform malformed-request handling
  for free;
- the **upstream proxy** :meth:`CommsModule.proxy_upstream` — the one
  canonical implementation of "forward this request toward the root and
  relay whatever comes back", preserving the request context (deadline,
  origin) on the way up and the structured error (code, failing rank)
  on the way back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from .errors import EINVAL, ENOSYS
from .message import Message, _split_cache, split_topic

if TYPE_CHECKING:  # pragma: no cover
    from .broker import Broker

__all__ = ["CommsModule", "NoHandlerError", "request_handler"]


class NoHandlerError(Exception):
    """A module received a request for a method it does not implement.

    Surfaces to the originating client as ``RpcError(code="ENOSYS")``.
    """

    code = ENOSYS


def request_handler(*, required=()) -> Callable[[Callable], Callable]:
    """Declare payload requirements for a ``req_<method>`` handler.

    ``required`` names payload fields that must be present — a tuple
    of names, or a ``{field: type | (types...) | None}`` mapping that
    also fixes each field's exact type (``None``: any).  A request that
    misses a field or carries a wrong type is answered with a
    structured ``EINVAL`` error before the handler body runs::

        @request_handler(required={"key": str, "value": None})
        def req_put(self, msg): ...

    Undecorated handlers keep the permissive legacy behaviour.
    """

    def mark(fn: Callable) -> Callable:
        fn.__rpc_required__ = tuple(required)
        if isinstance(required, dict):
            fn.__rpc_types__ = tuple(
                (f, t if isinstance(t, tuple) else (t,))
                for f, t in required.items() if t is not None)
        return fn

    return mark


class CommsModule:
    """Base class for CMB service plugins.

    Attributes
    ----------
    name:
        The topic head this module claims (class attribute; subclasses
        must override).
    broker:
        The hosting :class:`~repro.cmb.broker.Broker` — provides
        messaging primitives (respond / rpc_up / publish / after).
    """

    name: str = ""

    #: Per-class handler registry: ``{method: required-field tuple}``,
    #: built once per subclass from the ``req_`` methods it defines.
    _handler_specs: dict[str, tuple[str, ...]] = {}
    #: ``{method: ((field, types), ...)}`` for the required fields whose
    #: type the handler declared.
    _handler_types: dict[str, tuple] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        specs: dict[str, tuple[str, ...]] = {}
        types: dict[str, tuple] = {}
        for klass in reversed(cls.__mro__):
            for attr, fn in vars(klass).items():
                if attr.startswith("req_") and callable(fn):
                    method = attr[len("req_"):]
                    specs[method] = getattr(fn, "__rpc_required__", ())
                    types[method] = getattr(fn, "__rpc_types__", ())
        cls._handler_specs = specs
        cls._handler_types = types

    def __init__(self, broker: "Broker", **config: Any):
        if not self.name:
            raise ValueError(f"{type(self).__name__} must define a name")
        self.broker = broker
        self.config = config
        # Bound-handler memo filled by dispatch_request: getattr on an
        # f-string per request is measurable at KAP scale.
        self._handlers: dict[str, Callable[[Message], None]] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Called once after the whole session is wired up."""

    def shutdown(self) -> None:
        """Called when the session is being torn down."""

    def node_failed(self) -> None:
        """Called by the fault injector when this module's own node
        dies (physical teardown, *not* a protocol notification: the
        broker is already dead and must not send messages).  Modules
        hosting simulated processes override this to kill them — a
        real process does not outlive its node."""

    def sync_metrics(self) -> None:
        """Push module-internal counters into the broker's metrics
        registry.  Called right before a registry snapshot is taken
        (``stats`` RPCs, ``mon`` samplers), so modules that keep their
        own hot-path counters (e.g. the KVS slave cache) need not pay
        registry bookkeeping per operation."""

    # -- dispatch --------------------------------------------------------
    @classmethod
    def handlers(cls) -> dict[str, tuple[str, ...]]:
        """The declarative handler registry: ``{method: required}``."""
        return dict(cls._handler_specs)

    def dispatch_request(self, msg: Message) -> None:
        """Route ``msg`` to ``req_<method>``; raise if unimplemented.

        Requests that fail the handler's declared payload validation
        are answered with a structured ``EINVAL`` error instead of
        reaching the handler body.
        """
        st = _split_cache.get(msg.topic) or split_topic(msg.topic)
        method = st[1] or "default"
        # Existence check against the declarative handler registry —
        # the same per-class table repro.cmb.modules.request_registry()
        # exports to the static analysis layer, so a topic the linter
        # accepts is a topic this dispatcher serves (and vice versa).
        specs = self._handler_specs
        spec = specs.get(method)
        if spec is None and method not in specs:
            raise NoHandlerError(
                f"module {self.name!r} has no handler for "
                f"{msg.topic!r} at rank {self.broker.rank}")
        handler = self._handlers.get(method)
        if handler is None:
            handler = self._handlers[method] = getattr(
                self, "req_" + method)
        if spec:
            payload = msg.payload
            for f in spec:
                if f not in payload:
                    missing = [f for f in spec if f not in payload]
                    self.respond(
                        msg, error=(f"{msg.topic}: missing required "
                                    f"payload field(s) "
                                    f"{', '.join(missing)}"),
                        code=EINVAL)
                    return
            for f, types in self._handler_types[method]:
                if type(payload[f]) not in types:
                    self._bad_field(msg, f, types)
                    return
        handler(msg)

    def _bad_field(self, msg: Message, field: str, types: tuple) -> None:
        self.respond(
            msg, error=(f"{msg.topic}: payload field {field!r} must be "
                        f"{' or '.join(t.__name__ for t in types)}, not "
                        f"{type(msg.payload[field]).__name__}"),
            code=EINVAL)

    def check_field(self, msg: Message, field: str, *types: type) -> bool:
        """Validate an *optional* payload field from inside a handler:
        true when it is absent or of one of ``types`` (exactly, as for
        declared fields); otherwise the request has been answered
        ``EINVAL`` and the handler returns."""
        if field not in msg.payload or type(msg.payload[field]) in types:
            return True
        self._bad_field(msg, field, types)
        return False

    # -- convenience ---------------------------------------------------
    @property
    def rank(self) -> int:
        """Rank of the hosting broker."""
        return self.broker.rank

    @property
    def is_root(self) -> bool:
        """True on the session root (rank 0)."""
        return self.broker.rank == 0

    def respond(self, msg: Message, payload: Optional[dict] = None,
                error: Optional[str] = None, code: Optional[str] = None,
                err_rank: Optional[int] = None,
                payload_size: Optional[int] = None) -> None:
        """Answer a request this module received (possibly much later).

        Error responses carry the structured ``code`` (defaulting to
        ``EPROTO``) and the failing rank — this broker's, unless a
        relayed upstream failure supplies its own ``err_rank``.
        ``payload_size`` pre-seeds the response's wire-size cache when
        the caller already knows the payload's canonical byte size.
        """
        self.broker.respond(msg, payload, error=error, code=code,
                            err_rank=err_rank, payload_size=payload_size)

    def proxy_upstream(self, msg: Message) -> None:
        """Forward ``msg`` to the tree parent and relay the response.

        The canonical "this instance is not authoritative — ask the
        next one up" idiom: the request payload is re-sent under the
        original topic with the original request context (so deadlines
        and origin survive the hop), and the eventual response —
        payload or structured error, including the failing rank — is
        relayed back to ``msg``'s source.
        """

        def relay(resp: Message) -> None:
            if resp.error is not None:
                self.respond(msg, None, error=resp.error,
                             code=resp.errnum, err_rank=resp.err_rank)
                return
            self.respond(msg, dict(resp.payload))

        self.broker.rpc_parent_cb(msg.topic, dict(msg.payload), relay,
                                  ctx=msg.ctx, span=msg.span)

    def log(self, level: str, text: str) -> None:
        """Emit a log record through the session ``log`` module if
        loaded, else silently drop (mirrors optional module loading).
        """
        self.broker.log(level, f"{self.name}: {text}")
