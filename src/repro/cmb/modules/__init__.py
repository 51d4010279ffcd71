"""The Table I comms modules — and the canonical topic registry.

Every service the paper lists as a prototyped plugin: heartbeat
(``hb``), liveness (``live``), log reduction (``log``), monitoring
(``mon``), process groups (``group``), collective barriers
(``barrier``), bulk execution (``wexec``) and the resource service
(``resvc``).  The ninth, ``kvs``, lives in :mod:`repro.kvs.module`.

This package is also the **single source of truth** for what topics
exist in a session:

- :func:`module_classes` maps every module's topic head to its class;
- :func:`request_registry` derives ``{module: frozenset(methods)}``
  from each class's declarative handler table
  (:meth:`~repro.cmb.module.CommsModule.handlers`) — the same table
  the broker dispatcher consults before answering ``ENOSYS``;
- :data:`EVENT_TOPICS` enumerates every event-plane topic the modules
  publish or subscribe to.

The static analysis layer (:mod:`repro.analysis.lint`) cross-checks
``rpc(...)``/``publish(...)`` call sites against these tables, so a
topic typo that would surface as a runtime ``ENOSYS`` is caught at
lint time — from the very registry the runtime itself dispatches on.
"""

from .barrier import BarrierModule
from .group import GroupModule
from .hb import HeartbeatModule
from .jobmgr import JobManagerModule
from .live import LiveModule
from .log import LogModule
from .mon import MonModule
from .resvc import ResvcModule
from .stats import StatsModule, registry_samplers
from .wexec import TaskContext, WexecModule

__all__ = [
    "BarrierModule", "GroupModule", "HeartbeatModule",
    "JobManagerModule", "LiveModule",
    "LogModule", "MonModule", "ResvcModule", "StatsModule",
    "TaskContext", "WexecModule", "registry_samplers",
    "EVENT_TOPICS", "module_classes", "request_registry", "request_topics",
]

#: Every event-plane topic published (or relied upon via subscription)
#: by the standard module set.  ``fault`` is the paper's fault event
#: that makes every ``log`` instance dump its circular debug buffer.
EVENT_TOPICS = frozenset({
    "hb.pulse",
    "live.down",
    "live.reattach",
    "barrier.exit",
    "group.update",
    "mon.activate",
    "mon.deactivate",
    "mon.update",
    "wexec.start",
    "wexec.signal",
    "wexec.done",
    "wexec.respawn",
    "wexec.lost",
    "job.state",
    "kvs.setroot",
    "kvs.delegation",
    "kvs.newmaster",
    "fault",
})


def module_classes() -> dict:
    """Topic head -> module class for the full Table I set.

    The ``kvs`` module lives in :mod:`repro.kvs` and is imported
    lazily here so that importing this package never cycles through
    the KVS client stack.
    """
    from ...kvs.module import KvsModule
    return {
        BarrierModule.name: BarrierModule,
        GroupModule.name: GroupModule,
        HeartbeatModule.name: HeartbeatModule,
        JobManagerModule.name: JobManagerModule,
        LiveModule.name: LiveModule,
        LogModule.name: LogModule,
        MonModule.name: MonModule,
        ResvcModule.name: ResvcModule,
        StatsModule.name: StatsModule,
        WexecModule.name: WexecModule,
        KvsModule.name: KvsModule,
    }


def request_registry() -> dict:
    """``{module: frozenset(handler methods)}`` for every module.

    Derived from each class's ``req_``-handler table — exactly the
    table :meth:`CommsModule.dispatch_request` checks before raising
    ``NoHandlerError`` (ENOSYS), so the linter and the runtime agree
    by construction.
    """
    return {name: frozenset(cls.handlers())
            for name, cls in module_classes().items()}


def request_topics() -> frozenset:
    """Every routable ``module.method`` request topic as a flat set
    (a bare module name addresses its ``default`` handler)."""
    out = set()
    for mod, methods in request_registry().items():
        for method in methods:
            out.add(f"{mod}.{method}" if method != "default" else mod)
            if method == "default":
                out.add(f"{mod}.default")
    return frozenset(out)
