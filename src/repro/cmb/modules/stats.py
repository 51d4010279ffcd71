"""``stats`` — broker introspection over the wire.

Mirrors real Flux's ``module.stats.get``: any client can snapshot any
broker's metrics registry by RPC, and — because registries are
mergeable (counters sum, log-bucketed histograms add bucket-wise) — a
single ``stats.aggregate`` RPC at the root tree-reduces a session-wide
aggregate without ever shipping raw samples:

- ``stats.get`` — the local broker's registry snapshot (route with
  ``Handle.rpc_rank`` to reach a specific rank, or plain ``rpc`` for
  the first broker on the upstream path).
- ``stats.aggregate`` — recursive: each instance fans out to its tree
  children (``broker.children``), merges their subtree aggregates with
  its own snapshot, and answers one merged snapshot upward.  Asking
  rank 0 yields the whole session; asking an interior rank yields its
  subtree.

:func:`registry_samplers` additionally exposes headline registry
values as ``mon`` sampler callables, so activating them captures a
heartbeat-synchronized time series of e.g. request throughput for
free (stored in the KVS by the ``mon`` reduction, as per Table I).
"""

from __future__ import annotations

from typing import Callable

from ...obs import merge_snapshots
from ..message import Message
from ..module import CommsModule

__all__ = ["StatsModule", "registry_samplers"]


def registry_samplers() -> dict[str, Callable]:
    """``mon`` samplers over the broker's metrics registry.

    Names are ``stats.<what>``; activate with
    ``handle.rpc("mon.activate", {"name": "stats.requests", "op":
    "sum"})`` to get per-epoch session totals in the KVS.
    """
    return {
        "stats.requests":
            lambda broker: float(broker.requests_handled),
        "stats.events":
            lambda broker: float(broker.events_seen),
        "stats.retransmits":
            lambda broker: float(broker.retransmits),
        "stats.inbox_p95":
            lambda broker: broker.inbox_histogram().quantile(0.95),
    }


class StatsModule(CommsModule):
    """Registry snapshot / tree-reduced aggregate service.

    Loaded everywhere by :func:`repro.standard_session`.  Completely
    passive until queried: it subscribes to nothing, arms no timers,
    and sends no messages on its own, so loading it cannot perturb a
    simulation.
    """

    name = "stats"

    def req_get(self, msg: Message) -> None:
        """Snapshot this broker's registry (module counters synced)."""
        self.respond(msg, {"rank": self.rank,
                           "stats": self.broker.metrics_snapshot()})

    def req_aggregate(self, msg: Message) -> None:
        """Tree-reduced registry aggregate over this broker's subtree:
        its own snapshot merged with one answer per child in its own
        ``broker.children``.  A child killed but not yet declared down
        answers ``EHOSTUNREACH`` once ``live.down`` fails the pending
        hop, and is left out."""
        broker = self.broker
        waiting = list(broker.children)
        parts = [broker.metrics_snapshot()]
        ranks = [1]

        def finish() -> None:
            self.respond(msg, {"ranks": sum(ranks),
                               "agg": merge_snapshots(parts)})

        def child_done(resp: Message) -> None:
            waiting.pop()
            if resp.error is None:
                # Child aggregates carry no rank labels; merging an
                # aggregate with raw snapshots is well-defined because
                # merge keys ignore the dropped labels either way.
                parts.append(resp.payload["agg"])
                ranks.append(resp.payload["ranks"])
            if not waiting:
                finish()

        if not waiting:
            finish()
        for child in list(waiting):
            broker.rpc_hop_cb(child, "stats.aggregate", {},
                              child_done, ctx=msg.ctx, span=msg.span)
