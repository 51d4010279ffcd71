"""``mon`` — heartbeat-synchronized monitoring (Table I).

"Linux scripts stored in the KVS activate heartbeat-synchronized
sampling.  Samples are reduced and stored in the KVS."

Our simulated stand-in for "Linux scripts" is a registry of named
Python sampler callables (e.g. per-node power draw, core utilization).
``mon.activate {name, op}`` at the root announces the metric; from then
on every broker samples locally at each ``hb.pulse`` and the values are
reduced up the tree (sum/min/max/avg, :mod:`.reduce`) — each broker
combines its own sample with one per child in ``broker.children``
before forwarding a single message.  Completed per-epoch results are
stored at the root: into the KVS under ``mon.<name>.<epoch>`` when the
``kvs`` module is loaded, and always in the in-memory ``results``
table, which keeps the newest ones.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from ..errors import EINVAL, ENOENT
from ..message import Message
from ..module import CommsModule, request_handler
from .reduce import HISTORY, TreeReduce

__all__ = ["MonModule", "REDUCE_OPS"]


def _fold(f: Callable) -> Callable:
    """A merge of ``{"sum", "n"}`` accumulators folding ``sum`` by ``f``."""
    return lambda a, b: {"sum": f(a["sum"], b["sum"]), "n": a["n"] + b["n"]}


_SUM = operator.itemgetter("sum")
#: Supported reduction operators: (merge(acc, x), finalize(acc)).
REDUCE_OPS: dict[str, tuple] = {
    "sum": (_fold(operator.add), _SUM),
    "max": (_fold(max), _SUM),
    "min": (_fold(min), _SUM),
    "avg": (_fold(operator.add), lambda a: a["sum"] / max(a["n"], 1)),
}


class _Metric:
    __slots__ = ("name", "op", "pending")

    def __init__(self, name: str, op: str):
        self.name = name
        self.op = op
        self.pending = TreeReduce(REDUCE_OPS[op][0])     # epoch -> Slot


class MonModule(CommsModule):
    """Distributed metric sampling with tree reduction.

    Config
    ------
    samplers:
        ``{name: fn(broker) -> float}`` — the local sampling functions
        (the simulated equivalent of the paper's KVS-stored scripts).
    """

    name = "mon"

    def __init__(self, broker, *,
                 samplers: Optional[dict[str, Callable]] = None):
        super().__init__(broker, samplers=samplers)
        self.samplers = samplers or {}
        self.active: dict[str, _Metric] = {}
        # Root only: completed reductions {(name, epoch): value}.
        self.results: dict[tuple[str, int], float] = {}
        self._c_stale = broker.registry.counter(
            "mon_stale_epochs_dropped_total")

    def start(self) -> None:
        self.broker.subscribe("hb.pulse", self._on_pulse)
        self.broker.subscribe("mon.activate", self._on_activate)
        self.broker.subscribe("mon.deactivate", self._on_deactivate)
        self.broker.subscribe("live.down", self._on_down)

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    @request_handler(required=("name",))
    def req_activate(self, msg: Message) -> None:
        """Root RPC: start sampling ``{name, op}`` session-wide."""
        name = msg.payload["name"]
        op = msg.payload.get("op", "sum")
        if op not in REDUCE_OPS:
            self.respond(msg, error=f"unknown reduce op {op!r}",
                         code=EINVAL)
            return
        if name not in self.samplers:
            self.respond(msg, error=f"unknown sampler {name!r}",
                         code=ENOENT)
            return
        self.broker.publish("mon.activate", {"name": name, "op": op})
        self.respond(msg, {"name": name, "op": op})

    @request_handler(required=("name",))
    def req_deactivate(self, msg: Message) -> None:
        """Stop sampling a metric."""
        self.broker.publish("mon.deactivate", {"name": msg.payload["name"]})
        self.respond(msg, {})

    def _on_activate(self, msg: Message) -> None:
        name = msg.payload["name"]
        if name not in self.active:
            self.active[name] = _Metric(name, msg.payload["op"])

    def _on_deactivate(self, msg: Message) -> None:
        self.active.pop(msg.payload["name"], None)

    # ------------------------------------------------------------------
    # sampling + reduction
    # ------------------------------------------------------------------
    def _on_pulse(self, msg: Message) -> None:
        epoch = msg.payload["epoch"]
        for metric in self.active.values():
            fn = self.samplers.get(metric.name)
            if fn is not None:
                value = float(fn(self.broker))
                metric.pending.slot(epoch).put(self.rank, 1,
                                                {"sum": value, "n": 1})
                self._maybe_complete(metric, epoch)
            self._c_stale.inc(metric.pending.gc(epoch))
            if self.is_root and metric.pending.stalled():
                # A rank below may have lost the activation (events are
                # not repaired): announce it again.
                self.broker.publish("mon.activate",
                                    {"name": metric.name, "op": metric.op})

    def _on_down(self, msg: Message) -> None:
        """A child died: every epoch that was waiting only for it
        completes — one tick later, once ``live`` has taken it out of
        ``broker.children``.  Nothing pending, nothing to do."""
        def recheck() -> None:
            for metric in list(self.active.values()):
                for epoch in list(metric.pending):
                    self._maybe_complete(metric, epoch)
        if any(metric.pending for metric in self.active.values()):
            self.broker.after(0.0, recheck)

    @request_handler(required=("name", "epoch", "acc"))
    def req_sample(self, msg: Message) -> None:
        """A child's partial aggregate for (name, epoch)."""
        p = msg.payload
        metric = self.active.get(p["name"])
        self.respond(msg, {})
        if metric is not None and metric.pending.slot(p["epoch"]).put(
                msg.src_rank, 1, p["acc"]):
            self._maybe_complete(metric, p["epoch"])

    def _maybe_complete(self, metric: _Metric, epoch: int) -> None:
        acc = metric.pending.take(epoch,
                                  [self.rank, *self.broker.children])
        if acc is None:
            return
        if self.is_root:
            _, finalize = REDUCE_OPS[metric.op]
            value = finalize(acc)
            self.results[(metric.name, epoch)] = value
            if len(self.results) > HISTORY:
                del self.results[next(iter(self.results))]
            self._store_kvs(metric.name, epoch, value)
        else:
            self.broker.rpc_parent_cb(
                "mon.sample",
                {"name": metric.name, "epoch": epoch, "acc": acc},
                lambda resp: None)

    def _store_kvs(self, name: str, epoch: int, value: float) -> None:
        # Through the KVS module's in-broker write API, never around it:
        # a commit applied behind the module's back skips the
        # replication log and wedges every standby on the missing
        # version.
        kvs = self.broker.modules.get("kvs")
        if kvs is None:
            return
        kvs.local_put(("mon", name), f"mon.{name}.{epoch}", value)
        kvs.local_commit(("mon", name))

    # ------------------------------------------------------------------
    @request_handler(required=("name",))
    def req_results(self, msg: Message) -> None:
        """Root RPC: completed reductions for a metric (the newest
        ``HISTORY``; older ones stay in the KVS)."""
        name = msg.payload["name"]
        vals = {str(epoch): v for (n, epoch), v in self.results.items()
                if n == name}
        self.respond(msg, {"name": name, "results": vals})
