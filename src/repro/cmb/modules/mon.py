"""``mon`` — heartbeat-synchronized monitoring (Table I).

"Linux scripts stored in the KVS activate heartbeat-synchronized
sampling.  Samples are reduced and stored in the KVS."

Our simulated stand-in for "Linux scripts" is a registry of named
Python sampler callables (e.g. per-node power draw, core utilization).
``mon.activate {name, op}`` at the root announces the metric; from then
on every broker samples locally at each ``hb.pulse`` and the values are
reduced up the tree (sum/min/max/avg) — each broker combines its own
sample with one aggregate per child before forwarding a single message.
Completed per-epoch results are stored at the root: into the KVS under
``mon.<name>.<epoch>`` when the ``kvs`` module is loaded, and always in
the in-memory ``results`` table.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import EINVAL, ENOENT
from ..message import Message
from ..module import CommsModule, request_handler

__all__ = ["MonModule", "REDUCE_OPS"]


def _avg_merge(a: dict, b: dict) -> dict:
    return {"sum": a["sum"] + b["sum"], "n": a["n"] + b["n"]}


#: Supported reduction operators: (merge(acc, x), finalize(acc)).
REDUCE_OPS: dict[str, tuple] = {
    "sum": (lambda a, b: {"sum": a["sum"] + b["sum"], "n": a["n"] + b["n"]},
            lambda a: a["sum"]),
    "max": (lambda a, b: {"sum": max(a["sum"], b["sum"]), "n": a["n"] + b["n"]},
            lambda a: a["sum"]),
    "min": (lambda a, b: {"sum": min(a["sum"], b["sum"]), "n": a["n"] + b["n"]},
            lambda a: a["sum"]),
    "avg": (_avg_merge, lambda a: a["sum"] / max(a["n"], 1)),
}


class _Metric:
    __slots__ = ("name", "op", "pending")

    def __init__(self, name: str, op: str):
        self.name = name
        self.op = op
        # epoch -> {"acc": acc-dict, "contrib": count}
        self.pending: dict[int, dict] = {}


class MonModule(CommsModule):
    """Distributed metric sampling with tree reduction.

    Config
    ------
    samplers:
        ``{name: fn(broker) -> float}`` — the local sampling functions
        (the simulated equivalent of the paper's KVS-stored scripts).
    """

    name = "mon"

    #: Pending epochs older than this many pulses are dropped: their
    #: missing contributions are never coming (lost to a crash that
    #: predates ``live.down``, or to a deactivate racing the pulse).
    STALE_EPOCHS = 8

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
    def _expected(self) -> int:
        """Contributions to wait for: our sample + one per live child."""
        return 1 + sum(1 for c in self.broker.children
                       if self.broker.session.brokers[c].alive)

    def _on_pulse(self, msg: Message) -> None:
        epoch = msg.payload["epoch"]
        for metric in self.active.values():
            fn = self.samplers.get(metric.name)
            if fn is not None:
                value = float(fn(self.broker))
                self._contribute(metric, epoch, {"sum": value, "n": 1})
            # GC epochs whose stragglers can no longer arrive; without
            # this, one crashed-before-detection child leaks a pending
            # slot per metric per pulse forever.
            for old in [e for e in metric.pending
                        if e <= epoch - self.STALE_EPOCHS]:
                del metric.pending[old]
                self._c_stale.inc()

    def _on_down(self, msg: Message) -> None:
        # A child died: every pending epoch that was only waiting for
        # its contribution is now complete.  Deferred one tick so the
        # liveness fanout (and any in-flight samples already queued
        # locally) settle before we re-evaluate.
        def recheck() -> None:
            for metric in list(self.active.values()):
                for epoch in list(metric.pending):
                    self._maybe_complete(metric, epoch)
        self.broker.after(0.0, recheck)

    @request_handler(required=("name", "epoch", "acc", "contrib"))
    def req_sample(self, msg: Message) -> None:
        """A child's partial aggregate for (name, epoch)."""
        p = msg.payload
        metric = self.active.get(p["name"])
        self.respond(msg, {})
        if metric is None:
            return
        self._contribute(metric, p["epoch"], p["acc"], count=p["contrib"])

    def _contribute(self, metric: _Metric, epoch: int, acc: dict,
                    count: int = 1) -> None:
        merge, _ = REDUCE_OPS[metric.op]
        slot = metric.pending.get(epoch)
        if slot is None:
            metric.pending[epoch] = {"acc": acc, "contrib": count}
        else:
            slot["acc"] = merge(slot["acc"], acc)
            slot["contrib"] += count
        self._maybe_complete(metric, epoch)

    def _maybe_complete(self, metric: _Metric, epoch: int) -> None:
        slot = metric.pending.get(epoch)
        if slot is None or slot["contrib"] < self._expected():
            return
        del metric.pending[epoch]
        if self.is_root:
            _, finalize = REDUCE_OPS[metric.op]
            value = finalize(slot["acc"])
            self.results[(metric.name, epoch)] = value
            self._store_kvs(metric.name, epoch, value)
        else:
            self.broker.rpc_parent_cb(
                "mon.sample",
                {"name": metric.name, "epoch": epoch,
                 "acc": slot["acc"], "contrib": 1},
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
        """Root RPC: completed reductions for a metric."""
        name = msg.payload["name"]
        vals = {str(epoch): v for (n, epoch), v in self.results.items()
                if n == name}
        self.respond(msg, {"name": name, "results": vals})
