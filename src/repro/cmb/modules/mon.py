"""``mon`` — heartbeat-synchronized monitoring (Table I).

"Linux scripts stored in the KVS activate heartbeat-synchronized
sampling.  Samples are reduced and stored in the KVS."

Our stand-in for "Linux scripts" is a registry of named Python
sampler callables (e.g. per-node power draw).  ``mon.activate {name,
op}`` at the root announces a metric; from then on every broker samples
at each ``hb.pulse`` and the epoch is reduced up the tree
(:mod:`.reduce`): a broker folds its own contribution with one per
child in ``broker.children`` and forwards one message.  A metric's op
entry (:data:`REDUCE_OPS`) is all that differs per metric: the
contribution, the join and the root's action.  The scalar ops store
each result in the KVS as ``mon.<name>.<epoch>``; the ``health`` op
(:mod:`.health`) keeps a cluster view and has ``mon.update`` published
when its state changes.  The root keeps each metric's newest
``HISTORY`` results in memory.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, NamedTuple, Optional

from ..errors import EINVAL, ENOENT
from ..message import Message
from ..module import CommsModule, request_handler
from . import health
from .reduce import HISTORY, TreeReduce

__all__ = ["MonModule", "Op", "REDUCE_OPS"]


class Op(NamedTuple):
    """A metric kind: what the one epoch path does per metric."""
    params: Callable    # (payload, samplers) -> the op's activation fields
    read: Callable      # (metric, broker, advance) -> sample | None
    contribution: Callable       # sample -> this rank's share
    join: Callable               # (share, share) -> share
    result: Callable             # (share, epoch, now) -> kept at the root
    update: Callable             # (last result, result) -> mon.update | None
    store: bool                  # results go to the KVS


def _sampled(payload: dict, samplers: dict) -> dict:
    if payload["name"] not in samplers:
        raise LookupError(f"unknown sampler {payload['name']!r}")
    return {}


def _scalar(fold: Callable, finalize: Callable) -> Op:
    """An op over a named sampler's float, folding ``{"sum", "n"}``."""
    return Op(
        params=_sampled,
        read=lambda metric, broker, advance=False: (
            None if metric.sampler is None
            else float(metric.sampler(broker))),
        contribution=lambda x: {"sum": x, "n": 1},
        join=lambda a, b: {"sum": fold(a["sum"], b["sum"]),
                           "n": a["n"] + b["n"]},
        result=lambda acc, _epoch, _now: finalize(acc),
        update=lambda _last, _value: None, store=True)


_SUM = operator.itemgetter("sum")
#: Supported reduction operators.
REDUCE_OPS: dict[str, Op] = {
    "sum": _scalar(operator.add, _SUM),
    "max": _scalar(max, _SUM),
    "min": _scalar(min, _SUM),
    "avg": _scalar(operator.add, lambda a: a["sum"] / max(a["n"], 1)),
    "health": Op(health.params, health.read, health.contribution,
                 health.merge, health.view, health.transition,
                 store=False),
}


class _Metric:
    __slots__ = ("spec", "op", "sampler", "pending", "base")

    def __init__(self, spec: dict, sampler: Optional[Callable]):
        self.spec = spec          # the activation: name, op, op's params
        self.op = REDUCE_OPS[spec["op"]]
        self.sampler = sampler
        self.pending = TreeReduce(self.op.join)     # epoch -> Slot
        self.base: Any = None     # where the next sample's deltas start


class MonModule(CommsModule):
    """Distributed metric sampling with tree reduction; ``samplers``
    (``{name: fn(broker) -> float}``) stand in for the paper's
    KVS-stored scripts."""

    name = "mon"

    def __init__(self, broker, *,
                 samplers: Optional[dict[str, Callable]] = None):
        super().__init__(broker, samplers=samplers)
        self.samplers = samplers or {}
        self.active: dict[str, _Metric] = {}
        # Root only: name -> {epoch: result}, in completion order.
        self.results: dict[str, dict[int, Any]] = {}
        self._c_stale = broker.registry.counter(
            "mon_stale_epochs_dropped_total")

    def start(self) -> None:
        self.broker.subscribe("hb.pulse", self._on_pulse)
        self.broker.subscribe("mon.activate", self._on_activate)
        self.broker.subscribe("mon.deactivate", self._on_deactivate)
        self.broker.subscribe("live.down", self._on_down)

    @request_handler(required=("name",))
    def req_activate(self, msg: Message) -> None:
        """Root RPC: start sampling ``{name, op}`` session-wide, with
        the op's own fields (health's ``thresholds``).  A params error
        is LookupError (ENOENT) or TypeError (EINVAL)."""
        op = msg.payload.get("op", "sum")
        if op not in REDUCE_OPS:
            self.respond(msg, error=f"unknown reduce op {op!r}",
                         code=EINVAL)
            return
        try:
            spec = {"name": msg.payload["name"], "op": op,
                    **REDUCE_OPS[op].params(msg.payload, self.samplers)}
        except LookupError as exc:
            self.respond(msg, error=str(exc), code=ENOENT)
            return
        except TypeError as exc:
            self.respond(msg, error=str(exc), code=EINVAL)
            return
        self.broker.publish("mon.activate", spec)
        self.respond(msg, spec)

    @request_handler(required=("name",))
    def req_deactivate(self, msg: Message) -> None:
        """Stop sampling a metric."""
        self.broker.publish("mon.deactivate", {"name": msg.payload["name"]})
        self.respond(msg, {})

    def _on_activate(self, msg: Message) -> None:
        spec = msg.payload
        metric = self.active.get(spec["name"])
        if metric is None or metric.spec["op"] != spec["op"]:
            metric = self.active[spec["name"]] = _Metric(
                spec, self.samplers.get(spec["name"]))
            metric.op.read(metric, self.broker, True)   # deltas start here
        metric.spec = spec

    def _on_deactivate(self, msg: Message) -> None:
        self.active.pop(msg.payload["name"], None)

    def _on_pulse(self, msg: Message) -> None:
        epoch = msg.payload["epoch"]
        for metric in self.active.values():
            sample = metric.op.read(metric, self.broker, True)
            if sample is not None:
                metric.pending.slot(epoch).put(
                    self.rank, 1, metric.op.contribution(sample))
                self._maybe_complete(metric, epoch)
            self._c_stale.inc(metric.pending.gc(epoch))
            if self.is_root and metric.pending.stalled():
                # A rank below may have lost the activation (events are
                # not repaired): announce it again.
                self.broker.publish("mon.activate", metric.spec)

    def _on_down(self, msg: Message) -> None:
        """A child died: the epochs waiting only for it complete one
        tick later, once ``live`` took it out of ``broker.children``."""
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
        name, op = metric.spec["name"], metric.op
        if not self.is_root:
            self.broker.rpc_parent_cb(
                "mon.sample", {"name": name, "epoch": epoch, "acc": acc},
                lambda resp: None)
            return
        done = self.results.setdefault(name, {})
        last = done[next(reversed(done))] if done else None
        value = done[epoch] = op.result(acc, epoch, self.broker.sim.now)
        if len(done) > HISTORY:
            del done[next(iter(done))]
        update = op.update(last, value)
        if update is not None:
            self.broker.publish("mon.update", {"name": name, **update})
        kvs = self.broker.modules.get("kvs")
        if op.store and kvs is not None:
            # Through the KVS module's in-broker write API, never around
            # it: a commit applied behind the module's back skips the
            # replication log and wedges every standby.
            kvs.local_put(("mon", name), f"mon.{name}.{epoch}", value)
            kvs.local_commit(("mon", name))

    @request_handler(required=("name",))
    def req_results(self, msg: Message) -> None:
        """Root RPC: a metric's completed results, by epoch (the newest
        ``HISTORY``; a scalar's older ones stay in the KVS)."""
        name = msg.payload["name"]
        done = self.results.get(name, {})
        self.respond(msg, {"name": name,
                           "results": {str(e): v for e, v in done.items()}})

    @request_handler(required=("name",))
    def req_local(self, msg: Message) -> None:
        """Any rank: its sample of an active metric right now.  A read
        only: the epoch in progress still reports what it saw."""
        name = msg.payload["name"]
        metric = self.active.get(name)
        if metric is None:
            self.respond(msg, error=f"metric {name!r} not active here",
                         code=ENOENT)
            return
        self.respond(msg, {"name": name,
                           "sample": metric.op.read(metric, self.broker)})
