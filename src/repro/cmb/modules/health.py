"""``health`` — tree-reduced cluster health (live observability plane).

Zhang et al.'s monitoring study (PAPERS.md) argues hierarchical
information services must be bounded-overhead and tree-aggregated;
this module applies that to *self*-monitoring.  Once activated
(``health.activate``), every broker samples its own vitals at each
``hb.pulse`` — inbox depth/peak, in-flight forwarded RPCs, retry
amplification over the last epoch, KVS dirty ops / held fences /
version waiters, wexec respawn burn, flight-ring pressure — classifies
itself ``ok`` / ``degraded`` / ``overloaded`` against
``DEFAULT_THRESHOLDS`` merged with the activation's overrides, and
reduces the classification census up the tree exactly
like :mod:`~repro.cmb.modules.mon` (one message per broker per epoch).

The root folds the census into a cluster state (worst state with at
least ``quorum_frac`` of one broker, i.e. any non-ok broker degrades
the cluster) and publishes a ``health.update`` event *only on state
transitions*, so a healthy session pays one reduction per heartbeat
and zero event fanouts.

Like ``mon``, the module is passive until activated: loading it adds
subscriptions only, so fault-free event streams (and their replay
fingerprints) are untouched.
"""

from __future__ import annotations

import operator

from ..message import Message
from ..module import CommsModule, request_handler
from .reduce import HISTORY, TreeReduce

__all__ = ["HealthModule", "HEALTH_STATES"]

#: Classification ladder; index = severity.
HEALTH_STATES = ("ok", "degraded", "overloaded")


#: Aggregate field -> (the sample field it starts from, its fold); an
#: aggregate also has ``counts`` (brokers per state) and ``worst``.
_FIELDS = {"inbox_sum": ("inbox_depth", operator.add),
           "inbox_max": ("inbox_peak", max),
           "pending_max": ("pending_rpcs", max),
           "retry_amp_max": ("retry_amp", max),
           "dirty_sum": ("dirty_ops", operator.add),
           "respawn_sum": ("respawn_delta", operator.add)}


def _merge(a: dict, b: dict) -> dict:
    """Fold two partial health aggregates (associative/commutative)."""
    acc = {k: fold(a[k], b[k]) for k, (_f, fold) in _FIELDS.items()}
    acc["counts"] = [x + y for x, y in zip(a["counts"], b["counts"])]
    acc["worst"] = max(a["worst"], b["worst"])
    return acc


class HealthModule(CommsModule):
    """Periodic self-health snapshots, tree-reduced to a cluster view.

    Classification thresholds are ``DEFAULT_THRESHOLDS`` until an
    activation installs its own overrides merged over them.
    """

    name = "health"

    DEFAULT_THRESHOLDS = {
        "inbox_degraded": 16, "inbox_overloaded": 64,
        "pending_degraded": 32, "pending_overloaded": 128,
        "retry_amp_degraded": 0.5, "retry_amp_overloaded": 2.0,
    }

    def __init__(self, broker):
        super().__init__(broker)
        self.thresholds = dict(self.DEFAULT_THRESHOLDS)
        self.active = False
        self._epochs = TreeReduce(_merge)           # epoch -> Slot
        # Root only: the newest HISTORY completed cluster views.
        self.views: list[dict] = []
        self.cluster_state = "unknown"
        # Baselines for per-epoch deltas (retry amplification).
        self._base = {"retransmits": 0, "reroutes": 0, "requests": 0,
                      "respawns": 0}
        self._g_state = broker.registry.gauge("health_state")
        self._c_transitions = broker.registry.counter(
            "health_transitions_total")

    def start(self) -> None:
        self.broker.subscribe("hb.pulse", self._on_pulse)
        self.broker.subscribe("health.activate", self._on_activate)
        self.broker.subscribe("health.deactivate", self._on_deactivate)
        self.broker.subscribe("live.down", self._on_down)

    # ------------------------------------------------------------------
    # activation (root RPCs -> session-wide events)
    # ------------------------------------------------------------------
    def req_activate(self, msg: Message) -> None:
        """Root RPC: start health sampling session-wide.  A
        ``thresholds`` dict in the payload overrides
        ``DEFAULT_THRESHOLDS`` on every broker (partial dicts merge);
        overrides of an earlier activation do not carry over."""
        if not self.check_field(msg, "thresholds", dict, type(None)):
            return
        th = self._merged_thresholds(msg)
        self.broker.publish("health.activate", {"thresholds": th})
        self.respond(msg, {"active": True, "thresholds": th})

    def req_deactivate(self, msg: Message) -> None:
        self.broker.publish("health.deactivate", {})
        self.respond(msg, {"active": False})

    def _on_activate(self, msg: Message) -> None:
        self.thresholds = self._merged_thresholds(msg)
        if not self.active:
            self.active = True
            self._rebase()

    def _merged_thresholds(self, msg: Message) -> dict:
        """``DEFAULT_THRESHOLDS`` with ``msg``'s overrides merged in."""
        return {**self.DEFAULT_THRESHOLDS,
                **(msg.payload.get("thresholds") or {})}

    def _on_deactivate(self, msg: Message) -> None:
        self.active = False
        self._epochs.clear()

    def _rebase(self) -> None:
        """Reset delta baselines so the first epoch after activation
        reports activity *since* activation, not since boot."""
        b = self.broker
        self._base = {"retransmits": b.retransmits,
                      "reroutes": b.reroutes,
                      "requests": b.requests_handled,
                      "respawns": self._respawns()}

    def _respawns(self) -> int:
        wexec = self.broker.modules.get("wexec")
        return wexec.respawns if wexec is not None else 0

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def local_sample(self) -> dict:
        """This broker's vitals right now (deltas since last epoch)."""
        b = self.broker
        depth = b.inbox_depth
        peak, b.inbox_peak = max(b.inbox_peak, depth), 0
        d_rt = b.retransmits - self._base["retransmits"]
        d_rr = b.reroutes - self._base["reroutes"]
        d_req = b.requests_handled - self._base["requests"]
        d_spawn = self._respawns() - self._base["respawns"]
        self._rebase()
        retry_amp = (d_rt + d_rr) / max(1, d_req)
        sample = {
            "inbox_depth": depth,
            "inbox_peak": peak,
            "pending_rpcs": len(b._pending),
            "retry_amp": retry_amp,
            "respawn_delta": d_spawn,
            "flight_dropped": b.flight.dropped,
            "dirty_ops": 0, "held_fences": 0, "version_waiters": 0,
        }
        kvs = b.modules.get("kvs")
        if kvs is not None:
            sample["dirty_ops"] = sum(len(d.ops)
                                      for d in kvs._dirty.values())
            sample["held_fences"] = sum(len(agg.held)
                                        for agg in kvs._fences.values())
            sample["version_waiters"] = len(kvs._version_waiters)
        sample["state"] = HEALTH_STATES[self.classify(sample)]
        return sample

    def classify(self, sample: dict) -> int:
        """Threshold ladder over one local sample -> state index."""
        th = self.thresholds
        peak = sample["inbox_peak"]
        pend = sample["pending_rpcs"]
        amp = sample["retry_amp"]
        if (peak >= th["inbox_overloaded"]
                or pend >= th["pending_overloaded"]
                or amp >= th["retry_amp_overloaded"]):
            return 2
        if (peak >= th["inbox_degraded"]
                or pend >= th["pending_degraded"]
                or amp >= th["retry_amp_degraded"]):
            return 1
        return 0

    def _acc_of(self, sample: dict, state: int) -> dict:
        acc = {k: sample[field] for k, (field, _fold) in _FIELDS.items()}
        acc["counts"] = [int(i == state) for i in range(len(HEALTH_STATES))]
        acc["worst"] = state
        return acc

    # ------------------------------------------------------------------
    # reduction (the same epoch reduction as ``mon``)
    # ------------------------------------------------------------------
    def _on_pulse(self, msg: Message) -> None:
        if not self.active:
            return
        epoch = msg.payload["epoch"]
        sample = self.local_sample()
        state = HEALTH_STATES.index(sample["state"])
        self._g_state.set(state)
        self._epochs.slot(epoch).put(self.rank, 1,
                                     self._acc_of(sample, state))
        self._maybe_complete(epoch)
        self._epochs.gc(epoch)
        if self.is_root and self._epochs.stalled():
            # As in ``mon``: announce again what a rank may have lost.
            self.broker.publish("health.activate",
                                {"thresholds": self.thresholds})

    def _on_down(self, msg: Message) -> None:
        """As ``MonModule._on_down``: only pending epochs are
        re-checked."""
        def recheck() -> None:
            for epoch in list(self._epochs):
                self._maybe_complete(epoch)
        if self._epochs:
            self.broker.after(0.0, recheck)

    @request_handler(required=("epoch", "acc"))
    def req_sample(self, msg: Message) -> None:
        """A child subtree's partial health aggregate."""
        p = msg.payload
        self.respond(msg, {})
        if self.active and self._epochs.slot(p["epoch"]).put(
                msg.src_rank, 1, p["acc"]):
            self._maybe_complete(p["epoch"])

    def _maybe_complete(self, epoch: int) -> None:
        acc = self._epochs.take(epoch, [self.rank, *self.broker.children])
        if acc is None:
            return
        if not self.is_root:
            # Broker totals ride inside the acc's state census.
            self.broker.rpc_parent_cb(
                "health.sample", {"epoch": epoch, "acc": acc},
                lambda resp: None)
            return
        state = HEALTH_STATES[acc["worst"]]
        view = {"epoch": epoch, "t": self.broker.sim.now,
                "state": state, "brokers": sum(acc["counts"]),
                "counts": dict(zip(HEALTH_STATES, acc["counts"])),
                **{k: acc[k] for k in _FIELDS}}
        self.views.append(view)
        if len(self.views) > HISTORY:
            del self.views[0]
        if state != self.cluster_state:
            self.cluster_state = state
            self._c_transitions.inc()
            self.broker.publish("health.update",
                                {"state": state, "epoch": epoch,
                                 "counts": view["counts"]})

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cluster_view(self) -> dict:
        """Latest cluster view (root; post-mortem bundles call this)."""
        if self.views:
            return dict(self.views[-1], cluster_state=self.cluster_state)
        return {"state": self.cluster_state, "epoch": -1,
                "cluster_state": self.cluster_state}

    def req_view(self, msg: Message) -> None:
        """Root RPC: the latest reduced cluster health view."""
        self.respond(msg, {"view": self.cluster_view(),
                           "n_views": len(self.views)})

    def req_local(self, msg: Message) -> None:
        """Any rank: this broker's local vitals, classified."""
        self.respond(msg, dict(self.local_sample()))

    def sync_metrics(self) -> None:
        if self.is_root and self.views:
            reg = self.broker.registry
            view = self.views[-1]
            reg.gauge("health_cluster_state").set(
                HEALTH_STATES.index(view["state"]))
            reg.gauge("health_brokers_reporting").set(view["brokers"])
