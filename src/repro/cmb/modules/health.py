"""``health`` — tree-reduced cluster health (live observability plane).

Zhang et al.'s monitoring study (PAPERS.md) argues hierarchical
information services must be bounded-overhead and tree-aggregated;
this module applies that to *self*-monitoring.  Once activated
(``health.activate``), every broker samples its own vitals at each
``hb.pulse`` — inbox depth/peak, in-flight forwarded RPCs, retry
amplification over the last epoch, KVS dirty ops / held fences /
version waiters, wexec respawn burn, flight-ring pressure — classifies
itself ``ok`` / ``degraded`` / ``overloaded`` against configurable
thresholds, and reduces the classification census up the tree exactly
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

from typing import Optional

from ..message import Message
from ..module import CommsModule, request_handler

__all__ = ["HealthModule", "HEALTH_STATES"]

#: Classification ladder; index = severity.
HEALTH_STATES = ("ok", "degraded", "overloaded")


def _merge(a: dict, b: dict) -> dict:
    """Fold two partial health aggregates (associative/commutative)."""
    return {
        "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        "inbox_sum": a["inbox_sum"] + b["inbox_sum"],
        "inbox_max": max(a["inbox_max"], b["inbox_max"]),
        "pending_max": max(a["pending_max"], b["pending_max"]),
        "retry_amp_max": max(a["retry_amp_max"], b["retry_amp_max"]),
        "dirty_sum": a["dirty_sum"] + b["dirty_sum"],
        "respawn_sum": a["respawn_sum"] + b["respawn_sum"],
        "worst": max(a["worst"], b["worst"]),
    }


class HealthModule(CommsModule):
    """Periodic self-health snapshots, tree-reduced to a cluster view.

    Config
    ------
    thresholds:
        Overrides for the classification thresholds (see
        ``DEFAULT_THRESHOLDS``); partial dicts merge over defaults.
    view_cap:
        Completed cluster views retained at the root (default 64).
    """

    name = "health"

    #: Pending epochs older than this many pulses are dropped (same
    #: rationale as ``MonModule.STALE_EPOCHS``).
    STALE_EPOCHS = 8

    DEFAULT_THRESHOLDS = {
        "inbox_degraded": 16, "inbox_overloaded": 64,
        "pending_degraded": 32, "pending_overloaded": 128,
        "retry_amp_degraded": 0.5, "retry_amp_overloaded": 2.0,
    }

    def __init__(self, broker, *, thresholds: Optional[dict] = None,
                 view_cap: int = 64):
        super().__init__(broker, thresholds=thresholds,
                         view_cap=view_cap)
        self.thresholds = dict(self.DEFAULT_THRESHOLDS)
        if thresholds:
            self.thresholds.update(thresholds)
        self.view_cap = view_cap
        self.active = False
        # epoch -> {"acc": acc, "contrib": count}
        self._pending: dict[int, dict] = {}
        # Root only: completed cluster views, newest last.
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
        ``thresholds`` dict in the payload overrides the module
        defaults on every broker (partial dicts merge)."""
        if not self.check_field(msg, "thresholds", dict, type(None)):
            return
        th = dict(self.thresholds)
        th.update(msg.payload.get("thresholds") or {})
        self.broker.publish("health.activate", {"thresholds": th})
        self.respond(msg, {"active": True, "thresholds": th})

    def req_deactivate(self, msg: Message) -> None:
        self.broker.publish("health.deactivate", {})
        self.respond(msg, {"active": False})

    def _on_activate(self, msg: Message) -> None:
        th = msg.payload.get("thresholds")
        if th:
            self.thresholds.update(th)
        if not self.active:
            self.active = True
            self._rebase()

    def _on_deactivate(self, msg: Message) -> None:
        self.active = False
        self._pending.clear()

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
        depth = len(b._inbox._items)
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
        counts = [0, 0, 0]
        counts[state] = 1
        return {"counts": counts,
                "inbox_sum": sample["inbox_depth"],
                "inbox_max": sample["inbox_peak"],
                "pending_max": sample["pending_rpcs"],
                "retry_amp_max": sample["retry_amp"],
                "dirty_sum": sample["dirty_ops"],
                "respawn_sum": sample["respawn_delta"],
                "worst": state}

    # ------------------------------------------------------------------
    # reduction (mon-style epoch aggregation)
    # ------------------------------------------------------------------
    def _expected(self) -> int:
        return 1 + sum(1 for c in self.broker.children
                       if self.broker.session.brokers[c].alive)

    def _on_pulse(self, msg: Message) -> None:
        if not self.active:
            return
        epoch = msg.payload["epoch"]
        sample = self.local_sample()
        state = HEALTH_STATES.index(sample["state"])
        self._g_state.set(state)
        self._contribute(epoch, self._acc_of(sample, state))
        for old in [e for e in self._pending
                    if e <= epoch - self.STALE_EPOCHS]:
            del self._pending[old]

    def _on_down(self, msg: Message) -> None:
        if not self.active:
            return

        def recheck() -> None:
            for epoch in list(self._pending):
                self._maybe_complete(epoch)
        self.broker.after(0.0, recheck)

    @request_handler(required=("epoch", "acc", "contrib"))
    def req_sample(self, msg: Message) -> None:
        """A child subtree's partial health aggregate."""
        p = msg.payload
        self.respond(msg, {})
        if not self.active:
            return
        self._contribute(p["epoch"], p["acc"], count=p["contrib"])

    def _contribute(self, epoch: int, acc: dict, count: int = 1) -> None:
        slot = self._pending.get(epoch)
        if slot is None:
            self._pending[epoch] = {"acc": acc, "contrib": count}
        else:
            slot["acc"] = _merge(slot["acc"], acc)
            slot["contrib"] += count
        self._maybe_complete(epoch)

    def _maybe_complete(self, epoch: int) -> None:
        slot = self._pending.get(epoch)
        if slot is None or slot["contrib"] < self._expected():
            return
        del self._pending[epoch]
        if not self.is_root:
            # One message (= one contribution toward the parent's
            # ``_expected``) per completed subtree; broker totals ride
            # inside the acc's state census.
            self.broker.rpc_parent_cb(
                "health.sample",
                {"epoch": epoch, "acc": slot["acc"], "contrib": 1},
                lambda resp: None)
            return
        self._complete_root(epoch, slot["acc"])

    def _complete_root(self, epoch: int, acc: dict) -> None:
        state = HEALTH_STATES[acc["worst"]]
        view = {"epoch": epoch, "t": self.broker.sim.now,
                "state": state, "brokers": sum(acc["counts"]),
                "counts": dict(zip(HEALTH_STATES, acc["counts"])),
                "inbox_sum": acc["inbox_sum"],
                "inbox_max": acc["inbox_max"],
                "pending_max": acc["pending_max"],
                "retry_amp_max": acc["retry_amp_max"],
                "dirty_sum": acc["dirty_sum"],
                "respawn_sum": acc["respawn_sum"]}
        self.views.append(view)
        if len(self.views) > self.view_cap:
            del self.views[:len(self.views) - self.view_cap]
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
