"""The ``health`` op of :mod:`.mon`: self-monitoring, hierarchical and
cheap as Zhang et al. (PAPERS.md) ask of a monitoring service.  After
``mon.activate {"name": "health", "op": "health"}`` (``thresholds``
merge over ``DEFAULT_THRESHOLDS`` afresh each time) every broker reads
its vitals at each ``hb.pulse`` — inbox depth/peak, in-flight RPCs,
retry amplification, KVS backlog, wexec respawns — and rates itself
``ok`` / ``degraded`` / ``overloaded``; the root keeps one cluster view
per epoch (the worst state reported).  ``mon`` publishes ``mon.update``
only when that state changes and never writes it to the KVS, so a
healthy session pays one reduction per pulse.  Nothing here sends.
"""

from __future__ import annotations

import operator

__all__ = ["DEFAULT_THRESHOLDS", "HEALTH_STATES", "cluster_view"]

#: Classification ladder; index = severity.
HEALTH_STATES = ("ok", "degraded", "overloaded")

DEFAULT_THRESHOLDS = {"inbox_degraded": 16, "inbox_overloaded": 64,
                      "pending_degraded": 32, "pending_overloaded": 128,
                      "retry_amp_degraded": 0.5, "retry_amp_overloaded": 2.0}

#: Aggregate field -> (the sample field it starts from, its fold); an
#: aggregate also has ``counts`` (brokers per state) and ``worst``.
_FIELDS = {"inbox_sum": ("inbox_depth", operator.add),
           "inbox_max": ("inbox_peak", max),
           "pending_max": ("pending_rpcs", max),
           "retry_amp_max": ("retry_amp", max),
           "dirty_sum": ("dirty_ops", operator.add),
           "respawn_sum": ("respawn_delta", operator.add)}


def params(payload: dict, _samplers: dict) -> dict:
    """The activation's thresholds: the defaults, overrides merged in."""
    over = payload.get("thresholds")
    if not isinstance(over, (dict, type(None))):
        raise TypeError("payload field 'thresholds' must be an object")
    return {"thresholds": {**DEFAULT_THRESHOLDS, **(over or {})}}


def read(metric, broker, advance: bool = False) -> dict:
    """This broker's vitals, classified; the counters are deltas since
    the last epoch.  Only a pulse (``advance``) starts the next epoch's
    deltas: a local read leaves them to the epoch they belong to."""
    wexec = broker.modules.get("wexec")
    now = {"retransmits": broker.retransmits, "reroutes": broker.reroutes,
           "requests": broker.requests_handled,
           "respawns": wexec.respawns if wexec is not None else 0}
    delta = {k: v - (metric.base or now)[k] for k, v in now.items()}
    depth = broker.inbox_depth
    sample = {
        "inbox_depth": depth,
        "inbox_peak": max(broker.inbox_peak, depth),
        "pending_rpcs": len(broker._pending),
        "retry_amp": (delta["retransmits"] + delta["reroutes"])
        / max(1, delta["requests"]),
        "respawn_delta": delta["respawns"],
        "flight_dropped": broker.flight.dropped,
        "dirty_ops": 0, "held_fences": 0, "version_waiters": 0,
    }
    if advance:
        metric.base, broker.inbox_peak = now, 0
    kvs = broker.modules.get("kvs")
    if kvs is not None:
        sample["dirty_ops"] = sum(len(d.ops) for d in kvs._dirty.values())
        sample["held_fences"] = sum(len(agg.held)
                                    for agg in kvs._fences.values())
        sample["version_waiters"] = len(kvs._version_waiters)
    sample["state"] = HEALTH_STATES[classify(sample,
                                             metric.spec["thresholds"])]
    return sample


def classify(sample: dict, th: dict) -> int:
    """Threshold ladder over one local sample -> state index."""
    for level in (2, 1):
        bar = HEALTH_STATES[level]
        if (sample["inbox_peak"] >= th[f"inbox_{bar}"]
                or sample["pending_rpcs"] >= th[f"pending_{bar}"]
                or sample["retry_amp"] >= th[f"retry_amp_{bar}"]):
            return level
    return 0


def contribution(sample: dict) -> dict:
    """A rank's share of the epoch: its vitals and a one-broker census."""
    state = HEALTH_STATES.index(sample["state"])
    acc = {k: sample[field] for k, (field, _fold) in _FIELDS.items()}
    acc["counts"] = [int(i == state) for i in range(len(HEALTH_STATES))]
    acc["worst"] = state
    return acc


def merge(a: dict, b: dict) -> dict:
    """Fold two partial health aggregates (associative/commutative)."""
    acc = {k: fold(a[k], b[k]) for k, (_f, fold) in _FIELDS.items()}
    acc["counts"] = [x + y for x, y in zip(a["counts"], b["counts"])]
    acc["worst"] = max(a["worst"], b["worst"])
    return acc


def view(acc: dict, epoch: int, now: float) -> dict:
    """The root's cluster view of one completed epoch."""
    return {"epoch": epoch, "t": now, "state": HEALTH_STATES[acc["worst"]],
            "brokers": sum(acc["counts"]),
            "counts": dict(zip(HEALTH_STATES, acc["counts"])),
            **{k: acc[k] for k in _FIELDS}}


def transition(last, new: dict):
    """The ``mon.update`` payload when the cluster state changed."""
    if last is None or last["state"] != new["state"]:
        return {"state": new["state"], "epoch": new["epoch"],
                "counts": new["counts"]}
    return None


def cluster_view(mon) -> dict:
    """The newest view a root's ``mon`` holds, as post-mortem bundles
    and stats documents carry it; ``epoch`` -1 before the first."""
    views = mon.results.get("health")
    if not views:
        return {"state": "unknown", "epoch": -1, "cluster_state": "unknown"}
    last = views[next(reversed(views))]
    return dict(last, cluster_state=last["state"])
