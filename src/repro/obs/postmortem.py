"""Post-mortem bundles: snapshot a session's black boxes on failure.

When a chaos run stalls, a sanitizer fires, or a client RPC dies a
terminal death, the *recent past* of every broker — what it sent,
dispatched, retransmitted, promoted, respawned — is the evidence a
diagnosis needs.  :func:`capture_bundle` freezes that evidence into
one JSON-able document:

- per-broker flight-recorder rings (:mod:`repro.obs.flight`),
  including dead brokers (their rings hold the era that killed them);
- a pending-RPC census per broker (in-flight tree/ring legs with
  attempt counts and timer state) and the KVS waiter census (held
  fences, version waiters, replication waiters);
- per-broker metrics snapshots plus session-wide retry totals;
- the session's terminal client-error log;
- error-trace span fragments when tracing is on
  (:meth:`~repro.obs.span.SpanTracer.error_spans`).

``python -m repro.obs.doctor bundle.json`` (:mod:`repro.obs.doctor`)
merges one or more bundles into causal timelines and pattern-matches
known pathologies into a root-cause report.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..cmb.broker import RETRANSMIT_MAX, RETRANSMIT_TIMEOUT

__all__ = ["capture_bundle", "write_bundle", "load_bundle"]

#: Bundle schema version; the doctor refuses unknown majors.
BUNDLE_VERSION = 1


def capture_bundle(session, reason: str, kind: str = "",
                   extra: Optional[dict] = None) -> dict:
    """Snapshot ``session`` into a post-mortem bundle dict.

    ``reason`` is the human-readable trigger ("hung waiters", "chaos
    kill", "sanitizer finding", ...); ``kind`` tags the harness that
    captured it; ``extra`` merges arbitrary harness context (fault
    plan stats, kill schedule, report fields) into ``meta``.

    Pure observation: walks existing state, schedules nothing.
    """
    sim = session.sim
    meta: dict[str, Any] = {
        "bundle_version": BUNDLE_VERSION,
        "reason": reason,
        "kind": kind,
        "t": sim.now,
        "size": session.size,
        "retransmit_max": RETRANSMIT_MAX,
        "retransmit_timeout": RETRANSMIT_TIMEOUT,
    }
    if extra:
        meta.update(extra)
    brokers = []
    for broker in session.brokers:
        entry: dict[str, Any] = {
            "rank": broker.rank,
            "alive": broker.alive,
            "parent": broker.parent,
            "children": list(broker.children),
            "inbox_depth": broker.inbox_depth,
            "inbox_peak": broker.inbox_peak,
            "flight": broker.flight.snapshot(),
            "pending": broker.pending_census(),
            "metrics": broker.metrics_snapshot(),
        }
        kvs = broker.modules.get("kvs")
        if kvs is not None:
            entry["kvs"] = kvs.waiter_census()
        wexec = broker.modules.get("wexec")
        if wexec is not None:
            entry["wexec"] = {
                "respawns": wexec.respawns,
                "max_restarts": wexec.max_restarts,
                "jobs": sorted(str(j) for j in wexec.jobs),
                "lost_jobs": [str(j) for j in wexec.lost_jobs],
            }
        health = broker.modules.get("health")
        if health is not None and broker.parent is None:
            entry["health"] = health.cluster_view()
        brokers.append(entry)
    bundle: dict[str, Any] = {
        "meta": meta,
        "terminal_errors": list(session.terminal_errors),
        "retry_stats": session.retry_stats(),
        "plane_bytes": session.plane_bytes(),
        "brokers": brokers,
    }
    tracer = session.span_tracer
    if tracer is not None:
        bundle["error_spans"] = [s.as_dict()
                                 for s in tracer.error_spans()]
    return bundle


def write_bundle(bundle: dict, path: str) -> str:
    """Serialize ``bundle`` to ``path`` (JSON, stable key order)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    return path


def load_bundle(path: str) -> dict:
    """Read a bundle back; raises ``ValueError`` on schema mismatch."""
    with open(path, "r", encoding="utf-8") as fh:
        bundle = json.load(fh)
    ver = bundle.get("meta", {}).get("bundle_version")
    if ver != BUNDLE_VERSION:
        raise ValueError(f"{path}: bundle version {ver!r}, "
                         f"expected {BUNDLE_VERSION}")
    return bundle
