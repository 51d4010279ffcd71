"""Post-mortem doctor: root-cause analysis over flight bundles.

``python -m repro.obs.doctor bundle.json [...]`` merges one or more
post-mortem bundles (:mod:`repro.obs.postmortem`), reconstructs
per-entity timelines — a fence, a job, an election, a rank's root
version — from the flight-recorder rings, and pattern-matches the
known pathologies of this codebase's protocols:

==========================  =========================================
pathology                   signature
==========================  =========================================
``stalled-retransmission``  a pending tree/ring leg at (or beyond)
                            the retransmit budget, or parked with a
                            dead timer
``lost-fence-ack``          a fence holding client requests with no
                            commit/setroot anywhere (often: a rank
                            died holding subtree contributions); one
                            finding per fence, naming every holding
                            rank
``orphaned-waiter``         a version waiter wanting a version no
                            surviving master will ever publish
``version-regression``      a rank whose applied root versions went
                            backwards, or that finished far behind
                            the cluster's committed maximum
``double-promote``          two masters promoted for one failover
                            era (resolved or not by a demote)
``respawn-exhausted``       a job declared lost after its tasks'
                            retry budget burned out
``root-failover``           (narrative) rank-0 death → election →
                            promotion, with timing
``terminal-errors``         terminal client RpcErrors grouped by
                            topic/code
==========================  =========================================

Each finding carries the evidence lines that matched, so the report
reads as a diagnosis, not an assertion.  ``--expect <pathology>``
exits nonzero unless the named pathology was found (CI smoke);
``--json`` emits the raw diagnosis document.

With ``--flow-graph graph.json`` (the export of ``python -m
repro.analysis flow --graph-json``), every finding that implicates a
request topic is cross-referenced against the *static* message-flow
graph: the report then names the handler serving that topic, its
source location, its reply disposition, any analyzer flags on it, and
whether it sits on a statically-detected wait cycle — "this hung
waiter sits on an edge the analyzer flagged".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from repro.obs.postmortem import load_bundle

__all__ = ["Doctor", "diagnose", "main"]


def _rec_tuple(rank: int, rec: list) -> tuple:
    """Normalize a JSON record row to ``(t, rank, seq, kind, a, b, c)``."""
    t, seq, kind, a, b, c = rec
    return (t, rank, seq, kind, a, b, c)


class Doctor:
    """Merged view over one or more post-mortem bundles."""

    def __init__(self, bundles: list[dict],
                 flow_graph: Optional[dict] = None):
        if not bundles:
            raise ValueError("no bundles to diagnose")
        self.bundles = bundles
        #: Parsed flow-graph JSON (``repro.analysis flow --graph-json``)
        #: for static/runtime cross-referencing, or ``None``.
        self.flow_graph = flow_graph
        self.meta = bundles[0].get("meta", {})
        #: rank -> broker entry (later bundles win on conflict).
        self.brokers: dict[int, dict] = {}
        for bundle in bundles:
            for entry in bundle.get("brokers", ()):
                self.brokers[entry["rank"]] = entry
        #: Globally merged flight records, ordered on (sim-time, rank,
        #: per-recorder seq) — the causal order the rings preserve.
        self.records: list[tuple] = sorted(
            _rec_tuple(entry["rank"], rec)
            for entry in self.brokers.values()
            for rec in entry.get("flight", {}).get("records", ()))
        self.terminal_errors: list[dict] = [
            e for bundle in bundles
            for e in bundle.get("terminal_errors", ())]

    # -- record selectors ----------------------------------------------
    def by_kind(self, kind: str) -> list[tuple]:
        return [r for r in self.records if r[3] == kind]

    def events(self, suffix: str) -> list[tuple]:
        """``event`` records whose topic ends with ``suffix``."""
        return [r for r in self.records
                if r[3] == "event" and str(r[4]).endswith(suffix)]

    def dead_ranks(self) -> list[int]:
        return sorted(r for r, e in self.brokers.items()
                      if not e.get("alive", True))

    # -- timelines ------------------------------------------------------
    def fence_timeline(self, name: str) -> list[tuple]:
        """Every record that mentions fence ``name``, merged order."""
        out = []
        for r in self.records:
            kind = r[3]
            if kind in ("kvs_fence_enter", "kvs_commit") and r[4] == name:
                out.append(r)
            elif kind == "event" and str(r[4]).endswith(".setroot"):
                sal = r[5]
                if isinstance(sal, (list, tuple)) and len(sal) > 1 \
                        and sal[1] == name:
                    out.append(r)
        return out

    def job_timeline(self, jobid: Any) -> list[tuple]:
        out = []
        for r in self.records:
            kind = r[3]
            if kind in ("job_state", "wexec_respawn", "wexec_lost") \
                    and str(r[4]) == str(jobid):
                out.append(r)
            elif kind == "event" and str(r[4]).startswith(("wexec.",
                                                           "job.")):
                sal = r[5]
                ref = sal[0] if isinstance(sal, (list, tuple)) else sal
                if str(ref) == str(jobid):
                    out.append(r)
        return out

    def election_timeline(self) -> list[tuple]:
        kinds = ("kvs_election", "kvs_promote", "kvs_demote", "peer_down")
        out = [r for r in self.records if r[3] in kinds]
        out.extend(self.events(".newmaster"))
        out.extend(e for e in self.events("live.down"))
        return sorted(out)

    def version_timeline(self, rank: int) -> list[tuple]:
        return [r for r in self.records
                if r[3] == "kvs_apply_root" and r[1] == rank]

    # -- pathology matchers --------------------------------------------
    def _find_stalled_retransmission(self) -> list[dict]:
        budget = self.meta.get("retransmit_max", 0)
        findings = []
        for rank, entry in sorted(self.brokers.items()):
            if not entry.get("alive", True):
                continue
            for p in entry.get("pending", ()):
                stuck_budget = budget and p.get("attempts", 0) >= budget
                dead_timer = not p.get("timer_armed", True)
                if not (stuck_budget or dead_timer):
                    continue
                why = ("retry budget exhausted" if stuck_budget
                       else "timer not armed")
                findings.append({
                    "pathology": "stalled-retransmission",
                    "severity": "error",
                    "summary": f"rank {rank}: {p.get('topic')} leg to "
                               f"hop {p.get('hop')} stalled "
                               f"({p.get('attempts')} attempts, {why})",
                    "evidence": [
                        f"pending msgid={p.get('msgid')} "
                        f"plane={p.get('plane')} "
                        f"hop={p.get('hop')} ({p.get('hop_kind')}) "
                        f"attempts={p.get('attempts')}/{budget} "
                        f"timer_armed={p.get('timer_armed')}",
                    ],
                    "topics": [p.get("topic")],
                })
        return findings

    def _find_lost_fence_ack(self) -> list[dict]:
        dead = set(self.dead_ranks())
        committed = {r[4] for r in self.by_kind("kvs_commit")}
        for r in self.events(".setroot"):
            sal = r[5]
            if isinstance(sal, (list, tuple)) and len(sal) > 1 and sal[1]:
                committed.add(sal[1])
        holders: dict[str, list] = {}
        for rank, entry in sorted(self.brokers.items()):
            kvs = entry.get("kvs")
            if kvs is None or not entry.get("alive", True):
                continue
            for name, f in kvs.get("fences", {}).items():
                # Committed elsewhere means the release is racing.
                if f.get("held", 0) and name not in committed:
                    holders.setdefault(name, []).append((rank, f))
        # One finding per stalled fence, however many ranks hold it.
        findings = []
        for name, held_at in sorted(holders.items()):
            ranks = [rank for rank, _f in held_at]
            held = sum(f["held"] for _r, f in held_at)
            seen = [f["total_seen"] for _r, f in held_at]
            nprocs = [f["nprocs"] for _r, f in held_at]
            seen, nprocs = [min(seen), max(seen)], [min(nprocs), max(nprocs)]
            saw = "/".join(f"{lo}" if lo == hi else f"{lo}-{hi}"
                           for lo, hi in (seen, nprocs))
            evidence = [
                f"rank(s) {ranks}: fence {name!r} holds {held} client "
                f"request(s), saw {saw} contributions, never committed "
                f"anywhere",
            ]
            enters = [r for r in self.by_kind("kvs_fence_enter")
                      if r[4] == name]
            dead_enters = sorted({r[1] for r in enters} & dead)
            if dead_enters:
                evidence.append(
                    f"dead rank(s) {dead_enters} accepted "
                    f"contributions for {name!r} before dying — "
                    f"their subtree counts died with them")
            findings.append({
                "pathology": "lost-fence-ack",
                "severity": "error",
                "summary": f"fence {name!r} stalled at {saw} with "
                           f"{held} waiter(s) at {len(ranks)} rank(s)",
                "evidence": evidence,
                "entity": ("fence", name),
                "topics": ["kvs.fence"],
                "ranks": ranks,
                "held": held,
                "seen": seen,
                "nprocs": nprocs,
            })
        return findings

    def _find_orphaned_waiter(self) -> list[dict]:
        max_applied = 0
        for r in self.by_kind("kvs_apply_root"):
            max_applied = max(max_applied, r[4])
        for rank, entry in self.brokers.items():
            kvs = entry.get("kvs")
            if kvs is not None:
                max_applied = max(max_applied, kvs.get("version", 0))
        findings = []
        for rank, entry in sorted(self.brokers.items()):
            kvs = entry.get("kvs")
            if kvs is None or not entry.get("alive", True):
                continue
            orphans = [w for w in kvs.get("version_waiters", ())
                       if w > max_applied]
            if orphans:
                findings.append({
                    "pathology": "orphaned-waiter",
                    "severity": "error",
                    "summary": f"rank {rank}: waiter(s) on version(s) "
                               f"{orphans} but the cluster never got "
                               f"past {max_applied}",
                    "evidence": [
                        f"max applied root version anywhere: "
                        f"{max_applied}",
                        f"rank {rank} local version: "
                        f"{kvs.get('version')}",
                    ],
                    "topics": ["kvs.waitversion"],
                })
        return findings

    def _find_version_regression(self) -> list[dict]:
        findings = []
        versions = {rank: e["kvs"].get("version", 0)
                    for rank, e in self.brokers.items()
                    if e.get("kvs") is not None and e.get("alive", True)}
        vmax = max(versions.values(), default=0)
        for rank in sorted(self.brokers):
            seq = [r[4] for r in self.version_timeline(rank)]
            drops = [(a, b) for a, b in zip(seq, seq[1:]) if b < a]
            if drops:
                findings.append({
                    "pathology": "version-regression",
                    "severity": "error",
                    "summary": f"rank {rank}: applied root versions "
                               f"went backwards {drops[0][0]} -> "
                               f"{drops[0][1]}",
                    "evidence": [f"apply sequence: {seq}"],
                })
        # A rank stranded far behind the committed max while others
        # kept moving is the observable form of a regressed/forked
        # replica even when the monotonic guard hid the raw decrease.
        for rank, v in sorted(versions.items()):
            entry = self.brokers[rank]
            waiters = entry["kvs"].get("version_waiters", ())
            if v < vmax and any(w <= vmax for w in waiters):
                findings.append({
                    "pathology": "version-regression",
                    "severity": "warning",
                    "summary": f"rank {rank} stranded at version {v} "
                               f"(cluster reached {vmax}) with "
                               f"waiters {list(waiters)}",
                    "evidence": [f"per-rank versions: {versions}"],
                })
        return findings

    def _find_double_promote(self) -> list[dict]:
        promotes = self.by_kind("kvs_promote")
        if len(promotes) < 2:
            return []
        demotes = self.by_kind("kvs_demote")
        winners = sorted({r[1] for r in promotes})
        resolution = (
            f"resolved: rank {demotes[-1][1]} demoted at "
            f"t={demotes[-1][0]:.3f}" if demotes else
            "UNRESOLVED: no demote recorded — split brain")
        return [{
            "pathology": "double-promote",
            "severity": "warning" if demotes else "error",
            "summary": f"{len(promotes)} promotions (ranks {winners}) "
                       f"for one failover; {resolution}",
            "evidence": [f"promote at t={r[0]:.3f} rank={r[1]} "
                         f"version={r[4]}" for r in promotes]
                       + [f"demote at t={r[0]:.3f} rank={r[1]} "
                          f"(winner {r[4]})" for r in demotes],
        }]

    def _find_respawn_exhausted(self) -> list[dict]:
        findings = []
        for r in self.by_kind("wexec_lost"):
            t, rank, _seq, _k, jobid, reason, tasks = r
            respawns = [x for x in self.by_kind("wexec_respawn")
                        if str(x[4]) == str(jobid)]
            budget = None
            for entry in self.brokers.values():
                wexec = entry.get("wexec")
                if wexec is not None:
                    budget = wexec.get("max_restarts")
                    break
            evidence = [f"job {jobid!r} declared lost at t={t:.3f} "
                        f"by rank {rank}: {reason}",
                        f"tasks lost: {list(tasks) if tasks else []}"]
            if budget is not None:
                evidence.append(f"respawn budget max_restarts={budget}, "
                                f"{len(respawns)} respawn epoch(s) "
                                f"published before giving up")
            for x in respawns:
                evidence.append(f"  respawn epoch {x[5]} at "
                                f"t={x[0]:.3f} tasks={list(x[6] or [])}")
            findings.append({
                "pathology": "respawn-exhausted",
                "severity": "error",
                "summary": f"job {jobid!r} lost: {reason}",
                "evidence": evidence,
                "entity": ("job", str(jobid)),
                "topics": ["wexec.run"],
            })
        return findings

    def _find_root_failover(self) -> list[dict]:
        downs = [r for r in self.events("live.down") if r[5] == 0]
        promotes = self.by_kind("kvs_promote")
        if not downs or not promotes:
            return []
        t_down = downs[0][0]
        t_up = promotes[0][0]
        winner = promotes[0][1]
        return [{
            "pathology": "root-failover",
            "severity": "info",
            "summary": f"rank 0 died at t={t_down:.3f}; rank {winner} "
                       f"promoted at t={t_up:.3f} "
                       f"({t_up - t_down:.3f}s master outage)",
            "evidence": [f"{len(self.by_kind('kvs_election'))} election "
                         f"round record(s) across standbys",
                         f"newmaster event(s): "
                         f"{len(self.events('.newmaster'))}"],
        }]

    def _find_terminal_errors(self) -> list[dict]:
        if not self.terminal_errors:
            return []
        by_key: dict[tuple, list[dict]] = {}
        for e in self.terminal_errors:
            by_key.setdefault((e.get("topic"), e.get("code")),
                              []).append(e)
        evidence = []
        for (topic, code), errs in sorted(by_key.items(),
                                          key=lambda kv: str(kv[0])):
            first = errs[0]
            evidence.append(f"{len(errs)}x {topic} [{code}] — first at "
                            f"t={first.get('t', 0):.3f} rank="
                            f"{first.get('rank')}: "
                            f"{first.get('detail', '')}")
        return [{
            "pathology": "terminal-errors",
            "severity": "warning",
            "summary": f"{len(self.terminal_errors)} terminal client "
                       f"RpcError(s) across "
                       f"{len(by_key)} (topic, code) group(s)",
            "evidence": evidence,
            "topics": sorted({t for t, _c in by_key if t}),
        }]

    # -- static flow-graph cross-reference -----------------------------
    def _flow_notes(self, topic: str) -> list[str]:
        """Evidence lines tying ``topic`` back to the static graph."""
        graph = self.flow_graph or {}
        handlers = graph.get("handlers", {})
        key = topic if topic in handlers else (
            f"{topic}.default" if f"{topic}.default" in handlers
            else None)
        if key is None:
            return [f"static flow: {topic!r} matches no handler in "
                    f"the analyzed graph"]
        h = handlers[key]
        notes = [f"static flow: {key} -> {h.get('cls')}."
                 f"{h.get('method')} ({h.get('file')}:{h.get('line')})"
                 f", reply={h.get('reply') or '?'}"]
        if h.get("flags"):
            notes.append(f"static flow: analyzer flagged this handler: "
                         f"{', '.join(h['flags'])}")
        for cycle in graph.get("cycles", ()):
            if key in cycle:
                notes.append(f"static flow: {key} sits on a "
                             f"statically-detected wait cycle "
                             f"{' -> '.join(cycle)}")
        return notes

    def _annotate_flow(self, findings: list[dict]) -> None:
        if not self.flow_graph:
            return
        for f in findings:
            for topic in f.get("topics", ()):
                if topic:
                    f["evidence"].extend(self._flow_notes(topic))

    _MATCHERS = (
        _find_stalled_retransmission,
        _find_lost_fence_ack,
        _find_orphaned_waiter,
        _find_version_regression,
        _find_double_promote,
        _find_respawn_exhausted,
        _find_root_failover,
        _find_terminal_errors,
    )

    def diagnose(self) -> dict:
        """Run every matcher; return the diagnosis document."""
        findings: list[dict] = []
        for matcher in self._MATCHERS:
            findings.extend(matcher(self))
        order = {"error": 0, "warning": 1, "info": 2}
        findings.sort(key=lambda f: (order.get(f["severity"], 3),
                                     f["pathology"]))
        self._annotate_flow(findings)
        timelines: dict[str, list] = {}
        for f in findings:
            entity = f.get("entity")
            if entity is None:
                continue
            kind, name = entity
            key = f"{kind}:{name}"
            if key in timelines:
                continue
            if kind == "fence":
                timelines[key] = [list(r) for r in
                                  self.fence_timeline(name)]
            elif kind == "job":
                timelines[key] = [list(r) for r in
                                  self.job_timeline(name)]
        if self.by_kind("kvs_promote") or self.by_kind("kvs_election"):
            timelines["election"] = [list(r) for r in
                                     self.election_timeline()]
        return {
            "meta": self.meta,
            "dead_ranks": self.dead_ranks(),
            "n_records": len(self.records),
            "findings": findings,
            "timelines": timelines,
        }


def diagnose(paths: list[str],
             flow_graph_path: Optional[str] = None) -> dict:
    """Load bundles from ``paths`` and run the full diagnosis."""
    flow_graph = None
    if flow_graph_path:
        with open(flow_graph_path, encoding="utf-8") as fh:
            flow_graph = json.load(fh)
    return Doctor([load_bundle(p) for p in paths],
                  flow_graph=flow_graph).diagnose()


# ----------------------------------------------------------------------
# report rendering / CLI
# ----------------------------------------------------------------------
def _render(diag: dict) -> str:
    meta = diag["meta"]
    lines = [
        "post-mortem doctor",
        "==================",
        f"trigger : {meta.get('reason', '?')} "
        f"(kind={meta.get('kind', '?')}, t={meta.get('t', 0):.3f})",
        f"session : {meta.get('size', '?')} brokers, "
        f"dead={diag['dead_ranks']}",
        f"records : {diag['n_records']} flight records merged",
        "",
    ]
    findings = diag["findings"]
    if not findings:
        lines.append("no known pathology matched — the rings look "
                     "clean; inspect timelines/metrics manually.")
    for i, f in enumerate(findings, 1):
        lines.append(f"[{i}] {f['severity'].upper()}: "
                     f"{f['pathology']}")
        lines.append(f"    {f['summary']}")
        for ev in f["evidence"]:
            lines.append(f"      - {ev}")
    for key, rows in diag["timelines"].items():
        lines.append("")
        lines.append(f"timeline {key} ({len(rows)} records):")
        for t, rank, _seq, kind, a, b, c in rows[-20:]:
            detail = " ".join(str(x) for x in (a, b, c)
                              if x is not None)
            lines.append(f"  t={t:9.4f} rank={rank:>3} {kind:<16} "
                         f"{detail}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.doctor",
        description="Diagnose post-mortem bundles into a root-cause "
                    "report.")
    ap.add_argument("bundles", nargs="+",
                    help="post-mortem bundle JSON file(s)")
    ap.add_argument("--json", action="store_true",
                    help="emit the raw diagnosis document")
    ap.add_argument("--expect", metavar="PATHOLOGY",
                    help="exit nonzero unless this pathology was found")
    ap.add_argument("--flow-graph", metavar="PATH",
                    help="flow-graph JSON (repro.analysis flow "
                         "--graph-json) to cross-reference findings "
                         "against the static handler graph")
    args = ap.parse_args(argv)
    diag = diagnose(args.bundles, flow_graph_path=args.flow_graph)
    if args.json:
        print(json.dumps(diag, indent=1, sort_keys=True, default=str))
    else:
        print(_render(diag))
    if args.expect:
        found = {f["pathology"] for f in diag["findings"]}
        if args.expect not in found:
            print(f"\nEXPECTED pathology {args.expect!r} not found "
                  f"(got: {sorted(found)})", file=sys.stderr)
            return 1
        # Under --json, stdout stays one parseable document.
        print(f"\nexpected pathology {args.expect!r}: FOUND",
              file=sys.stderr if args.json else sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
