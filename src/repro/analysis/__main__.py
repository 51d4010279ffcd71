"""CLI for the analysis suite.

``python -m repro.analysis lint [paths...]``
    Run the AST linter.  The default target is the installed ``repro``
    package source plus, when run from a repo checkout, ``benchmarks/``
    (deterministic harness code is held to the same determinism/protocol
    rules).  ``--strict`` exits nonzero on
    any finding — the CI gate.

``python -m repro.analysis flow [paths...]``
    Run the whole-program protocol-flow analyzer (handler effect
    summaries + the global message-flow graph).  ``--strict`` gates;
    ``--dot``/``--graph-json`` export the graph alongside.

``python -m repro.analysis graph``
    Export the message-flow graph only (DOT on stdout by default).

``python -m repro.analysis sanitize``
    Run a small KAP scenario (and optionally a chaos scenario) with
    every runtime sanitizer enabled, verify the run is event-identical
    to a sanitizer-off run, and replay it to check determinism.
    Exits nonzero on any finding or divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .effects import FLOW_RULES
from .findings import Finding, render_json, render_text
from .lint import RULES, lint_paths


def _package_path() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def _default_lint_paths() -> list[str]:
    paths = [_package_path()]
    # Harness code rides along when linting from a repo checkout.
    if os.path.exists("benchmarks"):
        paths.append("benchmarks")
    return paths


def _default_flow_paths() -> list[str]:
    # Comms-module classes all live inside the package.
    return [_package_path()]


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    paths = args.paths or _default_lint_paths()
    findings = lint_paths(paths)
    if args.json:
        print(render_json(findings, kind="lint", paths=paths))
    else:
        if findings or not args.quiet:
            print(render_text(findings))
    if findings and args.strict:
        return 1
    return 0


def _export_graph(graph, args) -> None:
    from .flowgraph import to_dot, to_json
    if getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph))
    if getattr(args, "graph_json", None):
        with open(args.graph_json, "w", encoding="utf-8") as fh:
            fh.write(to_json(graph) + "\n")


def cmd_flow(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule, desc in sorted(FLOW_RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    from .flowgraph import build_graph
    paths = args.paths or _default_flow_paths()
    graph, findings = build_graph(paths,
                                  include_orphans=args.orphans)
    _export_graph(graph, args)
    if args.json:
        print(render_json(findings, kind="flow", paths=paths,
                          handlers=len(graph.handlers),
                          edges=len(graph.edges),
                          cycles=graph.cycles,
                          orphans=graph.orphans))
    else:
        if findings or not args.quiet:
            print(render_text(findings))
            print(f"flow graph: {len(graph.handlers)} handlers, "
                  f"{len(graph.edges)} edges, "
                  f"{len(graph.cycles)} cycle(s), "
                  f"{graph.unresolved} unresolved send(s)")
    if findings and args.strict:
        return 1
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from .flowgraph import build_graph, to_dot, to_json
    paths = args.paths or _default_flow_paths()
    graph, _findings = build_graph(paths)
    _export_graph(graph, args)
    if not args.dot and not args.graph_json:
        print(to_json(graph) if args.json else to_dot(graph), end="")
    return 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    from ..kap.config import KapConfig
    from ..kap.driver import run_kap

    findings: list[Finding] = []
    notes: list[str] = []

    config = KapConfig(nnodes=args.nodes, procs_per_node=args.procs,
                       nputs=args.puts, sync=args.sync, seed=args.seed)

    # Purity check: the sanitized run must process exactly the events
    # of an unsanitized one (checkers are observers, not actors).
    baseline = run_kap(config)
    first = run_kap(config, sanitize=True)
    findings.extend(first.sanitizer_findings)
    if first.events != baseline.events:
        findings.append(Finding(
            rule="SAN105", severity="error",
            message=(f"sanitized KAP run processed {first.events} "
                     f"events vs {baseline.events} without sanitizers "
                     f"— checkers perturbed the run")))
    notes.append(f"kap: {first.events} events, "
                 f"fingerprint {first.event_fingerprint[:12]}")

    # Replay-divergence check: same seed, same stream.
    second = run_kap(config, sanitize=True)
    findings.extend(second.sanitizer_findings)
    if second.event_fingerprint != first.event_fingerprint:
        findings.append(Finding(
            rule="SAN105", severity="error",
            message=(f"replay divergence: seed {config.seed} produced "
                     f"fingerprints {first.event_fingerprint[:12]} and "
                     f"{second.event_fingerprint[:12]}")))

    if args.chaos:
        from repro.chaos import run_chaos_workload
        report = run_chaos_workload(n_nodes=15, n_clients=8, drop_rate=0.01,
                                    n_iters=1, sanitize=True)
        findings.extend(report.sanitizer_findings)
        if not report.converged:
            findings.append(Finding(
                rule="SAN105", severity="error",
                message=f"chaos run did not converge: "
                        f"{report.errors[:3]}"))
        notes.append(f"chaos: converged={report.converged}, "
                     f"fingerprint {report.event_fingerprint[:12]}")

    if args.json:
        print(render_json(findings, kind="sanitize", notes=notes))
    else:
        for note in notes:
            print(note)
        print(render_text(findings))
    return 1 if findings else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism & protocol analysis suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="run the AST linter")
    p_lint.add_argument("paths", nargs="*",
                        help="files/dirs to lint (default: repro pkg)")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit nonzero on any finding")
    p_lint.add_argument("--json", action="store_true")
    p_lint.add_argument("--quiet", action="store_true",
                        help="print nothing when clean")
    p_lint.add_argument("--list-rules", action="store_true")
    p_lint.set_defaults(func=cmd_lint)

    p_flow = sub.add_parser(
        "flow", help="run the protocol-flow analyzer")
    p_flow.add_argument("paths", nargs="*",
                        help="files/dirs to analyze "
                             "(default: repro pkg)")
    p_flow.add_argument("--strict", action="store_true",
                        help="exit nonzero on any finding")
    p_flow.add_argument("--json", action="store_true")
    p_flow.add_argument("--quiet", action="store_true",
                        help="print nothing when clean")
    p_flow.add_argument("--list-rules", action="store_true")
    p_flow.add_argument("--orphans", action="store_true",
                        help="also report FLOW001 orphan-topic "
                             "warnings")
    p_flow.add_argument("--dot", metavar="PATH",
                        help="write the graph as Graphviz DOT")
    p_flow.add_argument("--graph-json", metavar="PATH",
                        help="write the graph as JSON (doctor input)")
    p_flow.set_defaults(func=cmd_flow)

    p_graph = sub.add_parser(
        "graph", help="export the message-flow graph")
    p_graph.add_argument("paths", nargs="*")
    p_graph.add_argument("--json", action="store_true",
                         help="JSON to stdout instead of DOT")
    p_graph.add_argument("--dot", metavar="PATH")
    p_graph.add_argument("--graph-json", metavar="PATH")
    p_graph.set_defaults(func=cmd_graph)

    p_san = sub.add_parser("sanitize",
                           help="run scenarios under the sanitizers")
    p_san.add_argument("--nodes", type=int, default=16)
    p_san.add_argument("--procs", type=int, default=1,
                       help="tester processes per node")
    p_san.add_argument("--puts", type=int, default=4)
    p_san.add_argument("--sync", default="fence",
                       choices=("fence", "commit"))
    p_san.add_argument("--seed", type=int, default=1)
    p_san.add_argument("--chaos", action="store_true",
                       help="also run the chaos harness scenario")
    p_san.add_argument("--json", action="store_true")
    p_san.set_defaults(func=cmd_sanitize)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
