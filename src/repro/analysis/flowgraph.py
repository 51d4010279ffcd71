"""Global message-flow graph over the per-handler effect summaries.

Phase two of the flow analysis: stitch every
:class:`~repro.analysis.effects.HandlerSummary` into one graph —
request handlers and event callbacks are nodes, resolved send sites
are edges (handler → the handler serving the topic it sends; publish
sites go through event-topic nodes to their subscribers) — then run
the two whole-program rules:

- **DEAD001**: a cycle of *wait* edges (sends that register a pending
  entry and await a response) spanning two or more modules.  Each
  handler on such a cycle can be waiting on the next while holding its
  own requester — the static shape of the hung-waiter pathologies the
  chaos suite finds at runtime.  Same-handler self-loops are exempt:
  tree-climbing reduction (a re-emitted fence aggregate's acknowledged
  ``kvs.fencedata`` → parent's ``kvs.fencedata``) is the sanctioned
  aggregation idiom and terminates at the root by construction.  A
  one-way send — every other fence contribution — is no wait edge at
  all.
- **FLOW001** (opt-in, warning): an event topic in the canonical
  ``EVENT_TOPICS`` table that the analyzed source never publishes, or
  never subscribes to.  Off by default because some topics are
  deliberately one-sided in ``src/repro`` (the chaos harness injects
  ``fault``; tests consume module events) — the orphan sets are
  always recorded in the exported graph either way.

The graph exports as JSON (for :mod:`repro.obs.doctor`, which
cross-references post-mortem timelines against it) and as Graphviz
DOT (module clusters, solid request edges, dashed event edges, red
cycle edges / flagged handlers).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..cmb.modules import EVENT_TOPICS, request_registry
from .effects import HandlerSummary, analyze_paths
from .findings import Finding
from .lint import _const_str, iter_python_files

__all__ = ["FlowGraph", "build_graph", "to_dot", "to_json"]


@dataclass
class FlowGraph:
    """The assembled whole-program message-flow graph."""

    summaries: list = field(default_factory=list)
    #: request topic -> HandlerSummary
    handlers: dict = field(default_factory=dict)
    #: event topic -> [event-callback node ids] (prefix-matched)
    events: dict = field(default_factory=dict)
    #: {"src", "dst", "topic", "kind", "waits", "line", "file",
    #:  "deferred", "resolved"}
    edges: list = field(default_factory=list)
    #: each cycle is the list of request topics on it, smallest first
    cycles: list = field(default_factory=list)
    #: {"unpublished": [...], "unconsumed": [...]}
    orphans: dict = field(default_factory=dict)
    #: count of send sites whose topic stayed dynamic
    unresolved: int = 0

    def as_dict(self) -> dict:
        return {
            "meta": {"kind": "flow-graph",
                     "handlers": len(self.handlers),
                     "edges": len(self.edges),
                     "unresolved_sends": self.unresolved},
            "handlers": {t: s.as_dict()
                         for t, s in sorted(self.handlers.items())},
            "events": {t: sorted(v)
                       for t, v in sorted(self.events.items())},
            "edges": self.edges,
            "cycles": self.cycles,
            "orphans": self.orphans,
        }


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------

def _norm_request_topic(topic: str) -> str:
    """A bare module head addresses its ``default`` handler."""
    return topic if "." in topic else f"{topic}.default"


def build_graph(paths: Sequence[str], *,
                registry: Optional[dict] = None,
                event_topics: Optional[frozenset] = None,
                include_orphans: bool = False
                ) -> tuple[FlowGraph, list[Finding]]:
    """Analyze ``paths``, build the flow graph, run DEAD001/FLOW001.

    Returns the graph plus *all* findings (per-handler rules from the
    effects pass and the graph rules), noqa already applied.
    """
    registry = registry if registry is not None else request_registry()
    event_topics = (event_topics if event_topics is not None
                    else EVENT_TOPICS)
    summaries, findings = analyze_paths(paths)
    graph = FlowGraph(summaries=summaries)

    for s in summaries:
        if s.kind == "request":
            graph.handlers[s.topic] = s

    # Event subscriptions: prefix-match callback summaries against the
    # canonical topic table (plus any resolved published topics below).
    sub_prefixes = [(s.topic, s.node_id())
                    for s in summaries if s.kind == "event"]

    published: set[str] = set()
    for s in summaries:
        src = s.node_id()
        for send in s.sends:
            if send.topic is None:
                graph.unresolved += 1
                continue
            if send.primitive == "publish":
                published.add(send.topic)
                graph.edges.append({
                    "src": src, "dst": f"event:{send.topic}",
                    "topic": send.topic, "kind": "event",
                    "waits": False, "line": send.line, "file": s.file,
                    "deferred": send.deferred, "resolved": True})
            else:
                dst = _norm_request_topic(send.topic)
                head, _, method = dst.partition(".")
                resolved = (dst in graph.handlers
                            or method in registry.get(head, ()))
                graph.edges.append({
                    "src": src, "dst": dst, "topic": dst,
                    "kind": "request", "waits": send.waits,
                    "line": send.line, "file": s.file,
                    "deferred": send.deferred, "resolved": resolved})

    for topic in sorted(event_topics | published):
        subscribers = sorted(node for prefix, node in sub_prefixes
                             if topic.startswith(prefix))
        if subscribers:
            graph.events[topic] = subscribers
            for node in subscribers:
                graph.edges.append({
                    "src": f"event:{topic}", "dst": node,
                    "topic": topic, "kind": "deliver", "waits": False,
                    "line": 0, "file": "", "deferred": False,
                    "resolved": True})

    findings.extend(_find_cycles(graph))
    _find_orphans(graph, event_topics, published,
                  [p for p, _ in sub_prefixes], paths)
    if include_orphans:
        for topic in graph.orphans.get("unpublished", ()):
            findings.append(Finding(
                rule="FLOW001", severity="warning",
                message=f"event topic {topic!r} is in EVENT_TOPICS "
                        f"but nothing in the analyzed source "
                        f"publishes it",
                extra={"topic": topic}))
        for topic in graph.orphans.get("unconsumed", ()):
            findings.append(Finding(
                rule="FLOW001", severity="warning",
                message=f"event topic {topic!r} is published but no "
                        f"module subscribes to it",
                extra={"topic": topic}))
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return graph, findings


# ---------------------------------------------------------------------
# DEAD001: wait cycles across module boundaries
# ---------------------------------------------------------------------

def _find_cycles(graph: FlowGraph) -> list[Finding]:
    adj: dict[str, set] = {}
    edge_at: dict[tuple, dict] = {}
    for e in graph.edges:
        if e["kind"] != "request" or not e["waits"]:
            continue
        src, dst = e["src"], e["dst"]
        if src not in graph.handlers or dst not in graph.handlers:
            continue
        if src == dst:
            continue          # self-loop: tree-climb reduction idiom
        adj.setdefault(src, set()).add(dst)
        edge_at.setdefault((src, dst), e)

    sccs = _tarjan(adj)
    findings = []
    for scc in sccs:
        if len(scc) < 2:
            continue
        modules = {t.split(".", 1)[0] for t in scc}
        graph.cycles.append(sorted(scc))
        if len(modules) < 2:
            continue          # intra-module recursion, not cross-module
        cycle = _one_cycle(adj, scc)
        first = edge_at[(cycle[0], cycle[1 % len(cycle)])]
        findings.append(Finding(
            rule="DEAD001", severity="error",
            message=f"static request-wait cycle across modules "
                    f"{', '.join(sorted(modules))}: "
                    f"{' -> '.join(cycle + [cycle[0]])} — every "
                    f"handler on it can be waiting on the next while "
                    f"its own requester waits on it",
            file=first["file"], line=first["line"], col=1,
            extra={"cycle": cycle}))
    return findings


def _tarjan(adj: dict) -> list[list[str]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter = [0]

    def strongconnect(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(adj.get(v, ())):
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            scc = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                scc.append(w)
                if w == v:
                    break
            sccs.append(scc)

    for v in sorted(adj):
        if v not in index:
            strongconnect(v)
    return sccs


def _one_cycle(adj: dict, scc: list[str]) -> list[str]:
    """A representative simple cycle inside an SCC (for the message)."""
    start = min(scc)
    members = set(scc)
    path = [start]
    seen = {start}
    node = start
    while True:
        nxt = None
        for w in sorted(adj.get(node, ())):
            if w == start and len(path) > 1:
                return path
            if w in members and w not in seen:
                nxt = w
                break
        if nxt is None:
            return path
        path.append(nxt)
        seen.add(nxt)
        node = nxt


# ---------------------------------------------------------------------
# FLOW001: orphan event topics
# ---------------------------------------------------------------------

class _PubSubScan(ast.NodeVisitor):
    """Literal publish/subscribe sites anywhere (not just modules)."""

    def __init__(self) -> None:
        self.published: set[str] = set()
        self.pub_tails: set[str] = set()
        self.prefixes: set[str] = set()

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.args:
            attr = node.func.attr
            topic = _const_str(node.args[0])
            if attr == "publish":
                if topic is not None:
                    self.published.add(topic)
                elif isinstance(node.args[0], ast.JoinedStr):
                    tail = _const_str(node.args[0].values[-1])
                    if tail and "." in tail:
                        self.pub_tails.add(tail[tail.index("."):])
            elif attr in ("subscribe", "wait_event"):
                if topic is not None:
                    self.prefixes.add(topic)
        self.generic_visit(node)


def _find_orphans(graph: FlowGraph, event_topics: frozenset,
                  published: set, sub_prefixes: list,
                  paths: Sequence[str]) -> None:
    scan = _PubSubScan()
    for fn in iter_python_files(paths):
        with open(fn, encoding="utf-8") as fh:
            try:
                scan.visit(ast.parse(fh.read(), filename=fn))
            except SyntaxError:
                continue
    all_published = published | scan.published
    all_prefixes = set(sub_prefixes) | scan.prefixes

    def is_published(topic: str) -> bool:
        return (topic in all_published
                or any(topic.endswith(t) for t in scan.pub_tails))

    def is_consumed(topic: str) -> bool:
        return any(topic.startswith(p) for p in all_prefixes)

    graph.orphans = {
        "unpublished": sorted(t for t in event_topics
                              if not is_published(t)),
        "unconsumed": sorted(t for t in event_topics | all_published
                             if not is_consumed(t)),
    }


# ---------------------------------------------------------------------
# export
# ---------------------------------------------------------------------

def to_json(graph: FlowGraph, **meta) -> str:
    doc = graph.as_dict()
    doc["meta"].update(meta)
    return json.dumps(doc, indent=1, sort_keys=True)


def to_dot(graph: FlowGraph) -> str:
    """Graphviz DOT: module clusters, request edges solid, event
    edges dashed, cycle edges red, flagged handlers filled red."""
    cyclic: set[tuple] = set()
    for cycle in graph.cycles:
        members = set(cycle)
        for e in graph.edges:
            if e["kind"] == "request" and e["waits"] \
                    and e["src"] in members and e["dst"] in members:
                cyclic.add((e["src"], e["dst"]))

    by_module: dict[str, list] = {}
    for s in graph.summaries:
        by_module.setdefault(s.module, []).append(s)

    def q(name: str) -> str:
        return '"%s"' % name.replace('"', r'\"')

    lines = ["digraph flow {", "  rankdir=LR;",
             '  node [fontsize=10, fontname="Helvetica"];',
             '  edge [fontsize=9, fontname="Helvetica"];']
    for module in sorted(by_module):
        lines.append(f"  subgraph cluster_{module.replace('.', '_')} "
                     f"{{")
        lines.append(f"    label={q(module)};")
        seen = set()
        for s in sorted(by_module[module],
                        key=lambda x: (x.kind, x.topic, x.method)):
            node = s.node_id()
            if node in seen:
                continue
            seen.add(node)
            label = s.topic if s.kind == "request" \
                else f"{s.method}\\n@ {s.topic}"
            style = ["shape=box"] if s.kind == "request" \
                else ["shape=box", "style=rounded"]
            if s.flags:
                style = ["shape=box",
                         'style="filled"', 'fillcolor="#ffd6d6"']
                label += "\\n[" + ",".join(s.flags) + "]"
            lines.append(f"    {q(node)} [label={q(label)}, "
                         f"{', '.join(style)}];")
        lines.append("  }")
    for topic in sorted(graph.events):
        lines.append(f"  {q('event:' + topic)} [label={q(topic)}, "
                     f"shape=ellipse, style=dashed];")
    emitted = set()
    for e in graph.edges:
        key = (e["src"], e["dst"], e["kind"])
        if key in emitted:
            continue
        emitted.add(key)
        attrs = []
        if e["kind"] == "request":
            if not e["resolved"]:
                attrs.append('style=dotted')
            if (e["src"], e["dst"]) in cyclic:
                attrs.append('color=red')
                attrs.append('penwidth=2')
            if not e["waits"]:
                attrs.append('arrowhead=open')
        else:
            attrs.append("style=dashed")
        if e["dst"] not in graph.handlers \
                and not e["dst"].startswith("event:") \
                and e["kind"] == "request":
            lines.append(f"  {q(e['dst'])} [shape=box, "
                         f"style=dotted];")
        lines.append(f"  {q(e['src'])} -> {q(e['dst'])}"
                     f"{' [' + ', '.join(attrs) + ']' if attrs else ''}"
                     f";")
    lines.append("}")
    return "\n".join(lines) + "\n"
