"""Repo-specific AST linter for determinism and protocol hygiene.

The reproduction's guarantees — byte-identical seeded runs, lossless
errnum propagation, one canonical topic registry — are invariants of
the *source*, not just the tests.  This module walks the AST of
``src/repro`` and enforces them:

========  =========  ====================================================
Rule      Severity   Meaning
========  =========  ====================================================
DET001    error      Wall-clock call (``time.time``, ``datetime.now``
                     ...) — simulated code must use ``sim.now``.
DET002    error      Unseeded randomness: module-level ``random.*``
                     draws, ``random.Random()`` with no seed, or
                     ``random.SystemRandom``.  ``random.Random(seed)``
                     is the sanctioned idiom.
DET003    warning    Iterating an unordered ``set`` expression (or
                     ``set()``/``frozenset()`` call) without
                     ``sorted(...)`` in the deterministic core
                     (``sim``/``cmb``/``kvs``/``obs``) — iteration
                     order feeds message emission and hashing.
PROTO001  error      Request topic (``rpc("mod.method")`` and friends)
                     not served by any ``req_`` handler in the
                     canonical registry — a guaranteed runtime ENOSYS.
PROTO002  error      Event topic published/subscribed that no module
                     emits or matches (checked against
                     ``cmb.modules.EVENT_TOPICS``).
ERR001    error      Errnum string literal (``code=``/``errnum=`` or a
                     comparison against ``.code``/``.errnum``) outside
                     ``cmb.errors.ERROR_CODES``.
EXC001    error      Bare ``except:`` — swallows ``RpcError`` (and
                     ``KeyboardInterrupt``) indiscriminately.
========  =========  ====================================================

Suppression: append ``# repro: noqa[RULE1,RULE2]`` (or a blanket
``# repro: noqa``) to the flagged physical line, with a comment saying
why.  Topic tables and errnum codes come straight from the runtime
(:func:`repro.cmb.modules.request_registry`,
:data:`repro.cmb.modules.EVENT_TOPICS`,
:data:`repro.cmb.errors.ERROR_CODES`) so the linter can never drift
from what the dispatcher actually serves.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, Optional, Sequence

from ..cmb.errors import ERROR_CODES
from ..cmb.modules import EVENT_TOPICS, request_registry
from .findings import Finding

__all__ = ["lint_source", "lint_paths", "iter_python_files", "RULES"]

#: Rule id -> one-line description (drives ``--list-rules`` and docs).
RULES = {
    "DET001": "wall-clock call in simulated code",
    "DET002": "unseeded / global random source",
    "DET003": "unordered set iteration in deterministic core",
    "PROTO001": "request topic with no registered handler (ENOSYS)",
    "PROTO002": "unknown event topic",
    "ERR001": "errnum literal not in cmb.errors.ERROR_CODES",
    "EXC001": "bare except swallows RpcError",
}

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[\s*([A-Z0-9_,\s]+?)\s*\])?")

# -- rule tables -------------------------------------------------------

_WALLCLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
})

#: Stochastic module-level functions of :mod:`random` — calling any of
#: these draws from (or reseeds) the interpreter-global Mersenne
#: twister, which is shared across the whole process.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "seed",
})

#: Messaging call attributes whose *first* argument is a request topic.
_RPC_TOPIC_ARG0 = frozenset({
    "rpc", "_rpc", "rpc_up", "rpc_up_cb", "rpc_parent_cb", "send_parent",
    "_toward_master_cb", "_send_objs",
})
#: ... and whose *second* argument is (first is a rank).
_RPC_TOPIC_ARG1 = frozenset({"rpc_rank", "rpc_hop_cb", "_hop_rpc",
                             "send_hop"})

#: Event-plane call attributes; first argument is the event topic.
_EVENT_EMIT = frozenset({"publish"})
_EVENT_MATCH = frozenset({"subscribe", "wait_event"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _fstring_parts(node: ast.JoinedStr
                   ) -> tuple[Optional[str], Optional[str]]:
    """(literal head, literal tail) of an f-string, where *head* is the
    leading constant text and *tail* the trailing constant text; either
    is ``None`` when the string starts/ends with an interpolation."""
    head = tail = None
    if node.values:
        first, last = node.values[0], node.values[-1]
        head = _const_str(first)
        tail = _const_str(last)
    return head, tail


class _Linter(ast.NodeVisitor):
    def __init__(self, filename: str, *, det_core: bool,
                 registry: dict, event_topics: frozenset,
                 error_codes: frozenset):
        self.filename = filename
        self.det_core = det_core
        self.registry = registry
        self.event_topics = event_topics
        self.error_codes = error_codes
        self.findings: list[Finding] = []

    # -- reporting -----------------------------------------------------
    def report(self, rule: str, node: ast.AST, message: str,
               severity: str = "error") -> None:
        self.findings.append(Finding(
            rule=rule, severity=severity, message=message,
            file=self.filename, line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1))

    # -- imports (DET001/DET002 at the import site) --------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        names = {a.name for a in node.names}
        if node.module == "time":
            clocks = sorted(names & {n.split(".", 1)[1]
                                     for n in _WALLCLOCK
                                     if n.startswith("time.")})
            if clocks:
                self.report("DET001", node,
                            f"importing wall-clock source(s) "
                            f"{', '.join(clocks)} from time — use sim.now")
        elif node.module == "random":
            bad = sorted(names & (_GLOBAL_RANDOM_FNS | {"SystemRandom"}))
            if bad:
                self.report("DET002", node,
                            f"importing global random source(s) "
                            f"{', '.join(bad)} — pass a seeded "
                            f"random.Random instead")
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is not None:
            self._check_clock_and_rng(node, name)
        if isinstance(node.func, ast.Attribute):
            self._check_protocol(node, node.func.attr)
        self._check_errnum_kwargs(node)
        self.generic_visit(node)

    def _check_clock_and_rng(self, node: ast.Call, name: str) -> None:
        if name in _WALLCLOCK:
            self.report("DET001", node,
                        f"wall-clock call {name}() — simulated code "
                        f"must derive time from sim.now")
            return
        if name == "random.SystemRandom":
            self.report("DET002", node,
                        "random.SystemRandom is OS-entropy seeded and "
                        "never reproducible")
            return
        if name == "random.Random" and not node.args and not node.keywords:
            self.report("DET002", node,
                        "random.Random() without a seed hashes OS "
                        "entropy — pass an explicit seed")
            return
        mod, _, fn = name.rpartition(".")
        if mod == "random" and fn in _GLOBAL_RANDOM_FNS:
            self.report("DET002", node,
                        f"module-level random.{fn}() uses the shared "
                        f"global RNG — draw from a seeded "
                        f"random.Random instance")

    # -- PROTO001 / PROTO002 -------------------------------------------
    def _check_protocol(self, node: ast.Call, attr: str) -> None:
        topic_node: Optional[ast.AST] = None
        kind = None
        if attr in _RPC_TOPIC_ARG0 and node.args:
            topic_node, kind = node.args[0], "request"
        elif attr in _RPC_TOPIC_ARG1 and len(node.args) >= 2:
            topic_node, kind = node.args[1], "request"
        elif attr in _EVENT_EMIT and node.args:
            topic_node, kind = node.args[0], "emit"
        elif attr in _EVENT_MATCH and node.args:
            topic_node, kind = node.args[0], "match"
        if topic_node is None:
            return
        if kind == "request":
            self._check_request_topic(node, topic_node)
        else:
            self._check_event_topic(node, topic_node, kind)

    def _check_request_topic(self, node: ast.Call,
                             topic_node: ast.AST) -> None:
        literal = _const_str(topic_node)
        if literal is not None:
            head, _, method = literal.partition(".")
            method = method or "default"
            if head not in self.registry:
                self.report("PROTO001", node,
                            f"request topic {literal!r}: no module "
                            f"named {head!r} in the registry")
            elif method not in self.registry[head]:
                self.report("PROTO001", node,
                            f"request topic {literal!r}: module "
                            f"{head!r} has no req_{method} handler "
                            f"(runtime ENOSYS)")
            return
        if isinstance(topic_node, ast.JoinedStr):
            head, _tail = _fstring_parts(topic_node)
            if head is not None and "." in head:
                # f"kvs.{x}" — the module half is literal.
                mod = head.split(".", 1)[0]
                if mod not in self.registry:
                    self.report("PROTO001", node,
                                f"request topic head {mod!r}: no such "
                                f"module in the registry")

    def _check_event_topic(self, node: ast.Call, topic_node: ast.AST,
                           kind: str) -> None:
        literal = _const_str(topic_node)
        if literal is not None:
            if kind == "emit":
                if literal not in self.event_topics:
                    self.report("PROTO002", node,
                                f"published event topic {literal!r} is "
                                f"not in cmb.modules.EVENT_TOPICS")
            else:
                # Subscriptions are prefix matches: the pattern must be
                # a prefix of at least one known topic or no message
                # will ever match it.
                if not any(t.startswith(literal)
                           for t in self.event_topics):
                    self.report("PROTO002", node,
                                f"subscription {literal!r} is a prefix "
                                f"of no known event topic — it can "
                                f"never match")
            return
        if isinstance(topic_node, ast.JoinedStr):
            head, tail = _fstring_parts(topic_node)
            if tail is not None and "." in tail and len(tail) > 1:
                suffix = tail[tail.index("."):]
                if not any(t.endswith(suffix) for t in self.event_topics):
                    self.report("PROTO002", node,
                                f"event topic tail {suffix!r} "
                                f"(f-string) matches no known event "
                                f"topic")

    # -- ERR001 --------------------------------------------------------
    def _check_errnum_kwargs(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg in ("code", "errnum"):
                lit = _const_str(kw.value)
                if lit is not None and lit not in self.error_codes:
                    self.report("ERR001", node,
                                f"errnum literal {lit!r} is not in "
                                f"cmb.errors.ERROR_CODES")

    def visit_Compare(self, node: ast.Compare) -> None:
        # x.code == "ENOSYS" / "ENOSYS" in (...) style comparisons.
        sides = [node.left, *node.comparators]
        attrs = {n.attr for n in sides if isinstance(n, ast.Attribute)}
        if attrs & {"code", "errnum"}:
            for side in sides:
                lit = _const_str(side)
                if lit is not None and lit not in self.error_codes:
                    self.report("ERR001", node,
                                f"errnum literal {lit!r} compared "
                                f"against .code/.errnum is not in "
                                f"ERROR_CODES")
        self.generic_visit(node)

    # -- EXC001 --------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report("EXC001", node,
                        "bare except: catches RpcError (and "
                        "KeyboardInterrupt) indiscriminately — name "
                        "the exception types")
        self.generic_visit(node)

    # -- DET003 --------------------------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            return name in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    def _check_set_iter(self, iter_node: ast.AST) -> None:
        if self.det_core and self._is_set_expr(iter_node):
            self.report("DET003", iter_node,
                        "iterating an unordered set expression in the "
                        "deterministic core — wrap in sorted(...)",
                        severity="warning")

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_gens(self, gens) -> None:
        for gen in gens:
            self._check_set_iter(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_gens(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.visit_comprehension_gens(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_gens(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_gens(node.generators)
        self.generic_visit(node)


# -- noqa suppression --------------------------------------------------

def _suppressed_rules(line: str) -> Optional[frozenset]:
    """Rules suppressed on this physical line.

    Returns ``None`` for no noqa, an empty frozenset for a blanket
    ``# repro: noqa``, or the named rule set for
    ``# repro: noqa[DET001, EXC001]``.
    """
    m = _NOQA_RE.search(line)
    if m is None:
        return None
    if m.group(1) is None:
        return frozenset()
    return frozenset(r.strip() for r in m.group(1).split(",") if r.strip())


def _apply_noqa(findings: list[Finding], source: str) -> list[Finding]:
    lines = source.splitlines()
    kept = []
    for f in findings:
        line = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        rules = _suppressed_rules(line)
        if rules is None:
            kept.append(f)
        elif rules and f.rule not in rules:
            kept.append(f)
        # blanket noqa or rule listed -> suppressed
    return kept


# -- entry points ------------------------------------------------------

def _infer_det_core(filename: str) -> bool:
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro") + 1:]
    return bool(parts) and parts[0] in ("sim", "cmb", "kvs", "obs")


def lint_source(source: str, filename: str = "<string>", *,
                det_core: Optional[bool] = None,
                registry: Optional[dict] = None,
                event_topics: Optional[frozenset] = None,
                error_codes: Optional[frozenset] = None
                ) -> list[Finding]:
    """Lint one Python source string; returns surviving findings.

    ``det_core=None`` infers the DET003 scope from the path (files
    under ``repro/{sim,cmb,kvs,obs}``).  The registry/topic/errnum
    tables default to the live runtime tables and are overridable for
    fixture tests.
    """
    if det_core is None:
        det_core = _infer_det_core(filename)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Finding(rule="PARSE", severity="error",
                        message=f"syntax error: {exc.msg}",
                        file=filename, line=exc.lineno or 0,
                        col=(exc.offset or 0))]
    linter = _Linter(
        filename, det_core=det_core,
        registry=registry if registry is not None else request_registry(),
        event_topics=(event_topics if event_topics is not None
                      else EVENT_TOPICS),
        error_codes=(error_codes if error_codes is not None
                     else ERROR_CODES))
    linter.visit(tree)
    findings = _apply_noqa(linter.findings, source)
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into a sorted ``.py`` file list."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                out.extend(os.path.join(root, f)
                           for f in files if f.endswith(".py"))
        else:
            out.append(path)
    return sorted(out)


def lint_paths(paths: Sequence[str], **opts) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``."""
    findings: list[Finding] = []
    for fn in iter_python_files(paths):
        with open(fn, encoding="utf-8") as fh:
            findings.extend(lint_source(fh.read(), fn, **opts))
    return findings
