"""Per-handler effect summaries for the protocol-flow analyzer.

Phase one of the flow analysis (the PR 4 linter's whole-program
sibling): walk every comms-module class in the source and compute, per
``req_`` handler and event callback, a summary of its *protocol
effects* — whether it responds on all control-flow paths, which topics
it sends/publishes (resolving ``f"{self.name}.x"`` against the class
``name`` attribute and one level of wrapper-helper indirection per
call edge), which errnum codes it can answer with, and where it
blocks.  :mod:`repro.analysis.flowgraph` stitches the summaries into
the global message-flow graph.

Four per-handler rules fall out of the summaries:

========  =========  ==================================================
Rule      Severity   Meaning
========  =========  ==================================================
REPLY001  error      A ``req_`` handler can reach its end on some
                     control-flow path without responding, deferring
                     the message, or raising — the client waits until
                     its deadline (or forever).
RETRY001  error      A handler emits a message (request or event) and
                     *then* answers with a retryable errnum
                     (``cmb.errors.RETRYABLE_CODES``): transient
                     errors are never replay-cached, so a client
                     retry re-executes the handler and duplicates the
                     side effect.
TIME001   error      Event-returning wait (``rpc``/``rpc_up``/
                     ``rpc_rank``) with no deadline or timeout — a
                     dead peer parks the waiting proc forever.
BLOCK001  error      Event-returning RPC form called in the direct
                     body of a request handler: handlers run on the
                     broker dispatch path and cannot yield, so the
                     wait could never be collected there.
========  =========  ==================================================

Reply analysis semantics: a handler "handles" a request on a path when
it calls ``respond(msg, ...)``/``proxy_upstream(msg, ...)``, raises
(the dispatcher answers ``NoHandlerError`` with ENOSYS; anything else
is a crash, not a silent hang), or *defers* the message — stores
``msg`` or passes it bare to any other callable (held-fence lists,
spawned procs, waiter queues).  Attribute reads (``msg.payload``)
are not an escape.  The analysis is per-statement path-sensitive
(if/try/loops), so early-return guard idioms are understood.

One-way requests are a declared kind: a topic whose every send site
in the analyzed source is a one-way primitive (``send_parent`` /
``send_hop``: no pending entry, no response) owes no reply, so its
handler's disposition is ``oneway`` and REPLY001/RETRY001 do not
apply to it.  A topic also sent by any waiting form (a client
``rpc``, a module's ``rpc_parent_cb`` or one of the KVS wrappers)
stays a request: its handler must answer on every path, and the
broker drops the answers meant for its one-way copies.

The graph-level rules (DEAD001 wait cycles, FLOW001 orphan topics)
live in :mod:`repro.analysis.flowgraph`.  Suppression uses the shared
``# repro: noqa[RULE]`` syntax on the flagged line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from ..cmb.errors import RETRYABLE_CODES
from .findings import Finding
from .lint import (_RPC_TOPIC_ARG0, _RPC_TOPIC_ARG1, _apply_noqa,
                   _const_str, _dotted, iter_python_files)

__all__ = ["FLOW_RULES", "HandlerSummary", "SendSite",
           "analyze_source", "analyze_paths"]

#: Rule id -> one-line description (drives ``flow --list-rules``).
#: DEAD001/FLOW001 are emitted by the flowgraph layer but documented
#: here so the flow rule table lives in one place.
FLOW_RULES = {
    "REPLY001": "request handler may finish without responding",
    "RETRY001": "side effect emitted before a retryable error response",
    "TIME001": "blocking wait without a deadline",
    "BLOCK001": "event-returning RPC in a request handler body",
    "DEAD001": "static request-wait cycle across module boundaries",
    "FLOW001": "orphan event topic (never published / never consumed)",
}

#: Send primitives that register a pending entry and await a response
#: (callback- or event-returning) — these form wait edges in the graph.
_WAITING_SENDS = frozenset({
    "rpc", "_rpc", "rpc_up", "rpc_up_cb", "rpc_parent_cb",
    "rpc_rank", "rpc_hop_cb",
})
#: One-way request sends: no pending entry, no response, no wait edge.
_ONEWAY_SENDS = frozenset({"send_parent", "send_hop"})
#: Event-returning forms: a proc that yields the returned event blocks
#: until the response (or its deadline) arrives.
_BLOCKING_SENDS = frozenset({"rpc", "rpc_up", "rpc_rank"})
#: Positional index of the topic argument per send primitive.
_TOPIC_ARG = {
    "rpc": 0, "_rpc": 0, "rpc_up": 0, "rpc_up_cb": 0,
    "rpc_parent_cb": 0, "send_parent": 0, "publish": 0,
    "rpc_rank": 1, "rpc_hop_cb": 1, "send_hop": 1,
}
#: Positional index of the deadline/timeout argument of blocking forms.
_DEADLINE_ARG = {"rpc": 2, "rpc_up": 2, "rpc_rank": 3}

_FN_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_CLOSURE_NODES = _FN_NODES + (ast.Lambda,)


# ---------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SendSite:
    """One message emission attributed to a handler.

    ``topic`` is the statically-resolved topic (``None`` when dynamic);
    ``param`` names the enclosing method's parameter the topic came
    from (wrapper helpers — resolved at each call edge); ``via`` is
    the helper-call chain from the owning handler to the actual call.
    """

    topic: Optional[str]
    primitive: str
    line: int
    col: int
    waits: bool
    blocking: bool
    deferred: bool               # issued from a nested def / lambda
    bounded: Optional[bool]      # blocking forms: deadline present?
    param: Optional[str] = None
    via: tuple = ()

    def as_dict(self) -> dict:
        out = {"topic": self.topic, "primitive": self.primitive,
               "line": self.line, "waits": self.waits,
               "deferred": self.deferred}
        if self.blocking:
            out["bounded"] = self.bounded
        if self.via:
            out["via"] = list(self.via)
        return out


@dataclass(frozen=True)
class HandlerSummary:
    """Effect summary for one request handler or event callback."""

    module: str          # class `name` attribute, e.g. "kvs"
    cls: str             # class name, e.g. "KvsModule"
    method: str          # method name, e.g. "req_get" / "_on_pulse"
    kind: str            # "request" | "event"
    topic: str           # request topic served / subscription prefix
    file: str
    line: int
    end_line: int
    reply: str = ""      # request handlers: always|deferred|never|partial
                         # (|oneway: a topic that owes no reply)
    sends: tuple = ()    # effective SendSites (helpers folded in)
    raises: tuple = ()   # errnum literals this handler can answer with
    flags: tuple = ()    # flow rules that fired (post-noqa) in its body

    def node_id(self) -> str:
        return self.topic if self.kind == "request" \
            else f"{self.module}:{self.method}"

    def as_dict(self) -> dict:
        return {"module": self.module, "cls": self.cls,
                "method": self.method, "kind": self.kind,
                "topic": self.topic, "file": self.file,
                "line": self.line, "reply": self.reply,
                "sends": [s.as_dict() for s in self.sends],
                "raises": list(self.raises),
                "flags": list(self.flags)}


@dataclass
class _MethodInfo:
    """Raw per-method scan results (pre-closure)."""

    name: str
    node: ast.AST
    params: tuple = ()
    sends: list = field(default_factory=list)       # SendSite
    subscribes: list = field(default_factory=list)  # (prefix, cb, line)
    responds: list = field(default_factory=list)    # (line, code, defer)
    proxies: list = field(default_factory=list)     # (line, defer)
    self_calls: list = field(default_factory=list)  # (name, call, defer)
    einval: bool = False     # @request_handler(required=...) decorated


# ---------------------------------------------------------------------
# per-class analysis
# ---------------------------------------------------------------------

def _is_module_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        dotted = _dotted(base)
        if dotted and dotted.rsplit(".", 1)[-1] == "CommsModule":
            return True
    return any(isinstance(x, _FN_NODES) and x.name.startswith("req_")
               for x in node.body)


def _class_name_attr(node: ast.ClassDef) -> Optional[str]:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "name"
                   for t in stmt.targets):
                return _const_str(stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == "name":
                return _const_str(stmt.value) if stmt.value else None
    return None


def _bounded(call: ast.Call, attr: str) -> bool:
    """True when a blocking send carries a non-None deadline/timeout."""
    idx = _DEADLINE_ARG[attr]
    if len(call.args) > idx:
        arg = call.args[idx]
        return not (isinstance(arg, ast.Constant) and arg.value is None)
    for kw in call.keywords:
        if kw.arg in ("deadline", "timeout"):
            return not (isinstance(kw.value, ast.Constant)
                        and kw.value.value is None)
    return False


def _oneway_topics(trees: Iterable[ast.AST]) -> frozenset:
    """Request topics whose every literal send site in ``trees`` is a
    one-way primitive — the topics that owe no reply.  Every request-
    sending call counts, clients' and the KVS wrappers' included (the
    linter's PROTO001 table)."""
    oneway: set[str] = set()
    waited: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            idx = (0 if attr in _RPC_TOPIC_ARG0
                   else 1 if attr in _RPC_TOPIC_ARG1 else None)
            if idx is None or len(node.args) <= idx:
                continue
            topic = _const_str(node.args[idx])
            if topic is not None:
                (oneway if attr in _ONEWAY_SENDS else waited).add(topic)
    return frozenset(oneway - waited)


def _direct_nodes(node: ast.AST) -> Iterable[ast.AST]:
    """Subtree walk that does not descend into nested defs/lambdas."""
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _CLOSURE_NODES):
            continue
        yield from _direct_nodes(child)


class _ClassAnalyzer:
    """Analyze one comms-module class: scan, close over helpers,
    run the per-handler rules, and build handler summaries."""

    def __init__(self, node: ast.ClassDef, filename: str,
                 oneway: frozenset):
        self.node = node
        self.filename = filename
        self.oneway = oneway
        name = _class_name_attr(node)
        if not name:
            name = node.name.replace("Module", "").lower() or node.name
        self.module_name = name
        self.methods: dict[str, _MethodInfo] = {}
        self.findings: list[Finding] = []
        # method name -> rules that fired in its body (pre-noqa; the
        # caller re-derives post-noqa flags from surviving findings).
        self._eff_cache: dict[str, tuple] = {}
        for stmt in node.body:
            if isinstance(stmt, _FN_NODES):
                self.methods[stmt.name] = self._scan_method(stmt)

    # -- reporting -----------------------------------------------------
    def report(self, rule: str, line: int, col: int, message: str,
               severity: str = "error") -> None:
        self.findings.append(Finding(
            rule=rule, severity=severity, message=message,
            file=self.filename, line=line, col=col + 1))

    # -- topic resolution ----------------------------------------------
    def resolve_topic(self, node: ast.AST, params: tuple = ()
                      ) -> tuple[Optional[str], Optional[str]]:
        """``(topic, param)``: a fully-resolved topic string (literals
        and f-strings whose only interpolation is ``self.name``), or
        the enclosing method's parameter the topic flows from."""
        lit = _const_str(node)
        if lit is not None:
            return lit, None
        if isinstance(node, ast.JoinedStr):
            parts = []
            for v in node.values:
                const = _const_str(v)
                if const is not None:
                    parts.append(const)
                elif isinstance(v, ast.FormattedValue) \
                        and _dotted(v.value) == "self.name":
                    parts.append(self.module_name)
                else:
                    return None, None
            return "".join(parts), None
        if isinstance(node, ast.Name) and node.id in params:
            return None, node.id
        return None, None

    # -- method scan ---------------------------------------------------
    def _scan_method(self, fn) -> _MethodInfo:
        params = tuple(a.arg for a in fn.args.args[1:])  # drop self
        info = _MethodInfo(name=fn.name, node=fn, params=params)
        for dec in fn.decorator_list:
            if isinstance(dec, ast.Call) \
                    and _dotted(dec.func) == "request_handler":
                info.einval = any(kw.arg == "required"
                                  for kw in dec.keywords)
        self._scan_node(fn, info, depth=-1)
        return info

    def _scan_node(self, node, info: _MethodInfo, depth: int) -> None:
        if isinstance(node, _CLOSURE_NODES):
            depth += 1
        for child in ast.iter_child_nodes(node):
            self._scan_node(child, info, depth)
        if isinstance(node, ast.Call):
            self._scan_call(node, info, deferred=depth > 0)

    def _scan_call(self, call: ast.Call, info: _MethodInfo,
                   deferred: bool) -> None:
        func = call.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if attr is None:
            return
        dotted = _dotted(func)
        if dotted and dotted.startswith("self.") \
                and "." not in dotted[len("self."):]:
            info.self_calls.append((attr, call, deferred))
        if attr in _TOPIC_ARG and len(call.args) > _TOPIC_ARG[attr]:
            topic, param = self.resolve_topic(
                call.args[_TOPIC_ARG[attr]], info.params)
            blocking = attr in _BLOCKING_SENDS
            info.sends.append(SendSite(
                topic=topic, primitive=attr,
                line=call.lineno, col=call.col_offset,
                waits=attr in _WAITING_SENDS, blocking=blocking,
                deferred=deferred,
                bounded=_bounded(call, attr) if blocking else None,
                param=param))
        elif attr == "subscribe" and len(call.args) >= 2:
            prefix, _ = self.resolve_topic(call.args[0])
            cb = None
            cb_node = call.args[1]
            if isinstance(cb_node, ast.Attribute) \
                    and _dotted(cb_node) == f"self.{cb_node.attr}":
                cb = cb_node.attr
            info.subscribes.append((prefix, cb, call.lineno))
        elif attr == "respond":
            code = None
            for kw in call.keywords:
                if kw.arg == "code":
                    code = _const_str(kw.value)
            info.responds.append((call.lineno, code, deferred))
        elif attr == "proxy_upstream":
            info.proxies.append((call.lineno, deferred))

    # -- helper closure ------------------------------------------------
    def _bind(self, callee: _MethodInfo, call: ast.Call) -> dict:
        binding: dict[str, ast.AST] = {}
        for pname, arg in zip(callee.params, call.args):
            binding[pname] = arg
        for kw in call.keywords:
            if kw.arg:
                binding[kw.arg] = kw.value
        return binding

    def effective(self, name: str, _stack: frozenset = frozenset()
                  ) -> tuple[list, list, list]:
        """``(sends, responds, proxies)`` of a method with helper
        calls folded in (topic parameters re-resolved per call edge)."""
        if name in self._eff_cache:
            return self._eff_cache[name]
        info = self.methods[name]
        sends = list(info.sends)
        responds = list(info.responds)
        proxies = list(info.proxies)
        stack = _stack | {name}
        for callee, call, deferred in info.self_calls:
            if callee not in self.methods or callee in stack:
                continue
            c_sends, c_responds, c_proxies = self.effective(callee,
                                                            stack)
            binding = self._bind(self.methods[callee], call)
            for s in c_sends:
                topic, param = s.topic, s.param
                if param is not None:
                    arg = binding.get(param)
                    topic, param = (self.resolve_topic(arg, info.params)
                                    if arg is not None else (None, None))
                sends.append(replace(
                    s, topic=topic, param=param,
                    deferred=deferred or s.deferred,
                    via=(callee,) + s.via))
            for line, code, c_def in c_responds:
                responds.append((line, code, deferred or c_def))
            for line, c_def in c_proxies:
                proxies.append((line, deferred or c_def))
        out = (sends, responds, proxies)
        if _stack == frozenset():
            self._eff_cache[name] = out
        return out

    # -- rule passes ---------------------------------------------------
    def check_methods(self) -> None:
        for name, info in self.methods.items():
            for s in info.sends:
                if s.blocking and s.bounded is False:
                    self.report(
                        "TIME001", s.line, s.col,
                        f"{s.primitive}({s.topic or '<dynamic>'!r}) "
                        f"without a deadline/timeout — a dead peer "
                        f"parks this wait forever")
            if name.startswith("req_"):
                for s in info.sends:
                    if s.blocking and not s.deferred:
                        self.report(
                            "BLOCK001", s.line, s.col,
                            f"event-returning {s.primitive}() in the "
                            f"body of req_{name[4:]} — handlers run "
                            f"on the dispatch path and cannot yield; "
                            f"use the _cb form or spawn a proc")

    # -- summaries -----------------------------------------------------
    def summaries(self) -> list[HandlerSummary]:
        out = []
        subs: dict[str, list] = {}
        for info in self.methods.values():
            for prefix, cb, _line in info.subscribes:
                if cb and prefix:
                    subs.setdefault(cb, []).append(prefix)
        for name, info in self.methods.items():
            if name.startswith("req_"):
                out.append(self._summary(info, "request",
                                         f"{self.module_name}."
                                         f"{name[len('req_'):]}"))
            for prefix in subs.get(name, ()):
                out.append(self._summary(info, "event", prefix))
        return out

    def _summary(self, info: _MethodInfo, kind: str,
                 topic: str) -> HandlerSummary:
        sends, responds, proxies = self.effective(info.name)
        eff = [s for s in sends if s.param is None]
        for line, deferred in proxies:
            eff.append(SendSite(
                topic=topic, primitive="proxy_upstream", line=line, col=0,
                waits=True, blocking=False, deferred=deferred,
                bounded=None))
        raises = {code for _line, code, _d in responds
                  if code is not None}
        if info.einval:
            raises.add("EINVAL")
        reply = ""
        if kind == "request":
            reply = ("oneway" if topic in self.oneway
                     else self._reply_disposition(info, topic))
        return HandlerSummary(
            module=self.module_name, cls=self.node.name,
            method=info.name, kind=kind, topic=topic,
            file=self.filename, line=info.node.lineno,
            end_line=getattr(info.node, "end_lineno", info.node.lineno),
            reply=reply, sends=tuple(eff), raises=tuple(sorted(raises)))

    # -- REPLY001 / RETRY001 path analysis -----------------------------
    def _reply_disposition(self, info: _MethodInfo, topic: str) -> str:
        fn = info.node
        args = fn.args.args
        if len(args) < 2:
            return ""
        msg = args[1].arg
        walker = _ReplyWalker(self, fn, msg)
        disposition = walker.run()
        if walker.violation:
            if disposition == "never":
                self.report(
                    "REPLY001", fn.lineno, fn.col_offset,
                    f"handler for {topic!r} never responds, defers "
                    f"{msg!r}, or raises — every client waits out "
                    f"its full deadline")
            else:
                self.report(
                    "REPLY001", fn.lineno, fn.col_offset,
                    f"handler for {topic!r} can return without "
                    f"responding on some control-flow path")
        return disposition


class _ReplyWalker:
    """Path-sensitive reply/emit analysis over one handler body.

    State per program point is a set of ``(handled, emitted)`` pairs:
    *handled* flips on respond/proxy/defer of the request message,
    *emitted* on any direct-body message emission.  ``raise`` and
    ``return`` end a path; exits with ``handled=False`` are REPLY001;
    a retryable-coded respond reached with ``emitted=True`` is
    RETRY001.
    """

    def __init__(self, owner: _ClassAnalyzer, fn, msg: str):
        self.owner = owner
        self.fn = fn
        self.msg = msg
        self.exit_states: set = set()
        self.violation = False
        self.any_reply = False
        self.any_escape = False
        self._retry_lines: set = set()

    def run(self) -> str:
        out = self._walk(self.fn.body, {(False, False)})
        self.exit_states |= out
        self.violation = any(not handled
                             for handled, _e in self.exit_states)
        if not self.any_reply and not self.any_escape:
            return "never" if self.violation else "always"
        if self.violation:
            return "partial"
        return "always" if self.any_reply and not self.any_escape \
            else "deferred"

    # -- statement effects --------------------------------------------
    def _scan_stmt(self, stmt) -> tuple[bool, bool, list]:
        """``(handles, emits, retry_responds)`` for one statement.

        *handles* looks through nested defs (a respond inside a
        callback is a deferred reply); *emits* and retryable responds
        are direct-body only (callback-time ordering is unknowable).
        """
        parents: dict[int, ast.AST] = {}
        reply_args: set[int] = set()
        handles = False
        for node in ast.walk(stmt):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("respond", "proxy_upstream") \
                    and node.args \
                    and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id == self.msg:
                handles = True
                self.any_reply = True
                reply_args.add(id(node.args[0]))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == self.msg:
                if id(node) in reply_args:
                    continue
                parent = parents.get(id(node))
                if isinstance(parent, ast.Attribute) \
                        and parent.value is node:
                    continue          # msg.payload etc: a read
                handles = True
                self.any_escape = True
        emits = False
        retry = []
        for node in _direct_nodes(stmt):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr in _TOPIC_ARG or attr == "proxy_upstream":
                emits = True
            elif attr == "respond":
                for kw in node.keywords:
                    code = _const_str(kw.value) \
                        if kw.arg == "code" else None
                    if code in RETRYABLE_CODES:
                        retry.append((node.lineno, node.col_offset,
                                      code))
        return handles, emits, retry

    def _apply(self, stmt, states: set) -> set:
        handles, emits, retry = self._scan_stmt(stmt)
        if retry and any(e for _h, e in states):
            for line, col, code in retry:
                if line not in self._retry_lines:
                    self._retry_lines.add(line)
                    self.owner.report(
                        "RETRY001", line, col,
                        f"responds {code} (retryable) after emitting "
                        f"a message — transient errors are not "
                        f"replay-cached, so a client retry re-runs "
                        f"this handler and duplicates the emit")
        out = set()
        for handled, emitted in states:
            out.add((handled or handles, emitted or emits))
        return out

    # -- control flow --------------------------------------------------
    def _walk(self, block, states: set) -> set:
        for stmt in block:
            if not states:
                return states
            states = self._step(stmt, states)
        return states

    def _step(self, stmt, states: set) -> set:
        if isinstance(stmt, ast.Return):
            self.exit_states |= self._apply(stmt, states)
            return set()
        if isinstance(stmt, ast.Raise):
            return set()
        if isinstance(stmt, ast.If):
            after_test = self._apply(stmt.test, states)
            return (self._walk(stmt.body, after_test)
                    | self._walk(stmt.orelse, after_test))
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            head = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                else stmt.test
            entry = self._apply(head, states)
            after = entry | self._walk(stmt.body, entry)
            if stmt.orelse:
                after = self._walk(stmt.orelse, after)
            return after
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entry = states
            for item in stmt.items:
                entry = self._apply(item.context_expr, entry)
            return self._walk(stmt.body, entry)
        if isinstance(stmt, ast.Try):
            # An exception can fire at any statement boundary in the
            # body, so handlers are entered with the union of states
            # seen at each boundary.
            boundary = set(states)
            s = states
            for inner in stmt.body:
                s = self._step(inner, s)
                boundary |= s
            out = set(s)
            handler_out = set()
            for handler in stmt.handlers:
                handler_out |= self._walk(handler.body, set(boundary))
            if stmt.orelse:
                out = self._walk(stmt.orelse, out)
            out |= handler_out
            if stmt.finalbody:
                out = self._walk(stmt.finalbody, out)
            return out
        return self._apply(stmt, states)


# ---------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------

def _parse(source: str, filename: str):
    """``(tree, None)``, or ``(None, [PARSE finding])``."""
    try:
        return ast.parse(source, filename=filename), None
    except SyntaxError as exc:
        return None, [Finding(rule="PARSE", severity="error",
                              message=f"syntax error: {exc.msg}",
                              file=filename, line=exc.lineno or 0,
                              col=(exc.offset or 0))]


def analyze_source(source: str, filename: str = "<string>"
                   ) -> tuple[list[HandlerSummary], list[Finding]]:
    """Compute handler summaries + per-handler findings for one file.

    Only comms-module classes (subclasses of ``CommsModule``, or any
    class defining ``req_`` methods — the fixture-friendly criterion)
    are analyzed; client/harness code is the linter's jurisdiction.
    A topic owes no reply when this file sends it only one-way (see
    :func:`_oneway_topics`).
    """
    tree, failed = _parse(source, filename)
    if failed:
        return [], failed
    return _analyze_tree(tree, source, filename, _oneway_topics([tree]))


def _analyze_tree(tree: ast.AST, source: str, filename: str,
                  oneway: frozenset
                  ) -> tuple[list[HandlerSummary], list[Finding]]:
    summaries: list[HandlerSummary] = []
    findings: list[Finding] = []
    raw: list[HandlerSummary] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) \
                or not _is_module_class(node):
            continue
        analyzer = _ClassAnalyzer(node, filename, oneway)
        analyzer.check_methods()
        raw.extend(analyzer.summaries())
        findings.extend(analyzer.findings)
    findings = _apply_noqa(findings, source)
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    # Post-noqa flags: a suppressed finding is a sanctioned idiom and
    # must not mark the handler in the exported graph.
    for s in raw:
        flags = sorted({f.rule for f in findings
                        if s.line <= f.line <= s.end_line})
        summaries.append(replace(s, flags=tuple(flags)) if flags else s)
    return summaries, findings


def analyze_paths(paths: Sequence[str]
                  ) -> tuple[list[HandlerSummary], list[Finding]]:
    """Analyze every ``.py`` file under ``paths`` (one-way topics are
    judged over all of them together)."""
    summaries: list[HandlerSummary] = []
    findings: list[Finding] = []
    parsed = []
    for fn in iter_python_files(paths):
        with open(fn, encoding="utf-8") as fh:
            source = fh.read()
        tree, failed = _parse(source, fn)
        if failed:
            findings.extend(failed)
        else:
            parsed.append((tree, source, fn))
    oneway = _oneway_topics(tree for tree, _s, _f in parsed)
    for tree, source, fn in parsed:
        s, f = _analyze_tree(tree, source, fn, oneway)
        summaries.extend(s)
        findings.extend(f)
    return summaries, findings
