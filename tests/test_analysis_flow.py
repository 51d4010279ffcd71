"""Tests for the protocol-flow analyzer (repro.analysis.effects +
repro.analysis.flowgraph).

Every per-handler rule gets a positive fixture (the violation is
reported at the right line) and a negative fixture (the sanctioned
idiom passes); DEAD001 gets a two-module wait cycle vs. the exempt
tree-climb self-loop; plus a toy two-module protocol whose graph is
checked edge by edge, the registry drift cross-check, the noqa
syntax, the doctor cross-reference, and the repo-is-flow-clean gate
mirroring test_analysis_lint.py.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import FLOW_RULES, analyze_source, build_graph
from repro.analysis.flowgraph import to_dot, to_json

FIXTURE = "repro/cmb/modules/fixture.py"


def flow_rules_of(src):
    _summaries, findings = analyze_source(src, FIXTURE)
    return [f.rule for f in findings]


def summaries_of(src):
    summaries, _findings = analyze_source(src, FIXTURE)
    return summaries


# ---------------------------------------------------------------------------
# per-rule positive / negative fixtures
# ---------------------------------------------------------------------------

POSITIVE = {
    "REPLY001": (
        "class EchoModule:\n"
        "    name = 'echo'\n"
        "    def req_ping(self, msg):\n"
        "        if msg.payload.get('ok'):\n"
        "            self.respond(msg, {})\n"),
    "RETRY001": (
        "class QueueModule:\n"
        "    name = 'queue'\n"
        "    def req_push(self, msg):\n"
        "        self.broker.publish('queue.update', {})\n"
        "        self.respond(msg, error='busy', code='EAGAIN')\n"),
    "TIME001": (
        "class SyncModule:\n"
        "    name = 'sync'\n"
        "    def req_kick(self, msg):\n"
        "        self.respond(msg, {})\n"
        "    def _proc(self):\n"
        "        resp = yield self.broker.rpc_up('kvs.get',\n"
        "                                        {'key': 'x'})\n"),
    "BLOCK001": (
        "class FetchModule:\n"
        "    name = 'fetch'\n"
        "    def req_get(self, msg):\n"
        "        ev = self.broker.rpc_up('kvs.get', {'key': 'x'},\n"
        "                                self.broker.sim.now + 1.0)\n"
        "        self.respond(msg, {})\n"),
}

NEGATIVE = {
    "REPLY001": (
        "class EchoModule:\n"
        "    name = 'echo'\n"
        "    def req_ping(self, msg):\n"
        "        if msg.payload.get('ok'):\n"
        "            self.respond(msg, {})\n"
        "        else:\n"
        "            self.respond(msg, error='no', code='EINVAL')\n"),
    "RETRY001": (
        "class QueueModule:\n"
        "    name = 'queue'\n"
        "    def req_push(self, msg):\n"
        "        if self.full:\n"
        "            self.respond(msg, error='busy', code='EAGAIN')\n"
        "            return\n"
        "        self.broker.publish('queue.update', {})\n"
        "        self.respond(msg, {})\n"),
    "TIME001": (
        "class SyncModule:\n"
        "    name = 'sync'\n"
        "    def req_kick(self, msg):\n"
        "        self.respond(msg, {})\n"
        "    def _proc(self):\n"
        "        resp = yield self.broker.rpc_up(\n"
        "            'kvs.get', {'key': 'x'},\n"
        "            deadline=self.broker.sim.now + 5.0)\n"),
    "BLOCK001": (
        "class FetchModule:\n"
        "    name = 'fetch'\n"
        "    def req_get(self, msg):\n"
        "        self.broker.rpc_up_cb('kvs.get', {'key': 'x'},\n"
        "                              lambda r: self.respond(msg, {}))\n"),
}

#: Expected (line, substring-of-message) per positive fixture — the
#: acceptance criterion asks for detection at the right file:line.
POSITIVE_AT = {
    "REPLY001": (3, "some control-flow path"),
    "RETRY001": (5, "retryable"),
    "TIME001": (6, "deadline"),
    "BLOCK001": (4, "event-returning"),
}


@pytest.mark.parametrize("rule", sorted(POSITIVE))
def test_rule_fires_on_violation(rule):
    assert flow_rules_of(POSITIVE[rule]) == [rule]


@pytest.mark.parametrize("rule", sorted(POSITIVE))
def test_rule_fires_at_right_line(rule):
    _s, findings = analyze_source(POSITIVE[rule], FIXTURE)
    line, fragment = POSITIVE_AT[rule]
    assert findings[0].file == FIXTURE
    assert findings[0].line == line
    assert fragment in findings[0].message


@pytest.mark.parametrize("rule", sorted(NEGATIVE))
def test_rule_passes_sanctioned_idiom(rule):
    assert flow_rules_of(NEGATIVE[rule]) == []


def test_every_flow_rule_documented():
    for rule in list(POSITIVE) + ["DEAD001", "FLOW001"]:
        assert rule in FLOW_RULES


# ---------------------------------------------------------------------------
# reply-disposition semantics
# ---------------------------------------------------------------------------

def test_never_responding_handler_is_reported_as_never():
    src = ("class SinkModule:\n"
           "    name = 'sink'\n"
           "    def req_drop(self, msg):\n"
           "        self.count = self.count + 1\n")
    summaries, findings = analyze_source(src, FIXTURE)
    assert [f.rule for f in findings] == ["REPLY001"]
    assert "never responds" in findings[0].message
    assert summaries[0].reply == "never"


def test_deferred_reply_via_held_message_passes():
    # The barrier idiom: park the request, answer at the exit event.
    src = ("class HoldModule:\n"
           "    name = 'hold'\n"
           "    def req_enter(self, msg):\n"
           "        self.held.append(msg)\n")
    summaries, findings = analyze_source(src, FIXTURE)
    assert findings == []
    assert summaries[0].reply == "deferred"


def test_deferred_reply_via_spawned_proc_passes():
    src = ("class ProcModule:\n"
           "    name = 'proc'\n"
           "    def req_get(self, msg):\n"
           "        self.broker.sim.spawn(self._get_proc(msg))\n")
    assert flow_rules_of(src) == []


def test_raise_counts_as_an_answered_exit():
    # The dispatcher converts NoHandlerError into an ENOSYS response.
    src = ("class StrictModule:\n"
           "    name = 'strict'\n"
           "    def req_only_root(self, msg):\n"
           "        if self.is_root:\n"
           "            self.respond(msg, {})\n"
           "        else:\n"
           "            raise NoHandlerError('root only')\n")
    assert flow_rules_of(src) == []


def test_try_except_must_answer_the_error_path():
    bad = ("class IoModule:\n"
           "    name = 'io'\n"
           "    def req_load(self, msg):\n"
           "        try:\n"
           "            data = self.store.load()\n"
           "            self.respond(msg, {'data': data})\n"
           "        except KeyError:\n"
           "            self.errors = self.errors + 1\n")
    good = bad.replace("self.errors = self.errors + 1",
                       "self.respond(msg, error='gone', code='ENOENT')")
    assert flow_rules_of(bad) == ["REPLY001"]
    assert flow_rules_of(good) == []


def test_proxy_upstream_counts_as_reply():
    src = ("class FwdModule:\n"
           "    name = 'fwd'\n"
           "    def req_ask(self, msg):\n"
           "        self.proxy_upstream(msg)\n")
    summaries, findings = analyze_source(src, FIXTURE)
    assert findings == []
    # ... and models the self-loop send toward the upstream instance.
    sends = summaries[0].sends
    assert [s.topic for s in sends] == ["fwd.ask"]
    assert sends[0].waits


#: A reduction relaying its count one-way and a handler that never
#: answers it: fine while ``tally.add`` is only ever sent one-way.
ONEWAY = ("class TallyModule:\n"
          "    name = 'tally'\n"
          "    def req_add(self, msg):\n"
          "        self.count = self.count + msg.payload['n']\n"
          "    def _relay(self):\n"
          "        self.broker.send_parent('tally.add', {'n': 1})\n"
          "        self.broker.send_hop(3, 'tally.add', {'n': 1})\n")


def test_topic_sent_only_one_way_owes_no_reply():
    summaries, findings = analyze_source(ONEWAY, FIXTURE)
    assert findings == []
    assert [(s.topic, s.reply) for s in summaries] == [
        ("tally.add", "oneway")]


def test_topic_also_sent_as_a_request_must_be_answered():
    # One waiting sender anywhere (here a client's rpc) makes every
    # copy a request the handler must answer.
    src = ONEWAY + ("def client(h):\n"
                    "    yield h.rpc('tally.add', {'n': 2}, timeout=1.0)\n")
    summaries, findings = analyze_source(src, FIXTURE)
    assert [f.rule for f in findings] == ["REPLY001"]
    assert {s.method: s for s in summaries}["req_add"].reply == "never"


# ---------------------------------------------------------------------------
# effect-summary extraction details
# ---------------------------------------------------------------------------

def test_fstring_self_name_topics_resolve():
    src = ("class NsModule:\n"
           "    name = 'ns'\n"
           "    def req_pull(self, msg):\n"
           "        self.broker.rpc_parent_cb(f'{self.name}.sync', {},\n"
           "                                  lambda r: None)\n"
           "        self.respond(msg, {})\n"
           "    def req_sync(self, msg):\n"
           "        self.respond(msg, {})\n")
    pull = {s.method: s for s in summaries_of(src)}["req_pull"]
    assert [s.topic for s in pull.sends] == ["ns.sync"]


def test_wrapper_helper_topic_binds_at_call_site():
    src = ("class WrapModule:\n"
           "    name = 'wrap'\n"
           "    def req_go(self, msg):\n"
           "        self._fwd('kvs.put', {'key': 'a'})\n"
           "        self.respond(msg, {})\n"
           "    def _fwd(self, topic, payload):\n"
           "        self.broker.rpc_parent_cb(topic, payload,\n"
           "                                  lambda r: None)\n")
    go = {s.method: s for s in summaries_of(src)}["req_go"]
    assert [(s.topic, s.via) for s in go.sends] \
        == [("kvs.put", ("_fwd",))]


def test_raisable_codes_collected():
    src = ("class ErrModule:\n"
           "    name = 'err'\n"
           "    def req_do(self, msg):\n"
           "        if self.bad:\n"
           "            self.respond(msg, error='x', code='ENOENT')\n"
           "        else:\n"
           "            self.respond(msg, {})\n")
    assert summaries_of(src)[0].raises == ("ENOENT",)


def test_event_callback_summarized_from_subscription():
    src = ("class EvModule:\n"
           "    name = 'ev'\n"
           "    def start(self):\n"
           "        self.broker.subscribe('hb.pulse', self._on_pulse)\n"
           "    def _on_pulse(self, msg):\n"
           "        self.broker.publish('ev.tick', {})\n"
           "    def req_noop(self, msg):\n"
           "        self.respond(msg, {})\n")
    ev = {s.method: s for s in summaries_of(src)}["_on_pulse"]
    assert ev.kind == "event" and ev.topic == "hb.pulse"
    assert [s.topic for s in ev.sends] == ["ev.tick"]


def test_noqa_suppresses_flow_rules():
    src = POSITIVE["REPLY001"].replace(
        "def req_ping(self, msg):",
        "def req_ping(self, msg):  # repro: noqa[REPLY001]")
    assert flow_rules_of(src) == []
    other = POSITIVE["REPLY001"].replace(
        "def req_ping(self, msg):",
        "def req_ping(self, msg):  # repro: noqa[TIME001]")
    assert flow_rules_of(other) == ["REPLY001"]


# ---------------------------------------------------------------------------
# flow graph: toy two-module protocol
# ---------------------------------------------------------------------------

TOY = (
    "class FrontModule:\n"
    "    name = 'front'\n"
    "    def start(self):\n"
    "        self.broker.subscribe('back.done', self._on_done)\n"
    "    def req_submit(self, msg):\n"
    "        self.broker.rpc_up_cb('back.work', dict(msg.payload),\n"
    "                              lambda r: self.respond(msg, {}))\n"
    "    def _on_done(self, msg):\n"
    "        self.done = True\n"
    "\n"
    "class BackModule:\n"
    "    name = 'back'\n"
    "    def req_work(self, msg):\n"
    "        self.respond(msg, {})\n"
    "        self.broker.publish('back.done', {'n': 1})\n")


def toy_graph(tmp_path, source=TOY, **kw):
    (tmp_path / "toy.py").write_text(source)
    kw.setdefault("registry", {})
    kw.setdefault("event_topics", frozenset({"back.done"}))
    return build_graph([str(tmp_path)], **kw)


def test_toy_graph_nodes_and_edges(tmp_path):
    graph, findings = toy_graph(tmp_path)
    assert findings == []
    assert sorted(graph.handlers) == ["back.work", "front.submit"]
    kinds = {(e["src"], e["dst"]): e["kind"] for e in graph.edges}
    assert kinds[("front.submit", "back.work")] == "request"
    assert kinds[("back.work", "event:back.done")] == "event"
    assert kinds[("event:back.done", "front:_on_done")] == "deliver"
    assert graph.cycles == []
    assert graph.orphans == {"unpublished": [], "unconsumed": []}


def test_toy_graph_exports(tmp_path):
    graph, _ = toy_graph(tmp_path)
    dot = to_dot(graph)
    assert '"front.submit" -> "back.work"' in dot
    assert "cluster_front" in dot and "cluster_back" in dot
    doc = json.loads(to_json(graph))
    assert doc["handlers"]["back.work"]["reply"] == "always"
    assert doc["meta"]["handlers"] == 2


def test_dead001_cross_module_wait_cycle(tmp_path):
    src = (
        "class AlphaModule:\n"
        "    name = 'alpha'\n"
        "    def req_go(self, msg):\n"
        "        self.broker.rpc_up_cb('beta.go', {},\n"
        "                              lambda r: self.respond(msg, {}))\n"
        "\n"
        "class BetaModule:\n"
        "    name = 'beta'\n"
        "    def req_go(self, msg):\n"
        "        self.broker.rpc_up_cb('alpha.go', {},\n"
        "                              lambda r: self.respond(msg, {}))\n")
    graph, findings = toy_graph(tmp_path, src,
                                event_topics=frozenset())
    assert [f.rule for f in findings] == ["DEAD001"]
    assert "alpha.go" in findings[0].message
    assert graph.cycles == [["alpha.go", "beta.go"]]


def test_dead001_exempts_tree_climb_self_loop(tmp_path):
    # barrier.enter -> parent's barrier.enter is the sanctioned
    # aggregation idiom (terminates at the root by construction).
    src = (
        "class ClimbModule:\n"
        "    name = 'climb'\n"
        "    def req_enter(self, msg):\n"
        "        self.broker.rpc_parent_cb('climb.enter', {},\n"
        "                                  lambda r: self.respond(\n"
        "                                      msg, {}))\n")
    graph, findings = toy_graph(tmp_path, src,
                                event_topics=frozenset())
    assert findings == []
    assert graph.cycles == []


def test_orphan_topics_reported_only_on_request(tmp_path):
    topics = frozenset({"back.done", "ghost.event"})
    graph, findings = toy_graph(tmp_path, event_topics=topics)
    assert findings == []          # FLOW001 is opt-in
    assert graph.orphans["unpublished"] == ["ghost.event"]
    assert graph.orphans["unconsumed"] == ["ghost.event"]
    _graph, findings = toy_graph(tmp_path, event_topics=topics,
                                 include_orphans=True)
    assert {f.rule for f in findings} == {"FLOW001"}
    assert all(f.severity == "warning" for f in findings)


# ---------------------------------------------------------------------------
# repo gates: flow-clean, registry drift, CLI
# ---------------------------------------------------------------------------

def _pkg_path():
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def test_repo_source_is_flow_clean():
    # The acceptance criterion: zero findings over the shipped package.
    graph, findings = build_graph([_pkg_path()])
    assert findings == []
    assert len(graph.handlers) >= 40
    assert graph.cycles == []


#: Every (src, dst, kind) edge touching ``barrier.*`` / ``mon.*`` /
#: ``health.*`` before the three moved onto one tree-reduction state
#: (``cmb/modules/reduce.py``), which never sends: each module keeps
#: its sends and their literal topics, so none of these may go.
REDUCTION_EDGES = {
    ("barrier.abort", "barrier.abort", "request"),
    ("barrier.enter", "barrier.abort", "request"),
    ("barrier.enter", "barrier.enter", "request"),
    ("barrier.enter", "barrier.release", "request"),
    ("barrier.enter", "barrier.renew", "request"),
    ("barrier.enter", "event:barrier.exit", "event"),
    ("barrier.renew", "barrier.abort", "request"),
    ("barrier.renew", "barrier.enter", "request"),
    ("barrier.renew", "barrier.renew", "request"),
    ("barrier:_on_pulse", "barrier.enter", "request"),
    ("event:barrier.exit", "barrier:_on_exit", "deliver"),
    ("event:hb.pulse", "barrier:_on_pulse", "deliver"),
    ("event:hb.pulse", "health:_on_pulse", "deliver"),
    ("event:hb.pulse", "mon:_on_pulse", "deliver"),
    ("event:health.activate", "health:_on_activate", "deliver"),
    ("event:health.deactivate", "health:_on_deactivate", "deliver"),
    ("event:live.down", "barrier:_on_live_down", "deliver"),
    ("event:live.down", "health:_on_down", "deliver"),
    ("event:live.down", "mon:_on_down", "deliver"),
    ("event:live.reattach", "barrier:_on_reattach", "deliver"),
    ("event:mon.activate", "mon:_on_activate", "deliver"),
    ("event:mon.deactivate", "mon:_on_deactivate", "deliver"),
    ("health.activate", "event:health.activate", "event"),
    ("health.deactivate", "event:health.deactivate", "event"),
    ("health.sample", "event:health.update", "event"),
    ("health.sample", "health.sample", "request"),
    ("health:_on_down", "event:health.update", "event"),
    ("health:_on_down", "health.sample", "request"),
    ("health:_on_pulse", "event:health.update", "event"),
    ("health:_on_pulse", "health.sample", "request"),
    ("mon.activate", "event:mon.activate", "event"),
    ("mon.deactivate", "event:mon.deactivate", "event"),
    ("mon.sample", "mon.sample", "request"),
    ("mon:_on_down", "mon.sample", "request"),
    ("mon:_on_pulse", "mon.sample", "request"),
}


def test_tree_reduction_edges_survive():
    graph, findings = build_graph([_pkg_path()])
    assert findings == []
    assert graph.unresolved <= 6
    edges = {(e["src"], e["dst"], e["kind"]) for e in graph.edges}
    assert REDUCTION_EDGES <= edges


def test_summaries_match_runtime_registry():
    # Single source of truth: the analyzer's handler set is exactly
    # what request_registry() derives for the dispatcher — a handler
    # renamed in source changes both sides together.
    from repro.cmb.modules import request_registry
    graph, _ = build_graph([_pkg_path()])
    registry_topics = {f"{mod}.{method}"
                       for mod, methods in request_registry().items()
                       for method in methods}
    assert set(graph.handlers) == registry_topics


def test_doctor_cross_references_flow_graph():
    from repro.obs.doctor import Doctor
    bundle = {
        "meta": {"retransmit_max": 3},
        "brokers": [{
            "rank": 0, "alive": True,
            "flight": {"records": []},
            "pending": [{"topic": "kvs.get", "msgid": 7, "plane": "tree",
                         "hop": 1, "hop_kind": "child", "attempts": 3,
                         "timer_armed": True}],
        }],
    }
    flow = {
        "handlers": {"kvs.get": {
            "cls": "KvsModule", "method": "req_get",
            "file": "src/repro/kvs/module.py", "line": 2051,
            "reply": "deferred", "flags": ["TIME001"]}},
        "cycles": [["kvs.get", "job.submit"]],
    }
    diag = Doctor([bundle], flow_graph=flow).diagnose()
    stalled = [f for f in diag["findings"]
               if f["pathology"] == "stalled-retransmission"]
    evidence = "\n".join(stalled[0]["evidence"])
    assert "KvsModule.req_get" in evidence
    assert "analyzer flagged this handler: TIME001" in evidence
    assert "wait cycle kvs.get -> job.submit" in evidence
    # Without a graph the diagnosis is unchanged (no static lines).
    plain = Doctor([bundle]).diagnose()
    assert "static flow" not in "\n".join(
        plain["findings"][0]["evidence"])


def test_cli_flow_strict_gate(tmp_path):
    from repro.analysis.__main__ import main
    bad = tmp_path / "bad.py"
    bad.write_text(POSITIVE["REPLY001"])
    assert main(["flow", "--strict", str(tmp_path)]) == 1
    assert main(["flow", str(tmp_path)]) == 0      # reports, no gate
    assert main(["flow", "--list-rules"]) == 0
    good = tmp_path / "good.py"
    bad.unlink()
    good.write_text(NEGATIVE["REPLY001"])
    dot = tmp_path / "g.dot"
    gjson = tmp_path / "g.json"
    assert main(["flow", "--strict", "--quiet", str(tmp_path),
                 "--dot", str(dot), "--graph-json", str(gjson)]) == 0
    assert "digraph flow" in dot.read_text()
    assert "echo.ping" in json.loads(gjson.read_text())["handlers"]


def test_cli_module_entrypoint():
    # `python -m repro.analysis flow --strict` on the shipped package
    # must exit 0 (the CI gate invocation, end to end).
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "flow", "--strict",
         "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
