"""Tests for the AST linter (repro.analysis.lint).

Every rule gets a positive fixture (the violation is reported) and a
negative fixture (the sanctioned idiom passes); plus the noqa
suppression syntax, the DET003 core/non-core scoping, the registry
integration, and the CLI gate semantics.
"""

import subprocess
import sys

import pytest

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.findings import (Finding, render_json, render_text,
                                     worst_severity)
from repro.analysis.lint import iter_python_files

CORE = "repro/sim/fixture.py"        # path inside the deterministic core
NONCORE = "repro/kap/fixture.py"     # outside the DET003 scope


def rules_of(src, filename=CORE, **kw):
    return [f.rule for f in lint_source(src, filename, **kw)]


# ---------------------------------------------------------------------------
# per-rule positive / negative fixtures
# ---------------------------------------------------------------------------

POSITIVE = {
    "DET001": "import time\nt = time.time()\n",
    "DET002": "import random\nx = random.randint(1, 6)\n",
    "DET003": "out = [x for x in {3, 1, 2}]\n",
    "PROTO001": "broker.rpc_up('kvs.frobnicate', {})\n",
    "PROTO002": "handle.publish('kvs.bogus_event', {})\n",
    "ERR001": "mod.respond(msg, error='x', code='EWHATEVER')\n",
    "EXC001": "try:\n    poke()\nexcept:\n    pass\n",
}

NEGATIVE = {
    "DET001": "t = sim.now\n",
    "DET002": "import random\nrng = random.Random(42)\nx = rng.random()\n",
    "DET003": "out = [x for x in sorted({3, 1, 2})]\n",
    "PROTO001": "broker.rpc_up('kvs.put', {'key': 'a', 'value': 1})\n",
    "PROTO002": "handle.publish('kvs.setroot', {})\n",
    "ERR001": "mod.respond(msg, error='x', code='ENOSYS')\n",
    "EXC001": "try:\n    poke()\nexcept ValueError:\n    pass\n",
}


@pytest.mark.parametrize("rule", sorted(POSITIVE))
def test_rule_fires_on_violation(rule):
    assert rules_of(POSITIVE[rule]) == [rule]


@pytest.mark.parametrize("rule", sorted(NEGATIVE))
def test_rule_passes_sanctioned_idiom(rule):
    assert rules_of(NEGATIVE[rule]) == []


def test_every_rule_documented():
    for rule in POSITIVE:
        assert rule in RULES


# ---------------------------------------------------------------------------
# DET rules: edge cases
# ---------------------------------------------------------------------------

def test_wallclock_variants_flagged():
    assert rules_of("import time\nx = time.monotonic()\n") == ["DET001"]
    assert rules_of("from datetime import datetime\n"
                    "d = datetime.now()\n") == ["DET001"]
    assert rules_of("from time import perf_counter\n") == ["DET001"]


def test_unseeded_random_variants_flagged():
    assert rules_of("import random\nrandom.seed(3)\n") == ["DET002"]
    assert rules_of("import random\nr = random.SystemRandom()\n") \
        == ["DET002"]
    assert rules_of("from random import shuffle\n") == ["DET002"]


def test_seeded_random_instance_ok():
    src = ("import random\n"
           "rng = random.Random(seed)\n"
           "rng.shuffle(items)\n"
           "y = rng.randint(0, 9)\n")
    assert rules_of(src) == []


def test_set_iteration_scoped_to_core():
    src = "for x in {1, 2}:\n    emit(x)\n"
    assert rules_of(src, CORE) == ["DET003"]
    assert rules_of(src, NONCORE) == []          # inferred from path
    assert rules_of(src, NONCORE, det_core=True) == ["DET003"]


def test_set_expression_shapes():
    assert rules_of("for x in set(items):\n    emit(x)\n") == ["DET003"]
    assert rules_of("for x in a | b:\n    pass\n") == []  # not provably sets
    assert rules_of("for x in set(a) - set(b):\n    pass\n") == ["DET003"]
    assert rules_of("out = {x for x in {1, 2}}\n") == ["DET003"]
    assert rules_of("for x in sorted(set(items)):\n    pass\n") == []


def test_det003_is_warning_not_error():
    findings = lint_source(POSITIVE["DET003"], CORE)
    assert findings[0].severity == "warning"
    assert worst_severity(findings) == "warning"


# ---------------------------------------------------------------------------
# PROTO rules: registry integration
# ---------------------------------------------------------------------------

def test_request_topics_match_runtime_registry():
    # These exist because the modules define req_ handlers; if a
    # handler is ever renamed, both the linter and the runtime ENOSYS
    # path change together (single source of truth).
    ok = ("h.rpc('kvs.commit', {})\n"
          "h.rpc('barrier.enter', {})\n"
          "h.rpc('live.status', {})\n")
    assert rules_of(ok) == []
    assert rules_of("h.rpc('kvs.comit', {})\n") == ["PROTO001"]
    assert rules_of("h.rpc('kvss.commit', {})\n") == ["PROTO001"]
    # A bare module head addresses the 'default' handler, which no
    # standard module implements -> runtime ENOSYS, caught here.
    assert rules_of("h.rpc('log', {})\n") == ["PROTO001"]


def test_rank_addressed_rpc_checks_second_arg():
    assert rules_of("b.rpc_rank(3, 'mon.sample', {})\n") == []
    assert rules_of("b.rpc_rank(3, 'mon.frob', {})\n") == ["PROTO001"]
    assert rules_of("b.rpc_hop_cb(2, 'kvs.flush', {}, cb)\n") == []


def test_fstring_topics():
    # Literal head, dynamic method: head must exist.
    assert rules_of("b.rpc_up(f'kvs.{m}', {})\n") == []
    assert rules_of("b.rpc_up(f'zzz.{m}', {})\n") == ["PROTO001"]
    # Dynamic head: skipped (no module in src/ has one; a literal
    # topic is checked against its own module's handler table).
    assert rules_of("c._rpc(f'{ns}.put', {})\n") == []
    assert rules_of("b.rpc_up(topic_var, {})\n") == []
    assert rules_of("b.rpc_up(f'{a}.{b}', {})\n") == []


def test_event_subscription_prefix_semantics():
    assert rules_of("h.subscribe('hb.', cb)\n") == []     # prefix of hb.pulse
    assert rules_of("h.subscribe('fault', cb)\n") == []   # exact
    assert rules_of("h.subscribe('nothing.', cb)\n") == ["PROTO002"]
    assert rules_of("h.wait_event('live.down')\n") == []
    # f-string tails resolve against known topic tails.
    assert rules_of("b.subscribe(f'{ns}.setroot', cb)\n") == []
    assert rules_of("b.publish(f'{ns}.exploded', {})\n") == ["PROTO002"]


def test_custom_tables_override():
    findings = lint_source(
        "h.rpc('echo.ping', {})\n", CORE,
        registry={"echo": frozenset({"ping"})})
    assert findings == []


# ---------------------------------------------------------------------------
# ERR001 / EXC001 details
# ---------------------------------------------------------------------------

def test_errnum_comparison_sides():
    assert rules_of("ok = exc.errnum == 'ETIMEDOUT'\n") == []
    assert rules_of("ok = 'EBOGUS' == exc.errnum\n") == ["ERR001"]
    assert rules_of("ok = resp.code != 'ENOENT'\n") == []
    # Unrelated attribute comparisons are not errnum checks.
    assert rules_of("ok = obj.status == 'EBOGUS'\n") == []


def test_errnum_keyword_variants():
    assert rules_of("raise_error(errnum='EPROTO')\n") == []
    assert rules_of("raise_error(errnum='E_PROTO')\n") == ["ERR001"]
    # Non-constant code values are skipped (dynamic).
    assert rules_of("m.respond(msg, code=exc.code)\n") == []


# ---------------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------------

def test_noqa_blanket_and_targeted():
    assert rules_of("x = time.time()  # repro: noqa\n") == []
    assert rules_of(
        "x = time.time()  # repro: noqa[DET001]\n") == []
    assert rules_of(
        "x = time.time()  # repro: noqa[DET001, EXC001]\n") == []
    # A noqa for a different rule does not suppress.
    assert rules_of(
        "x = time.time()  # repro: noqa[EXC001]\n") == ["DET001"]


def test_noqa_only_covers_its_line():
    src = ("x = time.time()  # repro: noqa[DET001]\n"
           "y = time.time()\n")
    findings = lint_source(src, CORE)
    assert [f.rule for f in findings] == ["DET001"]
    assert findings[0].line == 2


# ---------------------------------------------------------------------------
# files, output, CLI
# ---------------------------------------------------------------------------

def test_repo_source_is_lint_clean():
    # The acceptance criterion: the shipped package has zero findings.
    import repro
    import os
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    assert lint_paths([pkg]) == []


def test_syntax_error_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings = lint_paths([str(tmp_path)])
    assert [f.rule for f in findings] == ["PARSE"]


def test_iter_python_files_sorted_and_filtered(tmp_path):
    (tmp_path / "b.py").write_text("")
    (tmp_path / "a.py").write_text("")
    (tmp_path / "c.txt").write_text("")
    sub = tmp_path / "__pycache__"
    sub.mkdir()
    (sub / "x.py").write_text("")
    files = list(iter_python_files([str(tmp_path)]))
    assert [f.rsplit("/", 1)[1] for f in files] == ["a.py", "b.py"]


def test_render_text_and_json():
    findings = lint_source(POSITIVE["EXC001"], CORE)
    text = render_text(findings)
    assert "EXC001" in text and CORE in text
    assert "1 finding(s): 1 error(s), 0 warning(s)" in text
    import json
    doc = json.loads(render_json(findings, kind="lint"))
    assert doc["meta"]["kind"] == "lint"
    assert doc["findings"][0]["rule"] == "EXC001"
    assert doc["findings"][0]["line"] == 3


def test_finding_provenance_rendering():
    static = Finding(rule="X", severity="error", message="m",
                     file="f.py", line=3, col=7)
    assert static.where() == "f.py:3:7"
    runtime = Finding(rule="X", severity="error", message="m",
                      t=1.25, rank=4)
    assert runtime.where() == "t=1.25 rank=4"


def test_cli_strict_gate(tmp_path):
    from repro.analysis.__main__ import main
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert main(["lint", "--strict", str(clean)]) == 0
    assert main(["lint", "--strict", str(dirty)]) == 1
    # Non-strict reports but does not gate.
    assert main(["lint", str(dirty)]) == 0
    assert main(["lint", "--list-rules"]) == 0


def test_cli_module_entrypoint():
    # `python -m repro.analysis lint --strict` on the shipped package
    # must exit 0 (the CI gate invocation, end to end).
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--strict",
         "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
