"""Every example script must run clean end to end.

Each is executed in a subprocess (as a user would run it) with a
timeout; a failing example is a failing test, so the documentation
never rots.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def run_example(name: str, timeout: float = 180.0):
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=timeout)


def test_all_examples_discovered():
    assert len(EXAMPLES) >= 5
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name):
    proc = run_example(name)
    assert proc.returncode == 0, (
        f"{name} failed:\n{proc.stdout}\n{proc.stderr}")
    assert proc.stdout.strip(), f"{name} produced no output"
    assert "Traceback" not in proc.stderr


def test_quickstart_output_shape():
    out = run_example("quickstart.py").stdout
    assert "exchanged endpoints" in out
    assert "status 0" in out


def test_uq_ensemble_reports_speedup():
    out = run_example("uq_ensemble.py").stdout
    assert "speedup" in out
    line = [l for l in out.splitlines() if "speedup" in l][0]
    speedup = float(line.split(":")[1].strip().rstrip("x"))
    assert speedup > 1.2


def test_delegated_namespaces_reports_recovery():
    out = run_example("delegated_namespaces.py").stdout
    assert "commits/s" in out and "(1.00x)" in out
