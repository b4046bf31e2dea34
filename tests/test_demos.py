"""Smoke tests: the narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          text=True, env=env, timeout=300)


#: One line each demo must print, keyed by file name.
KEY_LINES = {
    "01_recover_initial_state.py": "recursive vs batch:",
    "02_observability_analysis.py": "verdict: Observable, window L = 2",
    "03_error_dynamics_stability.py": "Lyapunov trace monotone: True",
    "04_monte_carlo_ensembles.py": "re-run is bit-identical: True",
}


@pytest.mark.parametrize("name", KEY_LINES)
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert KEY_LINES[name] in proc.stdout
