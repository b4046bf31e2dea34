"""Smoke tests: the narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True,
                          text=True, env=env, timeout=300)


def test_monte_carlo_demo():
    proc = run_demo("04_monte_carlo_ensembles.py")
    assert proc.returncode == 0, proc.stderr
    assert "re-run is bit-identical: True" in proc.stdout
