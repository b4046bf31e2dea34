"""Smoke test of the kernel bench: a --tiny run writes the documented JSON."""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "kernel.py"


def test_tiny_run_writes_valid_json(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(BENCH), "--tiny", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["tiny"] is True and doc["unit"] == "us"
    machine = doc["machine"]
    for key in ("cpu", "nproc", "python", "numpy", "scipy", "openblas", "blas_threads"):
        assert key in machine
    assert machine["OPENBLAS_NUM_THREADS"] == "1"
    assert set(doc["layers"]) == {"_update", "_update_fallback", "step",
                                  "gain_schedule_per_step", "wls_prefixes_per_prefix",
                                  "analyze_stability", "check_observability",
                                  "lambda_min_asymptotics"}
    for by_dim in doc["layers"].values():
        assert set(by_dim) == {"2", "8"}
        assert all(math.isfinite(v) and v > 0.0 for v in by_dim.values())
    ltv = doc["ltv"]
    assert (ltv["d"], ltv["m"], ltv["T"], ltv["L_max"]) == (4, 1, 40, 8)
    assert set(ltv["layers"]) == {"config_decode", "model_validation", "check_observability",
                                  "simulate_per_step", "run_per_step", "write_estimates_csv"}
    assert all(math.isfinite(v) and v > 0.0 for v in ltv["layers"].values())
    ensemble = doc["ensemble"]
    assert (ensemble["example"], ensemble["T"], ensemble["trials"]) == ("example1", 40, 100)
    assert set(ensemble["layers"]) == {"monte_carlo", "reproduce_example"}
    assert all(math.isfinite(v) and v > 0.0 for v in ensemble["layers"].values())
