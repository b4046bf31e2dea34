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
    assert doc["statistic"] == "minimum of perf_counter samples"
    machine = doc["machine"]
    for key in ("cpu", "nproc", "python", "numpy", "scipy", "openblas", "blas_threads"):
        assert key in machine
    assert machine["OPENBLAS_NUM_THREADS"] == "1"
    assert set(doc["layers"]) == {"_update", "_update_fallback", "step",
                                  "gain_schedule_per_step", "wls_prefixes_per_prefix",
                                  "advance_observed_evolution", "analyze_stability",
                                  "check_observability", "lambda_min_asymptotics"}
    for by_dim in doc["layers"].values():
        assert set(by_dim) == {"2", "8"}
        assert all(math.isfinite(v) and v > 0.0 for v in by_dim.values())
    ltv = doc["ltv"]
    assert (ltv["d"], ltv["m"], ltv["T"], ltv["L_max"]) == (4, 1, 40, 8)
    assert set(ltv["layers"]) == {"config_decode", "load_config", "model_validation",
                                  "check_observability",
                                  "advance_observed_evolution",
                                  "observed_evolution_sequence_per_step", "simulate_per_step",
                                  "run_per_step", "write_estimates_csv", "estimate_batch_check"}
    assert all(math.isfinite(v) and v > 0.0 for v in ltv["layers"].values())
    gc_calls = ltv["gc_per_estimate_call"]
    assert gc_calls["calls"] == 5
    assert math.isfinite(gc_calls["seconds"]) and gc_calls["seconds"] >= 0.0
    assert set(gc_calls["collections"]) == {"0", "1", "2"}
    assert all(math.isfinite(v) and v >= 0.0 for v in gc_calls["collections"].values())
    assert set(ltv["sweep"]) == {"observed_evolution_sequence_per_step", "simulate_per_step",
                                 "run_per_step"}
    for by_steps in ltv["sweep"].values():
        assert set(by_steps) == {"20", "40"}
        assert all(math.isfinite(v) and v > 0.0 for v in by_steps.values())
    ensemble = doc["ensemble"]
    assert (ensemble["example"], ensemble["T"], ensemble["trials"]) == ("example1", 40, 100)
    assert set(ensemble["layers"]) == {"monte_carlo", "reproduce_example"}
    assert all(math.isfinite(v) and v > 0.0 for v in ensemble["layers"].values())
    analyze = doc["analyze"]
    assert (analyze["d"], analyze["m"], analyze["L_max"], analyze["K"]) == (16, 2, 16, 20)
    assert set(analyze["layers"]) == {"check_observability", "lambda_min_asymptotics",
                                      "analyze_stability", "analyze",
                                      "observed_evolution_sequence_per_step",
                                      "wls_prefixes_per_prefix"}
    assert all(math.isfinite(v) and v > 0.0 for v in analyze["layers"].values())
    schedule = doc["schedule"]
    assert set(schedule) == {"ltv", "analyze"}
    assert {name: (case["d"], case["m"], case["T"]) for name, case in schedule.items()} == \
        {"ltv": (4, 1, 40), "analyze": (16, 2, 20)}
    for case in schedule.values():
        assert case["gate_form"] in ("information", "joseph")
        assert set(case["per_step"]) == {"information", "joseph"}
        assert all(math.isfinite(v) and v > 0.0 for v in case["per_step"].values())
        ratio = case["per_step"]["joseph"] / case["per_step"]["information"]
        assert math.isclose(case["ratio"], ratio, rel_tol=1e-2)
