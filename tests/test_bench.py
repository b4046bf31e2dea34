"""Smoke test of the kernel bench: a --tiny run writes the documented JSON."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench" / "kernel.py"


def test_tiny_run_writes_valid_json(tmp_path):
    # this checkout's src/ as its own baseline: the layers that compare two packages run
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(BENCH), "--tiny", "--out", str(out),
                           "--baseline", str(ROOT / "src")],
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
    startup = doc["startup"]
    assert set(startup) == {"this", "baseline"}
    for side in startup.values():
        assert set(side) == {"import_s", "peak_rss_mb", "command_s", "scipy_linalg_loaded"}
        assert math.isfinite(side["import_s"]) and side["import_s"] > 0.0
        assert math.isfinite(side["peak_rss_mb"]) and side["peak_rss_mb"] > 0.0
        assert set(side["command_s"]) == {"lti", "ltv"}
        for seconds in side["command_s"].values():
            assert set(seconds) == {"simulate", "estimate", "analyze"}
            assert all(math.isfinite(v) and v > 0.0 for v in seconds.values())
        # scipy loads at the LTI session's batch check, never in the LTV session
        assert side["scipy_linalg_loaded"] == {
            "lti": {"import": False, "simulate": False, "estimate": True, "analyze": True},
            "ltv": {"import": False, "simulate": False, "estimate": False, "analyze": False}}
    interleaved = doc["interleaved"]
    assert set(interleaved) == {"gain_schedule_per_step", "joseph_schedule_per_step",
                                "wls_prefixes_per_prefix", "gate_form", "analysis"}
    assert set(interleaved.pop("gate_form").values()) <= {"information", "joseph"}
    analysis = interleaved.pop("analysis")
    assert (analysis["d"], analysis["m"], analysis["L_max"], analysis["K"]) == (16, 2, 16, 20)
    assert analysis["ltv"] == {"d": 4, "m": 1, "T": 40, "L_max": 8}
    assert set(analysis["layers"]) == {"check_observability_lambda_min_asymptotics",
                                       "ltv_check_observability"}
    for pair in analysis["layers"].values():
        assert set(pair) == {"baseline", "this", "ratio"}
        assert all(math.isfinite(v) and v > 0.0 for v in pair.values())
        assert math.isclose(pair["ratio"], pair["this"] / pair["baseline"], rel_tol=1e-2)
    for by_dim in interleaved.values():
        assert set(by_dim) == {"2", "8"}
        for pair in by_dim.values():
            assert set(pair) == {"baseline", "this", "ratio"}
            assert all(math.isfinite(v) and v > 0.0 for v in pair.values())
            assert math.isclose(pair["ratio"], pair["this"] / pair["baseline"], rel_tol=1e-2)
