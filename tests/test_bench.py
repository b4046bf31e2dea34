"""Smoke test of the kernel bench: a --tiny run writes the documented JSON."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import isokal

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench" / "kernel.py"

KERNEL_LAYERS = ("_update", "_update_fallback", "step", "gain_schedule_per_step",
                 "joseph_schedule_per_step", "wls_prefixes_per_prefix",
                 "advance_observed_evolution", "analyze_stability", "check_observability",
                 "lambda_min_asymptotics", "lambda_min")
SWEEP_LAYERS = ("observed_evolution_sequence_per_step", "simulate_per_step", "run_per_step")
LTV_LAYERS = ("config_decode", "load_config", "model_validation", "check_observability",
              "advance_observed_evolution", *SWEEP_LAYERS, "write_estimates_csv",
              "estimate_batch_check")
ANALYZE_LAYERS = ("check_observability", "lambda_min_asymptotics", "analyze_stability",
                  "check_observability_lambda_min_asymptotics", "analyze",
                  "observed_evolution_sequence_per_step", "wls_prefixes_per_prefix")


def timed_paths(dims, steps):
    """The path of every timed leaf of a run at kernel dimensions ``dims`` and sweep ``steps``."""
    return ({("layers", layer, d) for layer in KERNEL_LAYERS for d in dims}
            | {("ltv", "layers", layer) for layer in LTV_LAYERS}
            | {("ltv", "sweep", layer, T) for layer in SWEEP_LAYERS for T in steps}
            | {("ensemble", "layers", layer) for layer in ("monte_carlo", "reproduce_example")}
            | {("analyze", "layers", layer) for layer in ANALYZE_LAYERS}
            | {("schedule", case, "per_step", form) for case in ("ltv", "analyze")
               for form in ("information", "joseph")})


def leaves(node, path=()):
    """(path, leaf) of every dict under ``node`` whose ``this`` is a float (a time)."""
    if isinstance(node, dict) and isinstance(node.get("this"), float):
        yield path, node
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from leaves(child, (*path, key))


def test_tiny_run_writes_valid_json(tmp_path):
    # this checkout's src/ as its own baseline: every layer runs on both sides
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(BENCH), "--tiny", "--out", str(out),
                           "--baseline", str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["tiny"] is True and doc["unit"] == "us" and doc["rounds"] == 4
    machine = doc["machine"]
    for key in ("cpu", "nproc", "python", "numpy", "scipy", "openblas", "blas_threads"):
        assert key in machine
    assert machine["OPENBLAS_NUM_THREADS"] == "1"
    timed = dict(leaves(doc))
    assert set(timed) == timed_paths(("2", "8"), ("20", "40"))
    for leaf in timed.values():
        assert set(leaf) == {"this", "baseline", "ratio", "wins"}
        assert all(math.isfinite(leaf[side]) and leaf[side] > 0.0
                   for side in ("this", "baseline"))
        assert math.isclose(leaf["ratio"], leaf["this"] / leaf["baseline"], rel_tol=1e-2)
        assert isinstance(leaf["wins"], int) and 0 <= leaf["wins"] <= doc["rounds"]
    # where each side's A starts within a 64-byte line, per kernel size and for the analysis
    offsets = doc["layers"]["A_offset_64"]
    assert set(offsets) == {"2", "8"}
    for sides in [*offsets.values(), doc["analyze"]["A_offset_64"]]:
        assert set(sides) == {"this", "baseline"}
        assert all(isinstance(v, int) and 0 <= v < 64 and v % 8 == 0 for v in sides.values())
    assert set(doc["gate_form"]) == {"2", "8"}
    assert set(doc["gate_form"].values()) <= {"information", "joseph"}
    ltv = doc["ltv"]
    assert (ltv["d"], ltv["m"], ltv["T"], ltv["L_max"]) == (4, 1, 40, 8)
    gc_calls = ltv["gc_per_estimate_call"]
    assert gc_calls["calls"] == 5
    assert math.isfinite(gc_calls["seconds"]) and gc_calls["seconds"] >= 0.0
    assert set(gc_calls["collections"]) == {"0", "1", "2"}
    assert all(math.isfinite(v) and v >= 0.0 for v in gc_calls["collections"].values())
    ensemble = doc["ensemble"]
    assert (ensemble["example"], ensemble["T"], ensemble["trials"]) == ("example1", 40, 100)
    analyze = doc["analyze"]
    assert (analyze["d"], analyze["m"], analyze["L_max"], analyze["K"]) == (16, 2, 16, 20)
    schedule = doc["schedule"]
    assert {name: (case["d"], case["m"], case["T"]) for name, case in schedule.items()} == \
        {"ltv": (4, 1, 40), "analyze": (16, 2, 20)}
    for case in schedule.values():
        assert case["gate_form"] in ("information", "joseph")
        per_step = case["per_step"]
        assert math.isclose(case["ratio"], per_step["joseph"]["this"]
                            / per_step["information"]["this"], rel_tol=1e-2)
    startup = doc["startup"]
    assert set(startup) == {"this", "baseline"}
    for side in startup.values():
        assert set(side) == {"import_s", "peak_rss_mb", "command_s", "session_peak_rss_mb",
                             "scipy_linalg_loaded"}
        assert math.isfinite(side["import_s"]) and side["import_s"] > 0.0
        assert math.isfinite(side["peak_rss_mb"]) and side["peak_rss_mb"] > 0.0
        assert set(side["command_s"]) == {"lti", "ltv"}
        for seconds in side["command_s"].values():
            assert set(seconds) == {"simulate", "estimate", "analyze"}
            assert all(math.isfinite(v) and v > 0.0 for v in seconds.values())
        assert set(side["session_peak_rss_mb"]) == {"lti", "ltv"}
        assert all(peak >= side["peak_rss_mb"] for peak in side["session_peak_rss_mb"].values())
        # no session imports the scipy.linalg package, the LTI batch check included
        assert side["scipy_linalg_loaded"] == {
            kind: {"import": False, "simulate": False, "estimate": False, "analyze": False}
            for kind in ("lti", "ltv")}


def test_a_layer_the_baseline_cannot_run_is_timed_for_this_only(monkeypatch):
    # importing the bench pins the BLAS threads and puts src/ on the path: undone after
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("kernel_bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    # a baseline from before a rename: its estimator has no _joseph_schedule
    estimator = types.SimpleNamespace(**{name: value for name, value
                                         in vars(isokal.estimator).items()
                                         if name != "_joseph_schedule"})
    baseline = types.SimpleNamespace(**{**vars(isokal), "estimator": estimator})
    tables = {side: bench.schedule_table(package, bench.rotation_system(4, 1, package), 6)
              for side, package in (("this", isokal), ("baseline", baseline))}
    sampled = bench.sample(tables, 2, 1e-4)
    assert set(sampled["joseph"]) == {"this"}
    assert set(sampled["information"]) == {"this", "baseline", "ratio", "wins"}
    assert 0 <= sampled["information"]["wins"] <= 2
