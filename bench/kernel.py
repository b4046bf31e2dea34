"""Time the filter's update kernel and the layers built on it.

    python3 bench/kernel.py [--tiny] [--out BENCH.json] [--baseline SRC]

Times ``estimator._update`` (on a positive definite P, the Cholesky path,
and on a rank-deficient P, the eigen-split fallback), ``estimator.step``,
``estimator.gain_schedule`` (per step), ``estimator.wls_prefixes`` (per
prefix), ``model.advance_observed_evolution`` (one step),
``stability.analyze_stability``, ``observability.check_observability``
(L_max = d) and ``observability.lambda_min_asymptotics`` (K = 2d, given
that report) at d = 2, 8, 32 and 128 on seeded random LTI systems.  It
also times the layers of one long LTV record (d = 8, m = 1, T = 800,
per-step A, H and R): ``cli._read_json`` of its config, written once as
JSON (the decode ``--config`` pays), ``cli._load_config`` of that file (the
decode and the validation, as every command that takes ``--config`` pays
them), ``SystemModel`` validation,
``check_observability`` (L_max = 16, every anchor), one
``advance_observed_evolution`` step in the middle of the record (its
transition carried), the ``model.observed_evolution_sequence`` walk of the
record, ``harness.simulate`` and ``estimator.run`` per step,
``harness.write_estimates_csv`` of the run's states as the CLI's
``estimate --truth`` writes them (stacking included), and one
``isokal estimate --batch-check`` of the record end to end through
``cli.main`` (config and observations read from a temporary directory).
For that same ``estimate`` it also counts, over a fixed run of consecutive
calls, the cyclic garbage collections per call by generation and the
seconds they take, from ``gc.callbacks``: the minimum over samples that
the layers report leaves out the collections that only some calls pay.
One
``harness.monte_carlo`` ensemble and one ``harness.reproduce_example`` of
example1 (d = 4, T = 40, 100 trials, the CSV file set written to a
temporary directory); and the analysis of ``isokal analyze --horizon 64
--k-max 100`` on a d = 64, m = 8 LTI model of rotation blocks whose radii
straddle 1: ``check_observability`` (L_max = 64),
``lambda_min_asymptotics`` (K = 100) and ``analyze_stability``
(k_max = 100, P0 = I), each given that report, the three in a row, the
``observed_evolution_sequence`` walk of K steps, per step, and
``estimator.wls_prefixes`` of K observations, per prefix.  The two
forms of the filter pass, ``estimator._information_schedule`` and
``estimator._joseph_schedule``, are timed per step on the same observers
of that LTV record and of that analysis model (T = K), the information
form on the observers the pass whitens once before its gate (whitening
untimed, as both forms share it), their samples taken
in turn, A, B, A, B, in one process, so that a slow phase of the machine
hits both alike; the JSON gives each minimum, their ratio (Joseph over
information) and the form the gate picks.  The LTV
sweep times the walk, ``harness.simulate`` and ``estimator.run`` per step
on the first T steps of one record of 2000, for T = 100, 250, 500, 1000
and 2000: each should stay flat in T.
It writes the minimum over the perf_counter samples, in microseconds per
call, as JSON together with the machine: CPU, numpy, scipy and OpenBLAS
versions and the BLAS thread count, which is pinned to 1 before numpy
loads.  The minimum is the least disturbed sample: other processes on a
shared machine only ever add time, so medians of the same code spread
wider between runs than the changes they are meant to show.  isokal is
imported from ``src/`` next to this directory.  ``--tiny`` is a smoke run
(d = 2 and 8, an LTV record of d = 4 and T = 40 with a sweep over T = 20
and 40, a d = 16, m = 2 analysis with K = 20, three short repeats) of a
few seconds.

The start-up layer runs the two sessions of the CLI below, each in its own
fresh interpreter, SAMPLES times (3 with ``--tiny``): LTI (the analysis
model at d = 16, m = 2: ``simulate``, ``estimate --batch-check`` and
``analyze``) and LTV (the record at d = 4, T = 40: ``simulate``,
``estimate`` and ``analyze``).  It records the seconds of ``import
isokal.cli`` and the peak resident memory after it (minimums over every
interpreter), the minimum seconds of each command, and whether
``scipy.linalg`` is loaded after the import and after each command.
``--baseline SRC`` also imports the isokal package under SRC (another
checkout's ``src/``) beside this one.  The start-up samples then alternate
between the two, and at every d the per-step minimums of
``gain_schedule``, of the Joseph recursion ``_joseph_schedule`` (the
kernel that still calls LAPACK through scipy) and of ``wls_prefixes`` are
sampled in turn, the baseline's and this package's, in one process
(``interleaved``, with the ratio this over baseline).  So are
``check_observability`` followed by ``lambda_min_asymptotics`` (given that
report) on the analysis model, and ``check_observability`` of the LTV record
(``interleaved["analysis"]``, whole calls).
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import textwrap  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg.lapack import dpotrf  # noqa: E402

import isokal  # noqa: E402
from isokal import cli, estimator, harness, observability, stability  # noqa: E402
from isokal.model import (SystemModel, advance_observed_evolution,  # noqa: E402
                          observed_evolution_sequence)

LAYERS = ("_update", "_update_fallback", "step", "gain_schedule_per_step",
          "wls_prefixes_per_prefix", "advance_observed_evolution", "analyze_stability",
          "check_observability", "lambda_min_asymptotics")
LTV_LAYERS = ("config_decode", "load_config", "model_validation", "check_observability",
              "advance_observed_evolution", "observed_evolution_sequence_per_step",
              "simulate_per_step", "run_per_step", "write_estimates_csv",
              "estimate_batch_check")
SWEEP_LAYERS = ("observed_evolution_sequence_per_step", "simulate_per_step", "run_per_step")
ENSEMBLE_LAYERS = ("monte_carlo", "reproduce_example")
ANALYZE_LAYERS = ("check_observability", "lambda_min_asymptotics", "analyze_stability",
                  "analyze", "observed_evolution_sequence_per_step", "wls_prefixes_per_prefix")
SCHEDULE_FORMS = ("information", "joseph")
INTERLEAVED_LAYERS = ("gain_schedule_per_step", "joseph_schedule_per_step",
                      "wls_prefixes_per_prefix")
INTERLEAVED_ANALYSIS_LAYERS = ("check_observability_lambda_min_asymptotics",
                               "ltv_check_observability")
SESSION_COMMANDS = ("simulate", "estimate", "analyze")

#: Fresh interpreters per side for the start-up layer.
SAMPLES = 10

#: One fresh interpreter of the start-up layer: it times ``import isokal.cli``,
#: reads the peak resident memory, then runs one session's commands through
#: ``cli.main`` and notes after each whether scipy.linalg is loaded.  The
#: peak is VmHWM, this process's own: ``ru_maxrss`` of a child started by
#: fork and exec also counts the resident memory of the bench process.
STARTUP_PROBE = textwrap.dedent("""
    import json, sys, time
    t0 = time.perf_counter()
    import isokal.cli
    out = {"import_s": time.perf_counter() - t0, "scipy_linalg": {}, "seconds": {}}
    with open("/proc/self/status", encoding="utf-8") as fh:
        out["peak_rss_mb"] = next(int(line.split()[1]) for line in fh
                                  if line.startswith("VmHWM:")) / 1024.0
    out["scipy_linalg"]["import"] = "scipy.linalg" in sys.modules
    for argv in json.loads(sys.argv[1]):
        t0 = time.perf_counter()
        if isokal.cli.main(argv) != 0:
            raise SystemExit(f"isokal {argv[0]} failed")
        out["seconds"][argv[0]] = time.perf_counter() - t0
        out["scipy_linalg"][argv[0]] = "scipy.linalg" in sys.modules
    print(json.dumps(out))
""")


def machine():
    """CPU, library versions and the BLAS thread count of each OpenBLAS in use."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    threads = {}
    for mod in (np, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, sym):
                    getattr(lib, sym).restype = ctypes.c_int
                    threads[mod.__name__] = getattr(lib, sym)()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": threads,
    }


def system(d, package=isokal):
    """Seeded LTI system: orthogonal dynamics (H~_k stays O(1)), m = max(1, d/4)."""
    rng = np.random.default_rng((2026, d))
    a = np.linalg.qr(rng.standard_normal((d, d)))[0]
    h = rng.standard_normal((max(1, d // 4), d))
    return package.SystemModel(a, h, 0.1)


def rotation_system(d, m, package=isokal):
    """Seeded LTI rotation blocks whose radii straddle 1, hidden by a random rotation.

    Output i sees its own group of blocks, whose angles sit at the odd
    multiples of pi / (2 per) with per = d / (2m) blocks per output, so a
    window of d/m steps observes the state; radii alternate between
    0.96-0.99 and 1.01-1.04 (the LyapunovStableOnly regime, a BoundedLimit
    growth class).
    """
    rng = np.random.default_rng((2026, d, m))
    per = d // (2 * m)
    blocks, h = np.zeros((d, d)), np.zeros((m, d))
    for i in range(m):
        for j in range(per):
            b = 2 * (i * per + j)
            theta = (2 * j + 1 + rng.uniform(-0.2, 0.2)) * math.pi / (2 * per)
            r = rng.uniform(0.96, 0.99) if j % 2 == 0 else rng.uniform(1.01, 1.04)
            c, s = math.cos(theta), math.sin(theta)
            blocks[b:b + 2, b:b + 2] = r * np.array([[c, -s], [s, c]])
            phase = rng.uniform(0.0, 2.0 * math.pi)
            h[i, b:b + 2] = [math.cos(phase), math.sin(phase)]
    h += 0.05 * rng.standard_normal((m, d))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return package.SystemModel(q @ blocks @ q.T, h @ q.T, 1e-2)


def ltv_record(d, m, T):
    """Seeded LTV sequences (A_seq, H_seq, R_seq) that every window of ceil(d/m) steps observes.

    A_k = U_k D_k U_{k-1}^T with random orthogonal frames U_k and a
    near-identity diagonal D_k, and H_k = c_k^T U_k^T with rows c_k cycling
    through a perturbed standard basis; R_k = 1e-2 (I + G_k G_k^T).
    """
    rng = np.random.default_rng((2026, d, m, T))
    frames = [np.eye(d)] + [np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(T - 1)]
    a_seq = np.stack([(frames[k] * np.exp(rng.uniform(-0.01, 0.01, d))) @ frames[k - 1].T
                      for k in range(1, T)])
    basis = np.eye(d)
    h_seq = np.stack([(basis[[(k * m + i) % d for i in range(m)]]
                       + 0.2 * rng.standard_normal((m, d)) / math.sqrt(d)) @ frames[k].T
                      for k in range(T)])
    g = 0.5 * rng.standard_normal((T, m, m))
    return a_seq, h_seq, 1e-2 * (np.eye(m) + g @ np.swapaxes(g, 1, 2))


def ltv_config(a_seq, h_seq, r_seq):
    """The CLI config of an ``ltv_record``."""
    return {
        "d": a_seq.shape[1], "m": h_seq.shape[1],
        "dynamics": {"kind": "ltv", "A_seq": a_seq.tolist()},
        "observation": {"kind": "ltv", "H_seq": h_seq.tolist()},
        "noise": {"kind": "per_step", "R_seq": r_seq.tolist()},
    }


def min_us(fn, repeats, target_s):
    """Minimum over ``repeats`` samples of the seconds per call, in microseconds.

    Each sample loops ``fn`` for about ``target_s`` seconds, sized by one
    warm-up call.
    """
    return interleaved_min_us([fn], repeats, target_s)[0]


def interleaved_min_us(fns, repeats, target_s):
    """``min_us`` of each of ``fns``, from samples taken in turn: A, B, A, B, ...

    Each function's loop is sized by its own warm-up call; every round takes
    one sample of each, so a slow phase of the machine hits all alike.
    """
    numbers = []
    for fn in fns:
        t0 = time.perf_counter()
        fn()
        numbers.append(max(1, int(target_s / max(time.perf_counter() - t0, 1e-9))))
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, number, out in zip(fns, numbers, samples):
            t0 = time.perf_counter()
            for _ in range(number):
                fn()
            out.append((time.perf_counter() - t0) / number)
    return [min(out) * 1e6 for out in samples]


def gc_per_call(fn, calls):
    """Cyclic GC per call of ``fn`` over ``calls`` consecutive calls, from ``gc.callbacks``.

    A full collection first gives every run the same start.  Returns the
    call count, the seconds spent collecting and the collections of each
    generation, each divided by the call count.
    """
    seconds, started, collections_by_gen = 0.0, 0.0, [0, 0, 0]

    def callback(phase, info):
        nonlocal seconds, started
        if phase == "start":
            started = time.perf_counter()
        else:
            seconds += time.perf_counter() - started
            collections_by_gen[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(callback)
    try:
        for _ in range(calls):
            fn()
    finally:
        gc.callbacks.remove(callback)
    return {"calls": calls, "seconds": seconds / calls,
            "collections": {str(g): n / calls for g, n in enumerate(collections_by_gen)}}


def measure(d, tiny):
    repeats, target_s = (3, 0.005) if tiny else (7, 0.05)
    T, k_max = (4, 5) if tiny else (50, 40)
    model = system(d)
    sched = estimator.gain_schedule(model, 1.0, T)
    P, h, R = sched.P[T // 2], sched.h_tilde[T // 2], model.R_at(T // 2)
    state = estimator.run(model, None, 1.0, np.zeros((T // 2, model.m)))[-1]
    y = np.ones(model.m)
    obs = harness.simulate(model, np.ones(d), T, 1)
    # P with its trailing half of rows and columns zeroed: PSD, rank d/2,
    # and Cholesky meets a zero pivot, so the update takes the eigen-split
    singular = P.copy()
    singular[d // 2:] = 0.0
    singular[:, d // 2:] = 0.0
    assert dpotrf(singular, lower=1)[1] > 0
    report = observability.check_observability(model, d)
    eye = np.eye(d)
    return {
        "_update": min_us(lambda: estimator._update(P, h, R), repeats, target_s),
        "_update_fallback": min_us(lambda: estimator._update(singular, h, R),
                                   repeats, target_s),
        "step": min_us(lambda: estimator.step(state, y, R, model), repeats, target_s),
        "gain_schedule_per_step": min_us(
            lambda: estimator.gain_schedule(model, 1.0, T), repeats, target_s) / T,
        # T observations give T + 1 prefixes, the prior alone first
        "wls_prefixes_per_prefix": min_us(
            lambda: collections.deque(estimator.wls_prefixes(model, None, 1.0, obs), maxlen=0),
            repeats, target_s) / (T + 1),
        "advance_observed_evolution": min_us(
            lambda: advance_observed_evolution(model, 1, h, eye), repeats, target_s),
        "analyze_stability": min_us(
            lambda: stability.analyze_stability(model, 1.0, k_max), repeats, target_s),
        "check_observability": min_us(
            lambda: observability.check_observability(model, d), repeats, target_s),
        "lambda_min_asymptotics": min_us(
            lambda: observability.lambda_min_asymptotics(model, 2 * d, report=report),
            repeats, target_s),
    }


def measure_ltv(tiny):
    repeats, target_s = (3, 0.005) if tiny else (7, 0.05)
    d, m, T, horizon = (4, 1, 40, 8) if tiny else (8, 1, 800, 16)
    a_seq, h_seq, r_seq = ltv_record(d, m, T)
    model = SystemModel(a_seq, h_seq, r_seq)
    x0 = np.ones(d)
    obs = harness.simulate(model, x0, T, 1)
    states = estimator.run(model, None, 1.0, obs)
    mid = states[T // 2 - 1]

    def write_estimates(path):
        x_hat = np.array([s.x_hat for s in states])
        harness.write_estimates_csv(path, x_hat, [np.trace(s.P) for s in states], truth=x0)

    config = ltv_config(a_seq, h_seq, r_seq)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "estimates.csv"
        write_us = min_us(lambda: write_estimates(path), repeats, target_s)
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        decode_us = min_us(lambda: cli._read_json(config_path, "--config"),
                           repeats, target_s)
        load_us = min_us(lambda: cli._load_config(config_path), repeats, target_s)
        obs_path = Path(tmp) / "observations.csv"
        harness.write_observations_csv(obs_path, obs)
        estimate = ["estimate", "--config", str(config_path), "--obs", str(obs_path),
                    "--p0", "1.0", "--out", str(Path(tmp) / "est.csv"), "--batch-check",
                    "--quiet"]
        if cli.main(estimate) != 0:
            raise RuntimeError("estimate --batch-check failed on the LTV record")
        batch_check_us = min_us(lambda: cli.main(estimate), repeats, target_s)
        gc_calls = gc_per_call(lambda: cli.main(estimate), 5 if tiny else 30)
    layers = {
        "config_decode": decode_us,
        "load_config": load_us,
        "model_validation": min_us(lambda: SystemModel(a_seq, h_seq, r_seq),
                                   repeats, target_s),
        "check_observability": min_us(
            lambda: observability.check_observability(model, horizon), repeats, target_s),
        "advance_observed_evolution": min_us(
            lambda: advance_observed_evolution(model, T // 2, mid.H_tilde_next, mid.phi),
            repeats, target_s),
        "observed_evolution_sequence_per_step": min_us(
            lambda: observed_evolution_sequence(model, T), repeats, target_s) / T,
        "simulate_per_step": min_us(lambda: harness.simulate(model, x0, T, 1),
                                    repeats, target_s) / T,
        "run_per_step": min_us(lambda: estimator.run(model, None, 1.0, obs),
                               repeats, target_s) / T,
        "write_estimates_csv": write_us,
        "estimate_batch_check": batch_check_us,
    }
    return {"d": d, "m": m, "T": T, "L_max": horizon, "layers": layers,
            "gc_per_estimate_call": gc_calls,
            "sweep": measure_ltv_sweep(d, m, (20, 40) if tiny else (100, 250, 500, 1000, 2000),
                                       repeats, target_s)}


def measure_ltv_sweep(d, m, steps, repeats, target_s):
    """Per-step walk, simulate and run on the first T steps of one LTV record, for each T."""
    a_seq, h_seq, r_seq = ltv_record(d, m, max(steps))
    sweep = {layer: {} for layer in SWEEP_LAYERS}
    x0 = np.ones(d)
    for T in steps:
        model = SystemModel(a_seq[:T - 1], h_seq[:T], r_seq[:T])
        obs = harness.simulate(model, x0, T, 1)
        sweep["observed_evolution_sequence_per_step"][str(T)] = min_us(
            lambda: observed_evolution_sequence(model, T), repeats, target_s) / T
        sweep["simulate_per_step"][str(T)] = min_us(
            lambda: harness.simulate(model, x0, T, 1), repeats, target_s) / T
        sweep["run_per_step"][str(T)] = min_us(
            lambda: estimator.run(model, None, 1.0, obs), repeats, target_s) / T
    return sweep


def measure_ensemble(tiny):
    repeats, target_s = (3, 0.005) if tiny else (7, 0.05)
    model, x0, x_hat0, p0, _ = harness.example_system("example1")
    T, trials = harness.EXAMPLE_STEPS, 100
    with tempfile.TemporaryDirectory() as tmp:
        layers = {
            "monte_carlo": min_us(
                lambda: harness.monte_carlo(model, x0, x_hat0, p0, T, trials, 42),
                repeats, target_s),
            "reproduce_example": min_us(
                lambda: harness.reproduce_example("example1", trials, 42, tmp),
                repeats, target_s),
        }
    return {"example": "example1", "T": T, "trials": trials, "layers": layers}


def measure_analyze(tiny):
    """The analysis of one ``isokal analyze`` of an observable LTI model, layer by layer."""
    repeats, target_s = (3, 0.005) if tiny else (7, 0.05)
    d, m, K = (16, 2, 20) if tiny else (64, 8, 100)
    model = rotation_system(d, m)
    report = observability.check_observability(model, d)
    obs = harness.simulate(model, np.ones(d), K, 1)

    def analyze():
        obs_report = observability.check_observability(model, d)
        observability.lambda_min_asymptotics(model, K, report=obs_report)
        stability.analyze_stability(model, 1.0, K, report=obs_report)

    layers = {
        "check_observability": min_us(
            lambda: observability.check_observability(model, d), repeats, target_s),
        "lambda_min_asymptotics": min_us(
            lambda: observability.lambda_min_asymptotics(model, K, report=report),
            repeats, target_s),
        "analyze_stability": min_us(
            lambda: stability.analyze_stability(model, 1.0, K, report=report),
            repeats, target_s),
        "analyze": min_us(analyze, repeats, target_s),
        "observed_evolution_sequence_per_step": min_us(
            lambda: observed_evolution_sequence(model, K), repeats, target_s) / K,
        "wls_prefixes_per_prefix": min_us(
            lambda: collections.deque(estimator.wls_prefixes(model, None, 1.0, obs), maxlen=0),
            repeats, target_s) / (K + 1),
    }
    return {"d": d, "m": m, "L_max": d, "K": K, "layers": layers}


def measure_schedules(tiny):
    """Both forms of the filter pass, interleaved, on the LTV record and the analysis model."""
    repeats, target_s = (3, 0.005) if tiny else (15, 0.05)
    d, m, T = (4, 1, 40) if tiny else (8, 1, 800)
    cases = {"ltv": SystemModel(*ltv_record(d, m, T))}
    d, m, K = (16, 2, 20) if tiny else (64, 8, 100)
    cases["analyze"] = rotation_system(d, m)
    out = {}
    for name, model in cases.items():
        steps = T if name == "ltv" else K
        p0 = np.eye(model.d)
        h_tilde = observed_evolution_sequence(model, steps)[0]
        whitened = model.whiten(h_tilde)
        per_step = [us / steps for us in interleaved_min_us(
            [lambda: estimator._information_schedule(model, p0, whitened),
             lambda: estimator._joseph_schedule(model, p0, h_tilde)], repeats, target_s)]
        out[name] = {"d": model.d, "m": model.m, "T": steps,
                     "gate_form": estimator.gain_schedule(model, p0, steps).form,
                     "per_step": dict(zip(SCHEDULE_FORMS, per_step)),
                     "ratio": per_step[1] / per_step[0]}
    return out


def startup_sessions(tmp):
    """Argvs of the tiny LTI and LTV sessions of the start-up layer, configs written to ``tmp``.

    LTI: the analysis model at d = 16, m = 2 (``simulate``, ``estimate
    --batch-check``, ``analyze --horizon 16 --k-max 20``), 20 steps.  LTV:
    the record at d = 4, T = 40 (``simulate``, ``estimate``, ``analyze
    --horizon 8``).
    """
    lti = rotation_system(16, 2)
    cases = {
        "lti": ({"d": 16, "m": 2, "dynamics": {"kind": "lti", "A": lti.A_at(1).tolist()},
                 "observation": {"kind": "lti", "H": lti.H_at(0).tolist()},
                 "noise": {"kind": "isotropic", "sigma2": 1e-2}}, 20, 16, ["--batch-check"]),
        "ltv": (ltv_config(*ltv_record(4, 1, 40)), 40, 8, []),
    }
    sessions = {}
    for kind, (doc, steps, horizon, extra) in cases.items():
        config = Path(tmp) / f"{kind}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        cfg = ["--config", str(config)]
        obs, est, report = (str(Path(tmp) / f"{kind}-{name}")
                            for name in ("obs.csv", "est.csv", "report.json"))
        sessions[kind] = [
            ["simulate", *cfg, "--x0", ",".join(["1"] * doc["d"]), "--steps", str(steps),
             "--out", obs, "--quiet"],
            ["estimate", *cfg, "--obs", obs, "--p0", "1.0", "--out", est, "--quiet", *extra],
            ["analyze", *cfg, "--horizon", str(horizon), "--k-max", "20", "--out", report,
             "--quiet"],
        ]
    return sessions


def measure_startup(sources, samples):
    """The start-up layer of each package in ``sources`` (side -> src dir), sampled in turn.

    Each sample runs ``STARTUP_PROBE`` once per session, LTI and LTV, in a
    fresh interpreter with only that ``src`` on PYTHONPATH.  Returns, per
    side, the minimum import seconds and peak resident memory after the
    import over all its interpreters and, per session, the minimum seconds
    of each command and whether scipy.linalg was loaded after the import
    and after each command.
    """
    runs = {side: {} for side in sources}
    with tempfile.TemporaryDirectory() as tmp:
        sessions = startup_sessions(tmp)
        for _ in range(samples):
            for side, src in sources.items():
                for kind, argvs in sessions.items():
                    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, json.dumps(argvs)],
                                          env={**os.environ, "PYTHONPATH": str(src)},
                                          capture_output=True, text=True, timeout=600)
                    if proc.returncode != 0:
                        raise RuntimeError(f"start-up probe of {src} failed:\n{proc.stderr}")
                    runs[side].setdefault(kind, []).append(json.loads(proc.stdout))
    out = {}
    for side, by_kind in runs.items():
        every = [run for docs in by_kind.values() for run in docs]
        out[side] = {"import_s": min(run["import_s"] for run in every),
                     "peak_rss_mb": min(run["peak_rss_mb"] for run in every),
                     "command_s": {kind: {cmd: min(run["seconds"][cmd] for run in docs)
                                          for cmd in SESSION_COMMANDS}
                                   for kind, docs in by_kind.items()},
                     "scipy_linalg_loaded": {kind: docs[0]["scipy_linalg"]
                                             for kind, docs in by_kind.items()}}
    return out


def load_baseline(src):
    """The isokal package under ``src``, imported as ``isokal_baseline`` beside this one."""
    spec = importlib.util.spec_from_file_location(
        "isokal_baseline", Path(src) / "isokal" / "__init__.py",
        submodule_search_locations=[str(Path(src) / "isokal")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def kernel_calls(package, d, T):
    """``gain_schedule``, ``_joseph_schedule`` and a drained ``wls_prefixes`` of ``package``.

    On ``system(d)``, T steps, P0 = I.
    """
    model = system(d, package)
    obs = package.simulate(model, np.ones(d), T, 1)
    h_tilde, p0 = package.model.observed_evolution_sequence(model, T)[0], np.eye(d)
    return (lambda: package.estimator.gain_schedule(model, 1.0, T),
            lambda: package.estimator._joseph_schedule(model, p0, h_tilde),
            lambda: collections.deque(package.estimator.wls_prefixes(model, None, 1.0, obs),
                                      maxlen=0))


def measure_interleaved(baseline, dims, tiny):
    """Per-step ``gain_schedule`` and Joseph recursion, per-prefix ``wls_prefixes``, in turn.

    At each d the baseline's and this package's samples alternate (T = 50,
    or 4 with ``--tiny``); ``gate_form`` is the form this package's gate picks.
    """
    repeats, target_s = (3, 0.005) if tiny else (15, 0.05)
    T = 4 if tiny else 50
    out = {layer: {} for layer in INTERLEAVED_LAYERS}
    out["gate_form"] = {}
    for d in dims:
        base, this = kernel_calls(baseline, d, T), kernel_calls(isokal, d, T)
        for layer, calls, fns in zip(INTERLEAVED_LAYERS, (T, T, T + 1), zip(base, this)):
            us = [v / calls for v in interleaved_min_us(list(fns), repeats, target_s)]
            out[layer][str(d)] = {"baseline": round(us[0], 3), "this": round(us[1], 3),
                                  "ratio": round(us[1] / us[0], 3)}
        out["gate_form"][str(d)] = estimator.gain_schedule(system(d), 1.0, T).form
    return out


def analysis_sizes(tiny):
    """(d, m, K) of the analysis model and (d, m, T, L_max) of the LTV record."""
    return ((16, 2, 20), (4, 1, 40, 8)) if tiny else ((64, 8, 100), (8, 1, 800, 16))


def analysis_calls(package, tiny):
    """The certificate and growth trace of the analysis model, and the LTV record's certificate.

    ``check_observability`` (L_max = d) then ``lambda_min_asymptotics`` (K,
    given that report), as ``analyze`` runs them; and ``check_observability``
    of the record, every anchor, at its L_max.
    """
    (d, m, K), (ltv_d, ltv_m, T, L_max) = analysis_sizes(tiny)
    model = rotation_system(d, m, package)
    record = package.SystemModel(*ltv_record(ltv_d, ltv_m, T))
    obs = package.observability

    def growth():
        obs.lambda_min_asymptotics(model, K, report=obs.check_observability(model, d))

    return growth, lambda: obs.check_observability(record, L_max)


def measure_interleaved_analysis(baseline, tiny):
    """``analysis_calls`` of the baseline and of this package, sampled in turn, in us per call."""
    repeats, target_s = (3, 0.005) if tiny else (15, 0.05)
    (d, m, K), (ltv_d, ltv_m, T, L_max) = analysis_sizes(tiny)
    layers = {}
    for layer, fns in zip(INTERLEAVED_ANALYSIS_LAYERS,
                          zip(analysis_calls(baseline, tiny), analysis_calls(isokal, tiny))):
        us = interleaved_min_us(list(fns), repeats, target_s)
        layers[layer] = {"baseline": round(us[0], 3), "this": round(us[1], 3),
                         "ratio": round(us[1] / us[0], 3)}
    return {"d": d, "m": m, "L_max": d, "K": K,
            "ltv": {"d": ltv_d, "m": ltv_m, "T": T, "L_max": L_max}, "layers": layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="smoke run: d = 2, 8, short repeats")
    parser.add_argument("--out", default="BENCH.json", help="output JSON path")
    parser.add_argument("--baseline", default=None, metavar="SRC",
                        help="another checkout's src/: its start-up and kernels are sampled "
                             "in turn with this one's")
    args = parser.parse_args(argv)
    sources = {"this": SRC}
    baseline = None
    if args.baseline is not None:
        sources["baseline"] = Path(args.baseline).resolve()
        baseline = load_baseline(sources["baseline"])

    dims = (2, 8) if args.tiny else (2, 8, 32, 128)
    by_dim = {d: measure(d, args.tiny) for d in dims}
    ltv = measure_ltv(args.tiny)
    ensemble = measure_ensemble(args.tiny)
    analysis = measure_analyze(args.tiny)
    schedules = measure_schedules(args.tiny)
    startup = measure_startup(sources, 3 if args.tiny else SAMPLES)
    interleaved = None if baseline is None else measure_interleaved(baseline, dims, args.tiny)
    if interleaved is not None:
        interleaved["analysis"] = measure_interleaved_analysis(baseline, args.tiny)
    doc = {
        "machine": machine(),
        "tiny": args.tiny,
        "unit": "us",
        "statistic": "minimum of perf_counter samples",
        "layers": {layer: {str(d): round(by_dim[d][layer], 3) for d in dims}
                   for layer in LAYERS},
        "ltv": {**ltv, "layers": {layer: round(ltv["layers"][layer], 3) for layer in LTV_LAYERS},
                "sweep": {layer: {T: round(us, 3) for T, us in ltv["sweep"][layer].items()}
                          for layer in SWEEP_LAYERS}},
        "ensemble": {**ensemble, "layers": {layer: round(ensemble["layers"][layer], 3)
                                            for layer in ENSEMBLE_LAYERS}},
        "analyze": {**analysis, "layers": {layer: round(analysis["layers"][layer], 3)
                                           for layer in ANALYZE_LAYERS}},
        "schedule": {name: {**case, "per_step": {form: round(us, 3)
                                                 for form, us in case["per_step"].items()},
                            "ratio": round(case["ratio"], 3)}
                     for name, case in schedules.items()},
        "startup": startup,
    }
    if interleaved is not None:
        doc["interleaved"] = interleaved
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for layer in LAYERS:
        print(f"{layer:24s}" + "".join(f"  d={d}: {by_dim[d][layer]:10.1f}" for d in dims))
    for layer in LTV_LAYERS:
        print(f"ltv {layer:36s}  T={ltv['T']}: {ltv['layers'][layer]:10.1f}")
    gc_calls = ltv["gc_per_estimate_call"]
    print(f"ltv gc per estimate call ({gc_calls['calls']} calls): "
          f"{gc_calls['seconds'] * 1e3:.3f} ms, collections by generation "
          + " ".join(f"{n:.2f}" for n in gc_calls["collections"].values()))
    for layer in SWEEP_LAYERS:
        print(f"ltv sweep {layer:30s}" + "".join(f"  T={T}: {us:8.2f}"
                                                  for T, us in ltv["sweep"][layer].items()))
    for layer in ENSEMBLE_LAYERS:
        print(f"ensemble {layer:17s} {ensemble['trials']} trials, T={ensemble['T']}: "
              f"{ensemble['layers'][layer]:10.1f}")
    for layer in ANALYZE_LAYERS:
        print(f"analyze {layer:36s} d={analysis['d']}, K={analysis['K']}: "
              f"{analysis['layers'][layer]:10.1f}")
    for name, case in schedules.items():
        print(f"schedule {name:8s} d={case['d']}, T={case['T']}, gate: {case['gate_form']:11s}"
              + "".join(f"  {form}: {us:8.2f}" for form, us in case["per_step"].items())
              + f"  ratio: {case['ratio']:.2f}")
    for side, layer in startup.items():
        print(f"startup {side:8s} import isokal.cli: {layer['import_s'] * 1e3:7.1f} ms, "
              f"peak RSS {layer['peak_rss_mb']:5.1f} MB")
        for kind, loaded in layer["scipy_linalg_loaded"].items():
            print(f"startup {side:8s} {kind}: " + "  ".join(
                f"{cmd} {layer['command_s'][kind][cmd] * 1e3:6.1f} ms" for cmd in SESSION_COMMANDS)
                + "; scipy.linalg loaded after: "
                + (", ".join(step for step, on in loaded.items() if on) or "none"))
    if interleaved is not None:
        for layer in INTERLEAVED_LAYERS:
            print(f"interleaved {layer:24s}" + "".join(
                f"  d={d}: {v['baseline']:8.2f} -> {v['this']:8.2f}"
                for d, v in interleaved[layer].items()))
        for layer, v in interleaved["analysis"]["layers"].items():
            print(f"interleaved {layer:42s} {v['baseline']:10.1f} -> {v['this']:10.1f}"
                  f"  ratio {v['ratio']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
