"""Time the filter's update kernel and the layers built on it.

    python3 bench/kernel.py [--tiny] [--out BENCH.json]

Times ``estimator._update`` (on a positive definite P, the Cholesky path,
and on a rank-deficient P, the eigen-split fallback), ``estimator.step``,
``estimator.gain_schedule`` (per step), ``estimator.wls_prefixes`` (per
prefix), ``model.advance_observed_evolution`` (one step),
``stability.analyze_stability``, ``observability.check_observability``
(L_max = d) and ``observability.lambda_min_asymptotics`` (K = 2d, given
that report) at d = 2, 8, 32 and 128 on seeded random LTI systems.  It
also times the layers of one long LTV record (d = 8, m = 1, T = 800,
per-step A, H and R): ``cli._read_json`` of its config, written once as
JSON (the decode ``--config`` pays), ``SystemModel`` validation,
``check_observability`` (L_max = 16, every anchor), one
``advance_observed_evolution`` step in the middle of the record (its
transition carried), the ``model.observed_evolution_sequence`` walk of the
record, ``harness.simulate`` and ``estimator.run`` per step,
``harness.write_estimates_csv`` of the run's states as the CLI's
``estimate --truth`` writes them (stacking included), and one
``isokal estimate --batch-check`` of the record end to end through
``cli.main`` (config and observations read from a temporary directory); one
``harness.monte_carlo`` ensemble and one ``harness.reproduce_example`` of
example1 (d = 4, T = 40, 100 trials, the CSV file set written to a
temporary directory); and the analysis of ``isokal analyze --horizon 64
--k-max 100`` on a d = 64, m = 8 LTI model of rotation blocks whose radii
straddle 1: ``check_observability`` (L_max = 64),
``lambda_min_asymptotics`` (K = 100) and ``analyze_stability``
(k_max = 100, P0 = I), each given that report, the three in a row, and
the ``observed_evolution_sequence`` walk of K steps, per step.  The two
forms of the filter pass, ``estimator._information_schedule`` and
``estimator._joseph_schedule``, are timed per step on the same observers
of that LTV record and of that analysis model (T = K), their samples taken
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
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg.lapack import dpotrf  # noqa: E402

from isokal import cli, estimator, harness, observability, stability  # noqa: E402
from isokal.model import (SystemModel, advance_observed_evolution,  # noqa: E402
                          observed_evolution_sequence)

LAYERS = ("_update", "_update_fallback", "step", "gain_schedule_per_step",
          "wls_prefixes_per_prefix", "advance_observed_evolution", "analyze_stability",
          "check_observability", "lambda_min_asymptotics")
LTV_LAYERS = ("config_decode", "model_validation", "check_observability",
              "advance_observed_evolution", "observed_evolution_sequence_per_step",
              "simulate_per_step", "run_per_step", "write_estimates_csv",
              "estimate_batch_check")
SWEEP_LAYERS = ("observed_evolution_sequence_per_step", "simulate_per_step", "run_per_step")
ENSEMBLE_LAYERS = ("monte_carlo", "reproduce_example")
ANALYZE_LAYERS = ("check_observability", "lambda_min_asymptotics", "analyze_stability",
                  "analyze", "observed_evolution_sequence_per_step")
SCHEDULE_FORMS = ("information", "joseph")


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


def system(d):
    """Seeded LTI system: orthogonal dynamics (H~_k stays O(1)), m = max(1, d/4)."""
    rng = np.random.default_rng((2026, d))
    a = np.linalg.qr(rng.standard_normal((d, d)))[0]
    h = rng.standard_normal((max(1, d // 4), d))
    return SystemModel(a, h, 0.1)


def rotation_system(d, m):
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
    return SystemModel(q @ blocks @ q.T, h @ q.T, 1e-2)


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

    config = {
        "d": d, "m": m,
        "dynamics": {"kind": "ltv", "A_seq": a_seq.tolist()},
        "observation": {"kind": "ltv", "H_seq": h_seq.tolist()},
        "noise": {"kind": "per_step", "R_seq": r_seq.tolist()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "estimates.csv"
        write_us = min_us(lambda: write_estimates(path), repeats, target_s)
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        decode_us = min_us(lambda: cli._read_json(config_path, "--config"),
                           repeats, target_s)
        obs_path = Path(tmp) / "observations.csv"
        harness.write_observations_csv(obs_path, obs)
        estimate = ["estimate", "--config", str(config_path), "--obs", str(obs_path),
                    "--p0", "1.0", "--out", str(Path(tmp) / "est.csv"), "--batch-check",
                    "--quiet"]
        if cli.main(estimate) != 0:
            raise RuntimeError("estimate --batch-check failed on the LTV record")
        batch_check_us = min_us(lambda: cli.main(estimate), repeats, target_s)
    layers = {
        "config_decode": decode_us,
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
        per_step = [us / steps for us in interleaved_min_us(
            [lambda: estimator._information_schedule(model, p0, h_tilde),
             lambda: estimator._joseph_schedule(model, p0, h_tilde)], repeats, target_s)]
        out[name] = {"d": model.d, "m": model.m, "T": steps,
                     "gate_form": estimator.gain_schedule(model, p0, steps).form,
                     "per_step": dict(zip(SCHEDULE_FORMS, per_step)),
                     "ratio": per_step[1] / per_step[0]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="smoke run: d = 2, 8, short repeats")
    parser.add_argument("--out", default="BENCH.json", help="output JSON path")
    args = parser.parse_args(argv)

    dims = (2, 8) if args.tiny else (2, 8, 32, 128)
    by_dim = {d: measure(d, args.tiny) for d in dims}
    ltv = measure_ltv(args.tiny)
    ensemble = measure_ensemble(args.tiny)
    analysis = measure_analyze(args.tiny)
    schedules = measure_schedules(args.tiny)
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
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for layer in LAYERS:
        print(f"{layer:24s}" + "".join(f"  d={d}: {by_dim[d][layer]:10.1f}" for d in dims))
    for layer in LTV_LAYERS:
        print(f"ltv {layer:36s}  T={ltv['T']}: {ltv['layers'][layer]:10.1f}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
