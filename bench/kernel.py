"""Time the filter's update kernel and the layers built on it.

    python3 bench/kernel.py [--tiny] [--out BENCH.json]

Times ``estimator._update`` (on a positive definite P, the Cholesky path,
and on a rank-deficient P, the eigen-split fallback), ``estimator.step``,
``estimator.gain_schedule`` (per step), ``estimator.wls_prefixes`` (per
prefix), ``stability.analyze_stability``,
``observability.check_observability`` (L_max = d) and
``observability.lambda_min_asymptotics`` (K = 2d, given that report) at
d = 2, 8, 32 and 128 on seeded random LTI systems.  It also times the
layers of one long LTV record (d = 8, m = 1, T = 800, per-step A, H and R):
``cli._read_json`` of its config, written once as JSON (the decode
``--config`` pays), ``SystemModel`` validation, ``check_observability``
(L_max = 16, every anchor), ``harness.simulate`` and ``estimator.run`` per
step, and ``harness.write_estimates_csv`` of the run's states as the
CLI's ``estimate --truth`` writes them (stacking included); and one
``harness.monte_carlo`` ensemble and one ``harness.reproduce_example`` of
example1 (d = 4, T = 40, 100 trials, the CSV file set written to a
temporary directory).
It writes the perf_counter medians, in microseconds per call, as JSON
together with the machine: CPU, numpy, scipy and OpenBLAS versions and the
BLAS thread count, which is pinned to 1 before numpy loads.  isokal is
imported from ``src/`` next to this directory.  ``--tiny`` is a smoke run
(d = 2 and 8, an LTV record of d = 4 and T = 40, three short repeats) of
well under two seconds.
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
import statistics  # noqa: E402
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
from isokal.model import SystemModel  # noqa: E402

LAYERS = ("_update", "_update_fallback", "step", "gain_schedule_per_step",
          "wls_prefixes_per_prefix", "analyze_stability", "check_observability",
          "lambda_min_asymptotics")
LTV_LAYERS = ("config_decode", "model_validation", "check_observability", "simulate_per_step",
              "run_per_step", "write_estimates_csv")
ENSEMBLE_LAYERS = ("monte_carlo", "reproduce_example")


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


def median_us(fn, repeats, target_s):
    """Median over ``repeats`` samples of the seconds per call, in microseconds.

    Each sample loops ``fn`` for about ``target_s`` seconds, sized by one
    warm-up call.
    """
    t0 = time.perf_counter()
    fn()
    number = max(1, int(target_s / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples) * 1e6


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
    return {
        "_update": median_us(lambda: estimator._update(P, h, R), repeats, target_s),
        "_update_fallback": median_us(lambda: estimator._update(singular, h, R),
                                      repeats, target_s),
        "step": median_us(lambda: estimator.step(state, y, R, model), repeats, target_s),
        "gain_schedule_per_step": median_us(
            lambda: estimator.gain_schedule(model, 1.0, T), repeats, target_s) / T,
        # T observations give T + 1 prefixes, the prior alone first
        "wls_prefixes_per_prefix": median_us(
            lambda: collections.deque(estimator.wls_prefixes(model, None, 1.0, obs), maxlen=0),
            repeats, target_s) / (T + 1),
        "analyze_stability": median_us(
            lambda: stability.analyze_stability(model, 1.0, k_max), repeats, target_s),
        "check_observability": median_us(
            lambda: observability.check_observability(model, d), repeats, target_s),
        "lambda_min_asymptotics": median_us(
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
        write_us = median_us(lambda: write_estimates(path), repeats, target_s)
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        decode_us = median_us(lambda: cli._read_json(config_path, "--config"),
                              repeats, target_s)
    layers = {
        "config_decode": decode_us,
        "model_validation": median_us(lambda: SystemModel(a_seq, h_seq, r_seq),
                                      repeats, target_s),
        "check_observability": median_us(
            lambda: observability.check_observability(model, horizon), repeats, target_s),
        "simulate_per_step": median_us(lambda: harness.simulate(model, x0, T, 1),
                                       repeats, target_s) / T,
        "run_per_step": median_us(lambda: estimator.run(model, None, 1.0, obs),
                                  repeats, target_s) / T,
        "write_estimates_csv": write_us,
    }
    return {"d": d, "m": m, "T": T, "L_max": horizon, "layers": layers}


def measure_ensemble(tiny):
    repeats, target_s = (3, 0.005) if tiny else (7, 0.05)
    model, x0, x_hat0, p0, _ = harness.example_system("example1")
    T, trials = harness.EXAMPLE_STEPS, 100
    with tempfile.TemporaryDirectory() as tmp:
        layers = {
            "monte_carlo": median_us(
                lambda: harness.monte_carlo(model, x0, x_hat0, p0, T, trials, 42),
                repeats, target_s),
            "reproduce_example": median_us(
                lambda: harness.reproduce_example("example1", trials, 42, tmp),
                repeats, target_s),
        }
    return {"example": "example1", "T": T, "trials": trials, "layers": layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="smoke run: d = 2, 8, short repeats")
    parser.add_argument("--out", default="BENCH.json", help="output JSON path")
    args = parser.parse_args(argv)

    dims = (2, 8) if args.tiny else (2, 8, 32, 128)
    by_dim = {d: measure(d, args.tiny) for d in dims}
    ltv = measure_ltv(args.tiny)
    ensemble = measure_ensemble(args.tiny)
    doc = {
        "machine": machine(),
        "tiny": args.tiny,
        "unit": "us",
        "statistic": "median of perf_counter samples",
        "layers": {layer: {str(d): round(by_dim[d][layer], 3) for d in dims}
                   for layer in LAYERS},
        "ltv": {**ltv, "layers": {layer: round(ltv["layers"][layer], 3) for layer in LTV_LAYERS}},
        "ensemble": {**ensemble, "layers": {layer: round(ensemble["layers"][layer], 3)
                                            for layer in ENSEMBLE_LAYERS}},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for layer in LAYERS:
        print(f"{layer:24s}" + "".join(f"  d={d}: {by_dim[d][layer]:10.1f}" for d in dims))
    for layer in LTV_LAYERS:
        print(f"ltv {layer:20s}  T={ltv['T']}: {ltv['layers'][layer]:10.1f}")
    for layer in ENSEMBLE_LAYERS:
        print(f"ensemble {layer:17s} {ensemble['trials']} trials, T={ensemble['T']}: "
              f"{ensemble['layers'][layer]:10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
