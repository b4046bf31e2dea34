"""Time the filter's update kernel and the layers built on it.

    python3 bench/kernel.py [--tiny] [--out BENCH.json]

Times ``estimator._update``, ``estimator.step``, ``estimator.gain_schedule``
(per step) and ``stability.analyze_stability`` at d = 2, 8, 32 and 128 on
seeded random LTI systems and writes the perf_counter medians, in
microseconds per call, as JSON together with the machine: CPU, numpy, scipy
and OpenBLAS versions and the BLAS thread count, which is pinned to 1 before
numpy loads.  isokal is imported from ``src/`` next to this directory.
``--tiny`` is a smoke run (d = 2 and 8, three short repeats) of well under
two seconds.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from isokal import estimator, stability  # noqa: E402
from isokal.model import SystemModel  # noqa: E402

LAYERS = ("_update", "step", "gain_schedule_per_step", "analyze_stability")


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
    return {
        "_update": median_us(lambda: estimator._update(P, h, R), repeats, target_s),
        "step": median_us(lambda: estimator.step(state, y, R, model), repeats, target_s),
        "gain_schedule_per_step": median_us(
            lambda: estimator.gain_schedule(model, 1.0, T), repeats, target_s) / T,
        "analyze_stability": median_us(
            lambda: stability.analyze_stability(model, 1.0, k_max), repeats, target_s),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="smoke run: d = 2, 8, short repeats")
    parser.add_argument("--out", default="BENCH.json", help="output JSON path")
    args = parser.parse_args(argv)

    dims = (2, 8) if args.tiny else (2, 8, 32, 128)
    by_dim = {d: measure(d, args.tiny) for d in dims}
    doc = {
        "machine": machine(),
        "tiny": args.tiny,
        "unit": "us",
        "statistic": "median of perf_counter samples",
        "layers": {layer: {str(d): round(by_dim[d][layer], 3) for d in dims}
                   for layer in LAYERS},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for layer in LAYERS:
        print(f"{layer:24s}" + "".join(f"  d={d}: {by_dim[d][layer]:10.1f}" for d in dims))
    return 0


if __name__ == "__main__":
    sys.exit(main())
