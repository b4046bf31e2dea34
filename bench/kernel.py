"""Time the filter's kernels and the layers built on them, each table round-robin.

    python3 bench/kernel.py [--tiny] [--out BENCH.json] [--baseline SRC]

Each ``*_table`` function below builds one table of named calls on an
isokal package, each call with the divisor that turns its seconds into
the unit its name states (``_per_step``, ``_per_prefix``; whole calls
otherwise).  ``sample`` times every call of a table in rounds: each round
takes one sample of every layer on every side, each sample a loop of
about 50 ms sized by one warm-up call, so a slow phase of the shared
machine hits every layer and both sides alike.  A full run takes 16
rounds; ``--tiny`` is a smoke run of smaller sizes, 4 rounds of 5 ms
samples.

Each timed JSON leaf is ``{"this": us}``: the minimum over the rounds, in
microseconds per call over its divisor.  ``--baseline SRC`` imports the
isokal package under SRC (another checkout's ``src/``) beside this one and
builds every table on it too; its calls join the same rounds, the two
sides of a layer back to back, this one first in even rounds and the
baseline first in odd ones.  Each leaf then also carries ``"baseline"``
(its minimum), ``"ratio"`` (this over baseline) and ``"wins"`` (the
rounds, out of the document's ``rounds``, in which this side's sample was
the lower).  A layer whose call the baseline cannot make (it lacks a
private function that this checkout renamed or added) keeps ``this``
alone.

Read a comparison against A/A runs, ``--baseline`` set to this checkout's
own ``src/``: two identical packages in one process still drift apart,
by the machine's phases and the alignment of their operands, and a single
run can show a ratio of 0.77 or 1.44 with wins of 0 or 15 of 16 (the
floor of each table is in CHANGES.md, from ``BENCH_29.json``).  Those
extremes did not repeat between runs, so a layer has changed only when
its ratio lies outside that floor with wins at or near 0 or ``rounds``
in each of several runs.

The ``layers`` and ``analyze`` tables also record, as ``A_offset_64``,
where each side's dynamics matrix starts within a 64-byte line
(``A.ctypes.data % 64``): an LTI observer advance at d = 128 took 17.6 us
on an aligned ``A`` and 26.1 us on one that was not, so a ratio between
two sides whose offsets differ may be the allocator's.

Two layers keep their own samplers.  ``ltv.gc_per_estimate_call`` counts
the cyclic garbage collections per ``estimate`` call over a fixed run of
calls, which the minimum hides because only some calls pay for one.
``startup`` runs the CLI's sessions in fresh interpreters, the baseline's
in turn with this checkout's.  The JSON also records the machine: CPU,
numpy, scipy and OpenBLAS versions and the BLAS thread count, which is
pinned to 1 before numpy loads.  isokal is imported from ``src/`` next to
this directory.  On a shared 2-core Xeon a full run took 65 s, 122-124 s
with ``--baseline``, and ``--tiny --baseline`` about 9 s.
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
from isokal import estimator, harness  # noqa: E402

#: Sizes and sampling of a full run (False) and of a ``--tiny`` run (True):
#: the kernel layers' dimensions, their filter steps T and stability
#: horizon; the LTV record (d, m, T, L_max) and the T of its sweep; the
#: analysis model (d, m, K); the rounds (even, so that each side goes first
#: in half of them) and seconds per sample; the ``estimate`` calls of the GC
#: count and the interpreters per start-up session and side.
RUNS = {
    False: {"dims": (2, 8, 32, 128), "T": 50, "k_max": 40, "ltv": (8, 1, 800, 16),
            "sweep": (100, 250, 500, 1000, 2000), "analyze": (64, 8, 100),
            "rounds": 16, "target_s": 0.05, "gc_calls": 30, "startup": 10},
    True: {"dims": (2, 8), "T": 4, "k_max": 5, "ltv": (4, 1, 40, 8), "sweep": (20, 40),
           "analyze": (16, 2, 20), "rounds": 4, "target_s": 0.005, "gc_calls": 5,
           "startup": 3},
}
ENSEMBLE_TRIALS = 100
SESSION_COMMANDS = ("simulate", "estimate", "analyze")

#: One fresh interpreter of the start-up layer: it times ``import isokal.cli``,
#: reads the peak resident memory, then runs one session's commands through
#: ``cli.main``, notes after each whether scipy.linalg is loaded, and reads
#: the peak again at the end.  The peak is VmHWM, this process's own:
#: ``ru_maxrss`` of a child started by fork and exec also counts the
#: resident memory of the bench process.
STARTUP_PROBE = textwrap.dedent("""
    import json, sys, time
    t0 = time.perf_counter()
    import isokal.cli
    out = {"import_s": time.perf_counter() - t0, "scipy_linalg": {}, "seconds": {}}

    def peak_mb():
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0

    out["peak_rss_mb"] = peak_mb()
    out["scipy_linalg"]["import"] = "scipy.linalg" in sys.modules
    for argv in json.loads(sys.argv[1]):
        t0 = time.perf_counter()
        if isokal.cli.main(argv) != 0:
            raise SystemExit(f"isokal {argv[0]} failed")
        out["seconds"][argv[0]] = time.perf_counter() - t0
        out["scipy_linalg"][argv[0]] = "scipy.linalg" in sys.modules
    out["session_peak_rss_mb"] = peak_mb()
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
    of each command, the minimum peak resident memory at the session's end,
    and whether scipy.linalg was loaded after the import and after each
    command.
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
                     "session_peak_rss_mb": {kind: min(run["session_peak_rss_mb"]
                                                       for run in docs)
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


def sample(tables, rounds, target_s):
    """Time every call of ``tables`` (side -> {layer: (call, divisor)}) round-robin.

    One warm-up call sizes each call's loop to about ``target_s`` seconds.
    Each of ``rounds`` rounds then takes one sample of every layer of the
    ``"this"`` table, on every side that runs it, the sides in turn and
    their order reversed every other round.  Returns layer -> leaf (see the
    module docstring).  A baseline call that raises AttributeError at its
    warm-up leaves its layer to ``this`` alone.
    """
    loops = {}
    for side, table in tables.items():
        for layer, (call, _) in table.items():
            t0 = time.perf_counter()
            try:
                call()
            except AttributeError as exc:
                if side == "this":
                    raise
                print(f"{side} cannot run {layer}: {exc}", file=sys.stderr)
                continue
            loops[layer, side] = max(1, int(target_s / max(time.perf_counter() - t0, 1e-9)))
    us = {key: [] for key in loops}
    for turn in range(rounds):
        for layer in tables["this"]:
            sides = [side for side in tables if (layer, side) in loops]
            for side in sides[::-1] if turn % 2 else sides:
                (call, divisor), number = tables[side][layer], loops[layer, side]
                t0 = time.perf_counter()
                for _ in range(number):
                    call()
                us[layer, side].append((time.perf_counter() - t0) / number / divisor * 1e6)
    leaves = {}
    for layer in tables["this"]:
        this = us[layer, "this"]
        leaves[layer] = {"this": round(min(this), 3)}
        if (layer, "baseline") in us:
            base = us[layer, "baseline"]
            leaves[layer].update(baseline=round(min(base), 3),
                                 ratio=round(min(this) / min(base), 3),
                                 wins=sum(t < b for t, b in zip(this, base)))
    return leaves


def a_offset(model):
    """Where the model's dynamics matrix starts within a 64-byte line, in bytes."""
    return model.A_at(1).ctypes.data % 64


def kernel_table(package, model, T, k_max):
    """The kernel layers of ``package`` on ``model`` (``system(d)``), T filter steps, P0 = I.

    ``_update`` on a positive definite P (the Cholesky path) and, as
    ``_update_fallback``, on a rank-deficient P (the eigen-split); ``step``;
    the filter pass as ``gain_schedule`` runs it and as the Joseph recursion
    ``_joseph_schedule`` alone; ``wls_prefixes``; one
    ``advance_observed_evolution`` step; ``analyze_stability`` (k_max);
    ``check_observability`` (L_max = d), ``lambda_min_asymptotics`` (K =
    2d, given that report) and ``lambda_min``, the smallest eigenvalue of
    each of the d anchor-0 Gramians that ``check_observability`` reads.
    """
    est, obsv = package.estimator, package.observability
    d = model.d
    sched = est.gain_schedule(model, 1.0, T)
    P, h, R = sched.P[T // 2], sched.h_tilde[T // 2], model.R_at(T // 2)
    state = est.run(model, None, 1.0, np.zeros((T // 2, model.m)))[-1]
    y = np.ones(model.m)
    obs = package.simulate(model, np.ones(d), T, 1)
    # P with its trailing half of rows and columns zeroed: PSD, rank d/2,
    # and Cholesky meets a zero pivot, so the update takes the eigen-split
    singular = P.copy()
    singular[d // 2:] = 0.0
    singular[:, d // 2:] = 0.0
    assert dpotrf(singular, lower=1)[1] > 0
    report = obsv.check_observability(model, d)
    gramians = np.stack([info[0] for info in obsv.information_prefixes(model, d)])
    eye = np.eye(d)
    h_tilde = package.model.observed_evolution_sequence(model, T)[0]
    return {
        "_update": (lambda: est._update(P, h, R), 1),
        "_update_fallback": (lambda: est._update(singular, h, R), 1),
        "step": (lambda: est.step(state, y, R, model), 1),
        "gain_schedule_per_step": (lambda: est.gain_schedule(model, 1.0, T), T),
        "joseph_schedule_per_step": (lambda: est._joseph_schedule(model, eye, h_tilde), T),
        # T observations give T + 1 prefixes, the prior alone first
        "wls_prefixes_per_prefix": (
            lambda: collections.deque(est.wls_prefixes(model, None, 1.0, obs), maxlen=0), T + 1),
        "advance_observed_evolution": (
            lambda: package.model.advance_observed_evolution(model, 1, h, eye), 1),
        "analyze_stability": (lambda: package.stability.analyze_stability(model, 1.0, k_max), 1),
        "check_observability": (lambda: obsv.check_observability(model, d), 1),
        "lambda_min_asymptotics": (
            lambda: obsv.lambda_min_asymptotics(model, 2 * d, report=report), 1),
        "lambda_min": (lambda: obsv._lambda_min(gramians), 1),
    }


def sweep_table(package, record, T):
    """The ``observed_evolution_sequence`` walk, ``simulate`` and ``run`` on ``record[:T]``.

    Each per step, on the first T steps of the (A_seq, H_seq, R_seq) record.
    """
    a_seq, h_seq, r_seq = record
    model = package.SystemModel(a_seq[:T - 1], h_seq[:T], r_seq[:T])
    x0 = np.ones(model.d)
    obs = package.simulate(model, x0, T, 1)
    return {
        "observed_evolution_sequence_per_step": (
            lambda: package.model.observed_evolution_sequence(model, T), T),
        "simulate_per_step": (lambda: package.simulate(model, x0, T, 1), T),
        "run_per_step": (lambda: package.estimator.run(model, None, 1.0, obs), T),
    }


def ltv_table(package, d, m, T, L_max, tmp):
    """The layers of one ``ltv_record(d, m, T)``, its files in a new directory under ``tmp``.

    The CLI's JSON decode of its config (``config_decode``), ``_load_config``
    of that file (decode and validation, as every ``--config`` command pays
    them), ``SystemModel`` validation, ``check_observability`` (L_max, every
    anchor), one ``advance_observed_evolution`` step in the middle of the
    record (its transition carried), the ``sweep_table`` layers,
    ``write_estimates_csv`` of the run's states as ``estimate --truth``
    writes them (stacking included), and one ``isokal estimate
    --batch-check`` of the record through ``cli.main``.
    """
    cli = importlib.import_module(f"{package.__name__}.cli")
    record = ltv_record(d, m, T)
    model = package.SystemModel(*record)
    x0 = np.ones(d)
    obs = package.simulate(model, x0, T, 1)
    states = package.estimator.run(model, None, 1.0, obs)
    mid = states[T // 2 - 1]
    out = Path(tempfile.mkdtemp(dir=tmp))
    config, obs_path = out / "config.json", out / "observations.csv"
    config.write_text(json.dumps(ltv_config(*record)), encoding="utf-8")
    package.harness.write_observations_csv(obs_path, obs)
    estimate = ["estimate", "--config", str(config), "--obs", str(obs_path), "--p0", "1.0",
                "--out", str(out / "est.csv"), "--batch-check", "--quiet"]

    def estimate_batch_check():
        if cli.main(estimate) != 0:
            raise RuntimeError("estimate --batch-check failed on the LTV record")

    def write_estimates():
        x_hat = np.array([s.x_hat for s in states])
        package.harness.write_estimates_csv(out / "estimates.csv", x_hat,
                                            [np.trace(s.P) for s in states], truth=x0)

    return {
        "config_decode": (lambda: cli._read_json(config, "--config"), 1),
        "load_config": (lambda: cli._load_config(config), 1),
        "model_validation": (lambda: package.SystemModel(*record), 1),
        "check_observability": (
            lambda: package.observability.check_observability(model, L_max), 1),
        "advance_observed_evolution": (lambda: package.model.advance_observed_evolution(
            model, T // 2, mid.H_tilde_next, mid.phi), 1),
        **sweep_table(package, record, T),
        "write_estimates_csv": (write_estimates, 1),
        "estimate_batch_check": (estimate_batch_check, 1),
    }


def ensemble_table(package, trials, tmp):
    """One ``monte_carlo`` and one ``reproduce_example`` of example1, its CSVs under ``tmp``."""
    harness = package.harness
    model, x0, x_hat0, p0, _ = harness.example_system("example1")
    out = tempfile.mkdtemp(dir=tmp)
    return {
        "monte_carlo": (lambda: harness.monte_carlo(model, x0, x_hat0, p0, harness.EXAMPLE_STEPS,
                                                    trials, 42), 1),
        "reproduce_example": (lambda: harness.reproduce_example("example1", trials, 42, out), 1),
    }


def analysis_table(package, model, K):
    """The analysis of ``isokal analyze --horizon d --k-max K`` on ``model``.

    The model is ``rotation_system(d, m)``.
    ``check_observability`` (L_max = d); ``lambda_min_asymptotics`` (K) and
    ``analyze_stability`` (k_max = K, P0 = I), each given that report; the
    certificate then the growth trace, and those two then
    ``analyze_stability``, as ``analyze`` runs them; the
    ``observed_evolution_sequence`` walk of K steps and ``wls_prefixes`` of
    K observations.
    """
    obsv, stability = package.observability, package.stability
    d = model.d
    report = obsv.check_observability(model, d)
    obs = package.simulate(model, np.ones(d), K, 1)

    def certificate_and_growth():
        fresh = obsv.check_observability(model, d)
        obsv.lambda_min_asymptotics(model, K, report=fresh)
        return fresh

    return {
        "check_observability": (lambda: obsv.check_observability(model, d), 1),
        "lambda_min_asymptotics": (lambda: obsv.lambda_min_asymptotics(model, K, report=report), 1),
        "analyze_stability": (
            lambda: stability.analyze_stability(model, 1.0, K, report=report), 1),
        "check_observability_lambda_min_asymptotics": (certificate_and_growth, 1),
        "analyze": (lambda: stability.analyze_stability(model, 1.0, K,
                                                        report=certificate_and_growth()), 1),
        "observed_evolution_sequence_per_step": (
            lambda: package.model.observed_evolution_sequence(model, K), K),
        "wls_prefixes_per_prefix": (lambda: collections.deque(
            package.estimator.wls_prefixes(model, None, 1.0, obs), maxlen=0), K + 1),
    }


def schedule_table(package, model, T):
    """The two forms of the filter pass on the first T observers of ``model``, P0 = I.

    ``_information_schedule`` reads the observers whitened once, untimed,
    as the pass whitens them before its gate for either form.
    """
    est = package.estimator
    h_tilde = package.model.observed_evolution_sequence(model, T)[0]
    p0, whitened = np.eye(model.d), model.whiten(h_tilde)
    return {"information": (lambda: est._information_schedule(model, p0, whitened), T),
            "joseph": (lambda: est._joseph_schedule(model, p0, h_tilde), T)}


def by_layer(by_size):
    """size -> layer -> leaf, turned into layer -> size -> leaf."""
    first = next(iter(by_size.values()))
    return {layer: {size: leaves[layer] for size, leaves in by_size.items()} for layer in first}


def timed_leaves(node, path=()):
    """(path, leaf) of every timed leaf under ``node``."""
    if isinstance(node, dict) and isinstance(node.get("this"), float):
        yield path, node
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from timed_leaves(child, (*path, key))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true", help="smoke run: small sizes, 4 rounds")
    parser.add_argument("--out", default="BENCH.json", help="output JSON path")
    parser.add_argument("--baseline", default=None, metavar="SRC",
                        help="another checkout's src/: every layer of its package is sampled "
                             "in turn with this one's")
    args = parser.parse_args(argv)
    run = RUNS[args.tiny]
    sources, packages = {"this": SRC}, {"this": isokal}
    if args.baseline is not None:
        sources["baseline"] = Path(args.baseline).resolve()
        packages["baseline"] = load_baseline(sources["baseline"])

    def timed(build):
        """``sample`` of the table ``build(package)`` of every side."""
        return sample({side: build(package) for side, package in packages.items()},
                      run["rounds"], run["target_s"])

    def timed_on(model_of, build):
        """``sample`` of the table ``build(package, model_of(package))`` of every side.

        Returns the leaves and the ``a_offset`` of each side's model.
        """
        models = {side: model_of(package) for side, package in packages.items()}
        leaves = sample({side: build(package, models[side]) for side, package in packages.items()},
                        run["rounds"], run["target_s"])
        return leaves, {side: a_offset(model) for side, model in models.items()}

    T, k_max = run["T"], run["k_max"]
    ltv_d, ltv_m, ltv_T, L_max = run["ltv"]
    d, m, K = run["analyze"]
    with tempfile.TemporaryDirectory() as tmp:
        ltv_tables = {side: ltv_table(package, ltv_d, ltv_m, ltv_T, L_max, tmp)
                      for side, package in packages.items()}
        ltv_layers = sample(ltv_tables, run["rounds"], run["target_s"])
        gc_calls = gc_per_call(ltv_tables["this"]["estimate_batch_check"][0], run["gc_calls"])
        ensemble = timed(lambda package: ensemble_table(package, ENSEMBLE_TRIALS, tmp))
    record = ltv_record(ltv_d, ltv_m, max(run["sweep"]))
    schedule = {}
    for name, model_of, steps in (
            ("ltv", lambda package: package.SystemModel(*ltv_record(ltv_d, ltv_m, ltv_T)), ltv_T),
            ("analyze", lambda package: rotation_system(d, m, package), K)):
        model = model_of(isokal)
        per_step = timed(lambda package: schedule_table(package, model_of(package), steps))
        schedule[name] = {"d": model.d, "m": model.m, "T": steps,
                          "gate_form": estimator.gain_schedule(model, np.eye(model.d), steps).form,
                          "per_step": per_step,
                          "ratio": round(per_step["joseph"]["this"]
                                         / per_step["information"]["this"], 3)}
    layers, offsets = {}, {}
    for dim in run["dims"]:
        layers[str(dim)], offsets[str(dim)] = timed_on(
            lambda package: system(dim, package),
            lambda package, model: kernel_table(package, model, T, k_max))
    analysis, analysis_offsets = timed_on(
        lambda package: rotation_system(d, m, package),
        lambda package, model: analysis_table(package, model, K))
    doc = {
        "machine": machine(),
        "tiny": args.tiny,
        "unit": "us",
        "statistic": "minimum of perf_counter samples, every layer and side in turn each round",
        "rounds": run["rounds"],
        "layers": {**by_layer(layers), "A_offset_64": offsets},
        "gate_form": {str(dim): estimator.gain_schedule(system(dim), 1.0, T).form
                      for dim in run["dims"]},
        "ltv": {"d": ltv_d, "m": ltv_m, "T": ltv_T, "L_max": L_max, "layers": ltv_layers,
                "gc_per_estimate_call": gc_calls,
                "sweep": by_layer({str(steps): timed(
                    lambda package: sweep_table(package, record, steps))
                    for steps in run["sweep"]})},
        "ensemble": {"example": "example1", "T": harness.EXAMPLE_STEPS,
                     "trials": ENSEMBLE_TRIALS, "layers": ensemble},
        "analyze": {"d": d, "m": m, "L_max": d, "K": K, "layers": analysis,
                    "A_offset_64": analysis_offsets},
        "schedule": schedule,
        "startup": measure_startup(sources, run["startup"]),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for path, leaf in timed_leaves(doc):
        print(f"{' '.join(path):64s} {leaf['this']:12.3f}" + (
            f"  baseline {leaf['baseline']:12.3f}  ratio {leaf['ratio']:6.3f}"
            f"  wins {leaf['wins']:2d}/{doc['rounds']}" if "baseline" in leaf else ""))
    print("A_offset_64: " + "  ".join(f"layers {size} {sides}" for size, sides in offsets.items())
          + f"  analyze {analysis_offsets}")
    print(f"ltv gc per estimate call ({gc_calls['calls']} calls): "
          f"{gc_calls['seconds'] * 1e3:.3f} ms, collections by generation "
          + " ".join(f"{n:.2f}" for n in gc_calls["collections"].values()))
    for side, layer in doc["startup"].items():
        print(f"startup {side:8s} import isokal.cli: {layer['import_s'] * 1e3:7.1f} ms, "
              f"peak RSS {layer['peak_rss_mb']:5.1f} MB")
        for kind, loaded in layer["scipy_linalg_loaded"].items():
            print(f"startup {side:8s} {kind}: " + "  ".join(
                f"{cmd} {layer['command_s'][kind][cmd] * 1e3:6.1f} ms" for cmd in SESSION_COMMANDS)
                + f"; peak RSS {layer['session_peak_rss_mb'][kind]:5.1f} MB"
                + "; scipy.linalg loaded after: "
                + (", ".join(step for step, on in loaded.items() if on) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
