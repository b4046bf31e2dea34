"""isokal benchmark: whole CLI sessions, timed in-process by one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

One process imports isokal from ``src/``, generates the workload's inputs
from ``--seed``, runs one warm-up session and then runs sessions back to
back through ``isokal.cli.main(argv)`` for ``--seconds`` (at least
MIN_SESSIONS of them), checking every session's outputs against references
that do not use isokal.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it times untraced sessions, then traced ones
with every public function of the package wrapped, then the step-cost
sweep, and prints the per-layer metrics.  The last line of standard output
is the result object; the line before it records the machine and the
sample counts.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on a 2-core machine two OpenBLAS threads oversubscribe
# the cores and slow d = 128 steps fourfold.  Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# The trial thread pool stays on its default (sequential) path.
os.environ.pop("ISOKAL_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Enough sessions for a tail percentile with ten samples beyond it.
MIN_SESSIONS = 11
#: Set-up is measured in this process and in SETUP_PROBES fresh processes;
#: setup_s is the median.
SETUP_PROBES = 2
#: Shares of --seconds given to the untraced and the traced sessions of a
#: traced run; the step sweep takes the rest.
TRACE_SPLIT = (0.35, 0.45)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def load_package():
    """Import isokal from the checkout's src/ (never an installed copy)."""
    if not (SRC / "isokal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no isokal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import isokal.cli

    if Path(isokal.__file__).resolve().parent != SRC / "isokal":
        raise SystemExit(f"perfbench: imported isokal from {isokal.__file__}, not {SRC}")
    return isokal.cli


def run_session(workload, cli_main, tracer=None):
    """Run one session; return (seconds, problems).  Problems empty = success."""
    workload.clear_outputs()
    if tracer is not None:
        tracer.reset()
    problems = []
    t0 = time.perf_counter()
    try:
        # The CLI reports errors on stderr; keep stdout for the result.
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in workload.argvs():
                code = cli_main(argv)
                if code != 0:
                    problems.append(f"`isokal {argv[0]}` exited {code}")
                    break
    except Exception:  # a failed session is counted, never fatal
        problems.append("exception: " + traceback.format_exc(limit=3).strip())
    elapsed = time.perf_counter() - t0
    if not problems:
        try:
            problems = workload.check()
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3).strip()]
    return elapsed, problems


def run_for(seconds, workload, cli_main, tracer=None, on_session=None, min_sessions=MIN_SESSIONS):
    """Sessions back to back until ``seconds`` pass and ``min_sessions`` ran."""
    times, failed = [], 0
    start = time.perf_counter()
    while len(times) < min_sessions or time.perf_counter() - start < seconds:
        elapsed, problems = run_session(workload, cli_main, tracer)
        times.append(elapsed)
        if problems:
            failed += 1
            if failed == 1:
                print(f"perfbench: {workload.name} session failed: " + "; ".join(problems),
                      file=sys.stderr)
        if on_session is not None:
            on_session()
    return times, failed


def tail(times):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probe_times(args, probes):
    """Set-up seconds measured by ``probes`` fresh processes, one after another."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment(numpy, scipy):
    """Machine and library versions recorded with every result."""
    import glob
    import ctypes
    import platform

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    threads = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(lib, sym):
                    getattr(lib, sym).restype = ctypes.c_int
                    threads[mod.__name__] = getattr(lib, sym)()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "optimize": sys.flags.optimize,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    cli = load_package()
    import numpy
    import scipy
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run_session(workload, cli.main)                      # warm-up
        setup_s = time.perf_counter() - _STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        detail = {"workload": args.workload, "seed": args.seed,
                  "env": environment(numpy, scipy)}
        if args.trace:
            result = traced_run(args, workload, cli.main, tracing, detail)
        else:
            result = untraced_run(args, workload, cli.main, setup_s, detail, SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def untraced_run(args, workload, cli_main, setup_s, detail, probes):
    """End-to-end metrics; set-up is also timed in ``probes`` fresh processes."""
    times, failed = run_for(args.seconds, workload, cli_main)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + setup_probe_times(args, probes)
    tail_s, pct = tail(times)
    n = len(times)
    detail.update(sessions=n, session_tail_percentile=pct, setup_samples=setups,
                  obs_per_session=workload.obs_per_session)
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {
            "obs_per_s": metric(n * workload.obs_per_session / sum(times), "1/s"),
            "session_s_p50": metric(statistics.median(times), "s"),
            "session_s_tail": metric(tail_s, "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "success_rate": metric((n - failed) / n, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def traced_run(args, workload, cli_main, tracing, detail):
    """Per-layer metrics from traced sessions, plus the step-cost sweep."""
    untraced, failed_plain = run_for(TRACE_SPLIT[0] * args.seconds, workload, cli_main,
                                     min_sessions=3)
    tracer = tracing.Tracer()
    per_session, counts = [], []

    def record():
        per_session.append(tracer.session_metrics(workload))
        counts.append(dict(tracer.calls))

    tracer.install()
    try:
        traced, failed_traced = run_for(TRACE_SPLIT[1] * args.seconds, workload, cli_main,
                                        tracer=tracer, on_session=record, min_sessions=3)
    finally:
        tracer.uninstall()
    values, varying = tracing.summarize(per_session, counts)
    mismatches = tracing.coverage_mismatches(counts[0], workload)
    for name, want, got in mismatches:
        print(f"perfbench: coverage: {name} expected {want}, recorded {got}", file=sys.stderr)
    values["trace.coverage_mismatches"] = len(mismatches) + varying
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values.update(tracing.step_sweep(args.seed))

    attempted = len(untraced) + len(traced)
    failed = failed_plain + failed_traced
    detail.update(untraced_sessions=len(untraced), traced_sessions=len(traced),
                  counts=counts[0], coverage=mismatches)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(values[name], unit)
                    for name, (unit, _better, _moves) in tracing.LAYER_METRICS.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
