"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload, at tiny sizes and in this one process:

- an untraced and a traced run complete with every session correct, and
  print exactly the metric names and units BENCHMARK.json declares;
- the traced run's call counts match the workload's exact expectation;
- a session whose output is perturbed after the CLI wrote it, and a
  session with a CLI call that exits non-zero, are counted as failed.

Exits 0 when every check holds and 1 otherwise, naming each failure.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys
import time

import run  # pins the BLAS threads before numpy loads

SECONDS = 0.5


class Corrupted:
    """A workload whose outputs are perturbed between the CLI and the check."""

    def __init__(self, workload):
        self._workload = workload

    def __getattr__(self, attr):
        return getattr(self._workload, attr)

    def check(self):
        self._workload.corrupt()
        return self._workload.check()


class BadFlag(Corrupted):
    """A workload whose last CLI call carries an unknown flag (exit 1)."""

    def argvs(self):
        argvs = self._workload.argvs()
        argvs[-1] = argvs[-1] + ["--no-such-flag"]
        return argvs

    def check(self):
        return self._workload.check()


def expect(failures, cond, message):
    if not cond:
        failures.append(message)


def main():
    cli = run.load_package()
    import tracing
    from workloads import WORKLOADS

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    expect(failures, [w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    expect(failures, declared_layer == {k: v[:2] for k, v in tracing.LAYER_METRICS.items()},
           "BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    root = run.HERE / ".work" / f"selftest-{os.getpid()}"
    try:
        for name, cls in WORKLOADS.items():
            t0 = time.perf_counter()
            args = argparse.Namespace(workload=name, seed=0, seconds=SECONDS, trace=0)
            workload = cls(0, root / name, tiny=True)

            result = run.untraced_run(args, workload, cli.main, 0.0, {}, probes=0)
            expect(failures, result["correct"] and result["failed"] == 0,
                   f"{name}: untraced run failed {result['failed']} of {result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(failures, got == declared_e2e,
                   f"{name}: end-to-end metrics {got} differ from BENCHMARK.json")

            detail = {}
            result = run.traced_run(args, workload, cli.main, tracing, detail)
            expect(failures, result["correct"], f"{name}: traced run had failed sessions")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(failures, got == {k: v[0] for k, v in declared_layer.items()},
                   f"{name}: per-layer metrics differ from BENCHMARK.json")
            expect(failures, result["metrics"]["trace.coverage_mismatches"]["value"] == 0,
                   f"{name}: coverage mismatches {detail['coverage']}")

            print(f"selftest: {name}: injecting a perturbed output and a bad flag; "
                  f"the session failures reported next are expected", file=sys.stderr)
            for broken in (Corrupted(workload), BadFlag(workload)):
                result = run.untraced_run(args, broken, cli.main, 0.0, {}, probes=0)
                expect(failures, not result["correct"] and result["failed"] == result["attempted"]
                       and result["metrics"]["success_rate"]["value"] == 0.0,
                       f"{name}: {type(broken).__name__} sessions were not all counted as failed")
            print(f"selftest: {name} done in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            root.parent.rmdir()

    for message in failures:
        print(f"selftest: FAIL {message}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
