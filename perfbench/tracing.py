"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces each public function of isokal's modules at
every name it is looked up under (the defining module, each module that
did ``from .x import y``, and the package namespace) with a wrapper that
records a span: calls, busy time (outermost call of that name, so
recursion is not counted twice) and self time (the span minus the spans it
directly encloses).  ``SystemModel.A_at`` and generator functions are
counted only, because a span around them would cost more than the work or
would close before the generator runs.  ``uninstall`` restores every name.
"""

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("model", "estimator", "observability", "stability", "harness", "cli")
CLI_COMMANDS = {"_cmd_reproduce": "cli.reproduce", "_cmd_simulate": "cli.simulate",
                "_cmd_estimate": "cli.estimate", "_cmd_analyze": "cli.analyze"}
IO_FUNCTIONS = ("harness.write_csv", "harness.write_observations_csv",
                "harness.read_observations_csv", "harness.write_estimates_csv")
#: Counter of filter steps taken inside a Monte Carlo ensemble.
STEP_IN_MC = "estimator.step@harness.monte_carlo"

#: Per-layer metrics: name -> (unit, better, the end-to-end metric and
#: workload it should move).  BENCHMARK.json lists the same names and units.
LAYER_METRICS = {
    "model.A_at.calls_per_obs": ("calls/obs", "lower", "obs_per_s on ltv_record; flat on ensemble and wide_lti"),
    "model.transition.busy_s": ("s", "lower", "obs_per_s on ltv_record; flat (zero) on ensemble and wide_lti"),
    "model.load_model.busy_s": ("s", "lower", "session_s_p50 on ltv_record"),
    "model.SystemModel.calls": ("count", "lower", "session_s_p50 on ltv_record"),
    "estimator.step.calls": ("count", "lower", "obs_per_s on ensemble (overhead-bound) and wide_lti (flop-bound)"),
    "estimator.step.busy_s": ("s", "lower", "obs_per_s on ensemble and wide_lti"),
    "estimator.step.us_per_call": ("us", "lower", "obs_per_s on ensemble and wide_lti"),
    "estimator.run.self_s": ("s", "lower", "obs_per_s on ensemble"),
    "estimator.batch_wls.calls": ("count", "lower", "session_s_p50 on wide_lti"),
    "estimator.batch_wls.busy_s": ("s", "lower", "session_s_p50 on wide_lti"),
    "estimator.covariance_sequence.busy_s": ("s", "lower", "session_s_p50 on wide_lti"),
    "observability.gramian.calls": ("count", "lower", "session_s_p50 on ltv_record"),
    "observability.check_observability.busy_s": ("s", "lower", "session_s_p50 on ltv_record"),
    "observability.check_observability.calls": ("count", "lower", "session_s_p50 on wide_lti"),
    "observability.lambda_min_asymptotics.busy_s": ("s", "lower", "session_s_p50 on wide_lti"),
    "stability.analyze_stability.self_s": ("s", "lower", "session_s_p50 on wide_lti"),
    "stability.classify.busy_s": ("s", "lower", "session_s_p50 on wide_lti"),
    "harness.monte_carlo.self_s": ("s", "lower", "obs_per_s on ensemble"),
    "harness.monte_carlo.busy_s": ("s", "lower", "obs_per_s on ensemble"),
    "harness.covariance_redundancy": ("ratio", "lower", "obs_per_s on ensemble"),
    "harness.simulate.busy_s": ("s", "lower", "session_s_p50 on every workload"),
    "harness.io_s": ("s", "lower", "session_s_p50 on every workload"),
    "cli.reproduce.self_s": ("s", "lower", "session_s_p50 on ensemble"),
    "cli.simulate.self_s": ("s", "lower", "session_s_p50 on ltv_record and wide_lti"),
    "cli.estimate.self_s": ("s", "lower", "session_s_p50 on wide_lti (batch-check loop)"),
    "cli.analyze.self_s": ("s", "lower", "session_s_p50 on ltv_record and wide_lti"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced session p50"),
    "trace.coverage_mismatches": ("count", "lower", "none: counts that differ from the workload's exact expectation"),
    "estimator.step.us_per_call.d2": ("us", "lower", "obs_per_s on ensemble (d = 2 and 4)"),
    "estimator.step.us_per_call.d8": ("us", "lower", "obs_per_s on ltv_record (d = 8)"),
    "estimator.step.us_per_call.d32": ("us", "lower", "obs_per_s on wide_lti"),
    "estimator.step.us_per_call.d128": ("us", "lower", "obs_per_s on wide_lti (flop-bound end)"),
}

SWEEP_DIMS = (2, 8, 32, 128)
SWEEP_STEPS = 64
SWEEP_REPEATS = 3


class Tracer:
    """Span and call aggregates for the current session."""

    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self._depth = Counter()
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        self.calls[name] += 1
        self._depth[name] += 1
        if name in IO_FUNCTIONS:
            self._depth["harness.io"] += 1
        elif name == "estimator.step" and self._depth["harness.monte_carlo"]:
            self.calls[STEP_IN_MC] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy[name] += dur
        if name in IO_FUNCTIONS:
            self._depth["harness.io"] -= 1
            if not self._depth["harness.io"]:
                self.busy["harness.io"] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        from isokal import model

        package = [mod for name, mod in sys.modules.items()
                   if name == "isokal" or name.startswith("isokal.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"isokal.{layer}"]
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr in CLI_COMMANDS:
                    name = CLI_COMMANDS[attr]
                elif attr.startswith("_"):
                    continue
                else:
                    name = f"{layer}.{attr}"
                make = self._counted if inspect.isgeneratorfunction(fn) else self._span
                wrappers[id(fn)] = (fn, make(name, fn))
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(mod, attr, wrappers[id(value)][1])
        cls = model.SystemModel
        self._patch(cls, "__init__", self._span("model.SystemModel", cls.__init__))
        self._patch(cls, "A_at", self._counted("model.A_at", cls.A_at))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def session_metrics(self, workload):
        """Per-layer values of the session just recorded."""
        calls, busy, self_s = self.calls, self.busy, self.self_s
        step_calls = calls["estimator.step"]
        mc_calls = calls["harness.monte_carlo"]
        return {
            "model.A_at.calls_per_obs": calls["model.A_at"] / workload.obs_per_session,
            "model.transition.busy_s": busy["model.transition"],
            "model.load_model.busy_s": busy["model.load_model"],
            "model.SystemModel.calls": calls["model.SystemModel"],
            "estimator.step.calls": step_calls,
            "estimator.step.busy_s": busy["estimator.step"],
            "estimator.step.us_per_call": 1e6 * busy["estimator.step"] / step_calls if step_calls else 0.0,
            "estimator.run.self_s": self_s["estimator.run"],
            "estimator.batch_wls.calls": calls["estimator.batch_wls"],
            "estimator.batch_wls.busy_s": busy["estimator.batch_wls"],
            "estimator.covariance_sequence.busy_s": busy["estimator.covariance_sequence"],
            "observability.gramian.calls": calls["observability.gramian"],
            "observability.check_observability.busy_s": busy["observability.check_observability"],
            "observability.check_observability.calls": calls["observability.check_observability"],
            "observability.lambda_min_asymptotics.busy_s": busy["observability.lambda_min_asymptotics"],
            "stability.analyze_stability.self_s": self_s["stability.analyze_stability"],
            "stability.classify.busy_s": busy["stability.classify"],
            "harness.monte_carlo.self_s": self_s["harness.monte_carlo"],
            "harness.monte_carlo.busy_s": busy["harness.monte_carlo"],
            "harness.covariance_redundancy":
                calls[STEP_IN_MC] / (workload.mc_steps * mc_calls) if mc_calls else 0.0,
            "harness.simulate.busy_s": busy["harness.simulate"],
            "harness.io_s": busy["harness.io"],
            "cli.reproduce.self_s": self_s["cli.reproduce"],
            "cli.simulate.self_s": self_s["cli.simulate"],
            "cli.estimate.self_s": self_s["cli.estimate"],
            "cli.analyze.self_s": self_s["cli.analyze"],
        }


def coverage_mismatches(counts, workload):
    """(name, expected, recorded) for each count the workload predicts but missed."""
    return [(name, want, counts.get(name, 0))
            for name, want in workload.expected_counts().items()
            if counts.get(name, 0) != want]


def summarize(per_session, counts_per_session):
    """Median of each per-layer value over the traced sessions.

    Also returns how many counters varied between sessions, which a
    deterministic session never does.
    """
    out = {name: statistics.median(s[name] for s in per_session) for name in per_session[0]}
    names = set().union(*counts_per_session)
    varying = sum(1 for name in names
                  if len({c.get(name, 0) for c in counts_per_session}) > 1)
    return out, varying


def step_sweep(seed):
    """Median microseconds per ``estimator.step`` at each sweep dimension.

    Each dimension runs SWEEP_STEPS steps of a random orthogonal LTI model
    with m = max(1, d // 4) outputs, SWEEP_REPEATS times.
    """
    from isokal import SystemModel, estimator

    rng = np.random.default_rng(seed)
    out = {}
    for d in SWEEP_DIMS:
        m = max(1, d // 4)
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        model = SystemModel(q * np.sign(np.diag(r)), rng.standard_normal((m, d)), 1e-2)
        obs = rng.standard_normal((SWEEP_STEPS, m))
        noise = model.R_at(0)
        samples = []
        for _ in range(SWEEP_REPEATS):
            state = estimator.init(model, None, 1.0)
            t0 = time.perf_counter()
            for y in obs:
                state = estimator.step(state, y, noise, model)
            samples.append(1e6 * (time.perf_counter() - t0) / SWEEP_STEPS)
        out[f"estimator.step.us_per_call.d{d}"] = statistics.median(samples)
    return out
