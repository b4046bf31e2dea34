"""Command-line interface: simulate, estimate, analyze, reproduce.

Every subcommand is deterministic in its flags and config (``simulate``
and ``reproduce`` also take a seed) and writes a manifest next to its
outputs recording the resolved inputs, tool version and wall-clock
duration.  Exit codes: 0 success, 1 invalid flags or config, 2 I/O
failure, 3 batch-check deviation above threshold.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from orjson import JSONDecodeError, loads

from . import __version__, estimator, harness, stability
from .model import ConfigError, HorizonError, _as_array, load_model
from .observability import check_observability, lambda_min_asymptotics

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_BATCH_CHECK = 3

BATCH_CHECK_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    """argparse's default error exit code is 2; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _parse_vector(text, flag):
    try:
        vec = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(flag, f"expected comma-separated decimal literals, got {text!r}")
    if not np.all(np.isfinite(vec)):
        raise ConfigError(flag, f"entries must be finite, got {text!r}")
    return vec


def _parse_state(text, d, flag):
    """A state vector flag: finite comma-separated decimals, d of them."""
    return estimator._state_vector(_parse_vector(text, flag), d, flag)


def _at_least(value, low, flag):
    """An integer flag's ``value``; ConfigError naming ``flag`` when it is below ``low``."""
    if value < low:
        raise ConfigError(flag, f"must be >= {low}, got {value}")
    return value


def _read_json(path, name):
    """The document in the JSON file at ``path``, decoded by orjson.

    Only strict RFC 8259 JSON is read: malformed JSON, NaN/Infinity tokens,
    numbers past float64 and invalid UTF-8 raise ConfigError ``name`` with
    orjson's message, which gives the line and column.
    """
    try:
        return loads(Path(path).read_bytes())
    except JSONDecodeError as exc:
        raise ConfigError(name, f"invalid JSON: {exc}") from None


def _load_config(path):
    return load_model(_read_json(path, str(path)))


def _parse_p0(text):
    """A scalar p (meaning p * I) or a path to a JSON matrix file."""
    try:
        return float(text)
    except ValueError:
        pass
    name = f"--p0 {text}"
    return _as_array(_read_json(text, name), name)


def _write_manifest(path, command, config, seed, outputs, started, **fields):
    doc = {
        "command": command,
        "config": str(Path(config).resolve()) if config else None,
        "seed": seed,
        "outputs": sorted(str(Path(p)) for p in outputs),
        "version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
        **fields,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(args):
    started = time.monotonic()
    model = _load_config(args.config)
    x0 = _parse_state(args.x0, model.d, "--x0")
    steps = _at_least(args.steps, 1, "--steps")
    obs = harness.simulate(model, x0, steps, args.seed, noiseless=args.noiseless)
    harness.write_observations_csv(args.out, obs)
    _write_manifest(f"{args.out}.manifest.json", "simulate", args.config, args.seed,
                    [args.out], started)
    if not args.quiet:
        print(f"wrote {obs.shape[0]} observations to {args.out}")
    return EXIT_OK


def _cmd_estimate(args):
    started = time.monotonic()
    model = _load_config(args.config)
    obs = harness.read_observations_csv(args.obs)
    x_hat0 = _parse_state(args.x0_guess, model.d, "--x0-guess") if args.x0_guess else None
    p0 = _parse_p0(args.p0)
    truth = _parse_state(args.truth, model.d, "--truth") if args.truth else None

    schedule, x_hat = estimator._estimate(model, x_hat0, p0, obs)[:2]
    harness.write_estimates_csv(args.out, x_hat, np.trace(schedule.P, axis1=1, axis2=2),
                                truth=truth)
    bound = schedule.cond_bound
    _write_manifest(f"{args.out}.manifest.json", "estimate", args.config, None,
                    [args.out], started, schedule_form=schedule.form,
                    schedule_cond_bound=bound if math.isfinite(bound) else None)
    if not args.quiet:
        print(f"wrote {len(x_hat)} estimate rows to {args.out}")

    if args.batch_check:
        worst = 0.0
        for x, xb in zip(x_hat, estimator.wls_prefixes(model, x_hat0, p0, obs)):
            dev = np.linalg.norm(x - xb) / (1.0 + np.linalg.norm(xb))
            worst = max(worst, dev)
        if not args.quiet:
            print(f"batch-check max deviation: {worst:.3e}")
        if worst > BATCH_CHECK_TOL:
            print(f"batch-check failed: deviation {worst:.3e} > {BATCH_CHECK_TOL:.1e}",
                  file=sys.stderr)
            return EXIT_BATCH_CHECK
    return EXIT_OK


def _cmd_analyze(args):
    started = time.monotonic()
    model = _load_config(args.config)
    obs_report = check_observability(model, L_max=_at_least(args.horizon, 1, "--horizon"),
                                     rho_tol=args.rho_tol)

    doc = obs_report.to_json_dict()
    if model.is_lti and obs_report.observable:
        # --k-max is read only by the LTI traces, so a time-varying model takes any value.
        k_max = _at_least(args.k_max, 2, "--k-max")
        growth = lambda_min_asymptotics(model, K=k_max, report=obs_report)
        doc.update({"lambda_min_trace": [float(v) for v in growth.lambda_min_trace],
                    "growth_class": growth.growth_class, "growth_limit": growth.limit,
                    "beta_fit": growth.beta})
        report = stability.analyze_stability(model, P0=args.p0, k_max=k_max,
                                             report=obs_report)
        doc.update(report.to_json_dict())
    else:
        doc.update({"growth_class": None, "growth_limit": None, "beta_fit": None,
                    "eigs_abs": None, "classification": None, "alpha": None,
                    "beta": None, "lyapunov_monotone": None, "p_norm_trace": None,
                    "uniformly_stable_hint": None})

    # A NaN is a ValueError here, before --out is opened, never a token.
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    _write_manifest(f"{args.out}.manifest.json", "analyze", args.config, None,
                    [args.out], started)
    if not args.quiet:
        print(f"verdict: {doc['verdict']}  classification: {doc['classification']}")
    return EXIT_OK


def _cmd_reproduce(args):
    started = time.monotonic()
    trials = _at_least(args.trials, 1, "--trials")
    paths = harness.reproduce_example(args.which, trials, args.seed, args.outdir,
                                      sigma_is_variance=args.sigma_is_variance)
    _write_manifest(Path(args.outdir) / "manifest.json", "reproduce", None, args.seed,
                    list(paths.values()), started)
    if not args.quiet:
        print(f"wrote {', '.join(sorted(Path(p).name for p in paths.values()))} to {args.outdir}")
    return EXIT_OK


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")

    parser = _Parser(prog="isokal",
                     description="Initial-state estimation and error-dynamics analysis "
                                 "for discrete-time linear systems.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="generate noisy observations of a known initial state")
    p.add_argument("--config", required=True, help="system config JSON")
    p.add_argument("--x0", required=True, help="true initial state, comma-separated")
    p.add_argument("--steps", type=int, required=True, help="number of observations")
    p.add_argument("--out", required=True, help="output observations.csv path")
    p.add_argument("--noiseless", action="store_true", help="emit exact observations (v = 0)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", parents=[common],
                       help="recursively estimate the initial state from observations")
    p.add_argument("--config", required=True)
    p.add_argument("--obs", required=True, help="observations CSV (as written by simulate)")
    p.add_argument("--x0-guess", default=None, help="initial guess, comma-separated (default 0)")
    p.add_argument("--p0", required=True, help="initial covariance: scalar p (= p*I) or JSON matrix file")
    p.add_argument("--out", required=True, help="output estimates.csv path")
    p.add_argument("--truth", default=None, help="true x0 for err_norm column, comma-separated")
    p.add_argument("--batch-check", action="store_true",
                   help="cross-check against the one-shot weighted least-squares solution")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("analyze", parents=[common],
                       help="observability and error-dynamics stability report")
    p.add_argument("--config", required=True)
    p.add_argument("--horizon", type=int, required=True, help="largest window length to certify")
    p.add_argument("--k-max", type=int, required=True, help="steps of Gramian/covariance traces")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--rho-tol", type=float, default=1e-9,
                   help="observability bound on lambda_min (default 1e-9)")
    p.add_argument("--p0", type=float, default=1.0,
                   help="scalar initial covariance for the stability traces (default 1)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reproduce", parents=[seeded],
                       help="run a bundled example end to end (CSV file set + manifest)")
    p.add_argument("which", choices=list(harness.EXAMPLE_NAMES))
    p.add_argument("--trials", type=int, default=100, help="ensemble size (default 100)")
    p.add_argument("--outdir", required=True)
    p.add_argument("--sigma-is-variance", action="store_true",
                   help="read the example's sigma as a variance instead of a standard deviation")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, HorizonError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"isokal {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"isokal {args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
