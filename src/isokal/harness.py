"""Trajectory simulation, seeded Monte Carlo ensembles and bundled examples.

Reproducibility contract: all randomness flows through numpy's PCG64
``Generator``.  Trial t of an ensemble seeded with S uses the stream
``default_rng(SeedSequence((S, t)))``, so its values depend only on (S, t)
up to rounding, and re-runs are byte-identical.  Within one trial the
draws are consumed in a fixed order: first the initial-guess perturbation
(when the ensemble is prior-calibrated), then one standard_normal((T, m))
block whose row k drives the noise of step k.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimator
from ._linalg import readonly
from .model import SystemModel, observed_evolution_sequence


@dataclass(frozen=True)
class TrialResult:
    """Per-step error and covariance diagnostics for one ensemble trial."""

    trial_id: int
    seed_key: tuple
    err_sq: np.ndarray        # ||e_k||^2, k = 0..T
    err_inf: np.ndarray       # ||x^_k - x0||_inf
    trace_p: np.ndarray       # trace(P_k)
    p_eigs: np.ndarray        # eigenvalues of P_k, descending, (T+1, d)


@dataclass(frozen=True)
class EnsembleStats:
    """Sample statistics across trials: empirical MSE and bias per step."""

    n_trials: int
    mse: np.ndarray           # mean ||e_k||^2
    bias: np.ndarray          # mean e_k, (T+1, d)
    mean_trace_p: np.ndarray

    @property
    def bias_norm(self):
        return np.linalg.norm(self.bias, axis=1)


def trial_seed(master_seed, trial_id):
    """The documented per-trial seeding rule: SeedSequence((master, trial))."""
    return np.random.SeedSequence((int(master_seed), int(trial_id)))


def _observations(h_tilde, x0, factors, draws):
    """Observations H~_k x0 + C_k g_k, k = 0..T-1, of one or more noise streams.

    ``h_tilde`` stacks the T observers and ``factors`` the lower Cholesky
    factors C_k of R_k; ``draws`` (..., T, m) holds the standard normal g_k
    of each stream.  ``draws=None`` adds no noise term at all.
    """
    obs = h_tilde @ x0
    if draws is not None:
        obs = obs + (factors @ draws[..., None])[..., 0]
    return obs


def simulate(model, x0, T, seed, noiseless=False):
    """Observations y(k) = H~_k x0 + v_k for k = 0..T-1, shape (T, m).

    Noise is one standard_normal((T, m)) block whose row k, multiplied by
    the model's lower Cholesky factor of R_k, is v_k; the sequence is fully
    determined by ``seed`` (an int, SeedSequence or Generator).
    ``noiseless`` skips the noise entirely and returns the exact evolved
    observations.  Steps past the model's horizon raise HorizonError.
    Dynamics that overflow float64 within T steps raise ValueError naming
    the first non-finite step.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    x0 = estimator._state_vector(x0, model.d, "x0")
    model._check_horizon(T - 1)
    rng = np.random.default_rng(seed)
    draws = None if noiseless else rng.standard_normal((T, model.m))
    # Overflow is reported by the check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        h_tilde = np.array(list(observed_evolution_sequence(model, T)))
        out = _observations(h_tilde, x0, model.noise_factors(T), draws)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise ValueError(f"simulated observation at step {bad[0]} is not finite: "
                         f"the dynamics overflowed float64")
    return out


def monte_carlo(model, x0, x_hat0, P0, T, trials, seed, calibrated=True,
                noiseless=False):
    """Run ``trials`` independent simulate+estimate pairs and aggregate.

    With ``calibrated`` (the default) each trial perturbs the initial guess
    by a draw from N(0, P0), so the ensemble's initial error actually has
    covariance P0 and trace(P_k) is comparable to the empirical
    mse - ||bias||^2.  A fixed guess across trials (calibrated=False)
    measures the error conditional on that guess instead, for which the
    covariance comparison does not apply.

    The gain schedule is computed once and all trials are filtered together
    as the rows of one (trials, d) array; trials share trace_p and p_eigs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    x0 = estimator._state_vector(x0, model.d, "x0")
    x_hat0, P0 = estimator._prior(model, x_hat0, P0)
    schedule = estimator.gain_schedule(model, P0, T)

    x_hat = np.tile(x_hat0, (trials, 1))
    draws = None if noiseless else np.empty((trials, T, model.m))
    guess_factor = np.linalg.cholesky(P0)
    for t in range(trials):
        rng = np.random.default_rng(trial_seed(seed, t))
        if calibrated:
            x_hat[t] = x_hat[t] + guess_factor @ rng.standard_normal(model.d)
        if draws is not None:
            draws[t] = rng.standard_normal((T, model.m))
    # (trials, T, m), or (T, m) shared by every trial when noiseless.
    obs = _observations(schedule.h_tilde, x0, model.noise_factors(T), draws)

    errors = np.empty((trials, T + 1, model.d))
    errors[:, 0] = x_hat - x0
    for k in range(T):
        innovation = obs[..., k, :] - x_hat @ schedule.h_tilde[k].T
        x_hat = x_hat + innovation @ schedule.gain[k].T
        errors[:, k + 1] = x_hat - x0

    err_sq = readonly(np.einsum("nkd,nkd->nk", errors, errors))
    err_inf = readonly(np.max(np.abs(errors), axis=2))
    trace_p = readonly(np.trace(schedule.P, axis1=1, axis2=2))
    p_eigs = readonly(np.linalg.eigvalsh(schedule.P)[:, ::-1])
    results = [TrialResult(t, (int(seed), t), err_sq[t], err_inf[t], trace_p, p_eigs)
               for t in range(trials)]
    stats = EnsembleStats(n_trials=trials, mse=err_sq.mean(axis=0),
                          bias=errors.mean(axis=0), mean_trace_p=trace_p)
    return stats, results


# Bundled demonstration systems.  sigma is quoted as a noise level; by
# default it is read as a standard deviation (R = sigma^2 I), and
# sigma_is_variance flips that reading (R = sigma I).
_EXAMPLES = {
    "example1": dict(
        A=[[1.99, -0.32, 0.0, 0.07],
           [0.43, 1.17, 0.02, 0.0],
           [0.13, -0.09, 1.52, -0.13],
           [0.28, -0.14, 0.03, 1.22]],
        H=[[1.0, 0.0, 0.0, 0.0],
           [0.0, 0.0, 1.0, 0.0]],
        sigma=0.01,
        x0=[0.2, 0.4, 0.5, 0.3],
        x_hat0=[0.376, 0.502, 0.421, 0.366],
        p0_scale=1e-2,
        snapshots=(5, 10, 40),
    ),
    "example2": dict(
        A=[[1.0, -0.5],
           [-0.5, 1.0]],
        H=[[0.0, 1.0]],
        sigma=0.001,
        x0=[0.83053274, 0.35472554],
        x_hat0=[0.99065169, 0.19889222],
        p0_scale=1e-2,
        snapshots=(2, 5, 20),
    ),
}

EXAMPLE_NAMES = tuple(sorted(_EXAMPLES))
EXAMPLE_STEPS = 40


def example_system(which, sigma_is_variance=False):
    """One of the bundled demonstration systems.

    Returns (model, x0, x_hat0, P0, snapshot_steps).  ``which`` is
    "example1" (all dynamics eigenvalues outside the unit circle) or
    "example2" (eigenvalues straddling it).
    """
    if which not in _EXAMPLES:
        raise ValueError(f"unknown example {which!r}; expected one of {EXAMPLE_NAMES}")
    entry = _EXAMPLES[which]
    sigma2 = entry["sigma"] if sigma_is_variance else entry["sigma"] ** 2
    model = SystemModel(np.array(entry["A"]), np.array(entry["H"]), float(sigma2))
    d = model.d
    return (model, np.array(entry["x0"]), np.array(entry["x_hat0"]),
            entry["p0_scale"] * np.eye(d), entry["snapshots"])


def format_float(x):
    """Shortest round-trip decimal form; fixed across platforms for a value."""
    return repr(float(x))


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else format_float(v) for v in row])


def write_observations_csv(path, observations):
    m = observations.shape[1]
    header = ["k"] + [f"y_{i}" for i in range(m)]
    rows = [[str(k)] + [y for y in obs] for k, obs in enumerate(observations)]
    write_csv(path, header, rows)


def read_observations_csv(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0] != "k":
            raise ValueError(f"{path}: expected an observations CSV with a 'k' first column")
        rows = [[float(v) for v in row[1:]] for row in reader if row]
    m = len(header) - 1
    return np.array(rows, dtype=float).reshape(-1, m)


def write_estimates_csv(path, states, truth=None):
    d = states[0].x_hat.shape[0]
    header = ["k"] + [f"xhat_{i}" for i in range(d)] + ["trace_P"]
    if truth is not None:
        header.append("err_norm")
    rows = []
    for s in states:
        row = [str(s.step)] + list(s.x_hat) + [float(np.trace(s.P))]
        if truth is not None:
            row.append(float(np.linalg.norm(s.x_hat - truth)))
        rows.append(row)
    write_csv(path, header, rows)


def reproduce_example(which, trials, seed, out_dir, sigma_is_variance=False):
    """Run one bundled example end to end and write its CSV file set.

    Writes into ``out_dir``:

    - snapshots.csv: the showcase estimate at the example's snapshot steps
      next to the true initial state;
    - estimates.csv: the full showcase trajectory (the example's exact
      initial guess, noise stream (seed, trials));
    - mse.csv: per-step empirical MSE, bias norm and mean trace(P_k) over
      the prior-calibrated ensemble (k = 1..T);
    - p_eigs.csv: eigenvalues of P_k, descending, k = 0..T.

    Returns the dict of written paths.  Identical arguments produce
    byte-identical files.
    """
    model, x0, x_hat0, P0, snapshots = example_system(which, sigma_is_variance)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    T = EXAMPLE_STEPS
    d = model.d

    stats, results = monte_carlo(model, x0, x_hat0, P0, T, trials, seed)

    # Showcase run: the example's exact initial guess on its own noise stream.
    showcase_obs = simulate(model, x0, T, trial_seed(seed, trials))
    showcase = estimator.run(model, x_hat0, P0, showcase_obs)

    paths = {name: out_dir / f"{name}.csv"
             for name in ("snapshots", "estimates", "mse", "p_eigs")}

    write_estimates_csv(paths["estimates"], showcase, truth=x0)

    snap_header = ["k"] + [f"xhat_{i}" for i in range(d)] + [f"xtrue_{i}" for i in range(d)]
    snap_rows = [[str(k)] + list(showcase[k].x_hat) + list(x0) for k in snapshots]
    write_csv(paths["snapshots"], snap_header, snap_rows)

    bias_norm = stats.bias_norm
    mse_rows = [[str(k), stats.mse[k], bias_norm[k], stats.mean_trace_p[k]]
                for k in range(1, T + 1)]
    write_csv(paths["mse"], ["k", "mse", "bias_norm", "mean_trace_P"], mse_rows)

    p_eigs = results[0].p_eigs
    eig_rows = [[str(k)] + list(p_eigs[k]) for k in range(T + 1)]
    write_csv(paths["p_eigs"], ["k"] + [f"eig_{i}" for i in range(1, d + 1)], eig_rows)

    return {name: str(p) for name, p in paths.items()}
