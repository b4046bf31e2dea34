"""Trajectory simulation, seeded Monte Carlo ensembles and bundled examples.

Reproducibility contract: all randomness flows through numpy's PCG64
``Generator``.  Trial t of an ensemble seeded with S uses the stream
``default_rng(SeedSequence((S, t)))``, so its values depend only on (S, t)
up to rounding, and re-runs are byte-identical.  Within one trial the
draws are consumed in a fixed order: first the initial-guess perturbation
(when the ensemble is prior-calibrated), then one standard_normal((T, m))
block whose row k drives the noise of step k.

``simulate`` reads its observers from one ``observed_evolution_sequence``
walk.  A bundled example is one filter pass: its gain schedule serves the
ensemble and the showcase trajectory, and its observers give the showcase
observations.  Every CSV is written by ``write_csv`` from a stacked array.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from orjson import OPT_SERIALIZE_NUMPY, dumps

from . import estimator
from ._linalg import readonly
from .model import NonFiniteError, SystemModel, observed_evolution_sequence


# Cells per orjson.dumps of write_csv: bounds the Python floats alive at once.
_CELLS_PER_DUMP = 2048


@dataclass(frozen=True)
class EnsembleStats:
    """Per-step errors of every trial of an ensemble and their statistics.

    ``schedule`` is the gain schedule every trial was filtered through;
    mean_trace_p is the trace of its P_k.
    """

    err_sq: np.ndarray        # ||e_k||^2 of each trial, (trials, T+1)
    bias: np.ndarray          # mean e_k, (T+1, d)
    mean_trace_p: np.ndarray
    schedule: estimator.GainSchedule

    @property
    def n_trials(self):
        return len(self.err_sq)

    @property
    def mse(self):
        return self.err_sq.mean(axis=0)

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
    of each stream.  ``draws=None`` adds no noise term at all.  Dynamics
    that overflowed float64 raise NonFiniteError naming the first step at
    which an observation of any stream is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        obs = h_tilde @ x0
        if draws is not None:
            obs = obs + (factors @ draws[..., None])[..., 0]
    bad = np.flatnonzero(~np.isfinite(obs).all(axis=-1).reshape(-1, len(h_tilde)).all(axis=0))
    if bad.size:
        raise NonFiniteError(f"simulated observation at step {bad[0]} is not finite: "
                             f"the dynamics overflowed float64")
    return obs


def simulate(model, x0, T, seed, noiseless=False):
    """Observations y(k) = H~_k x0 + v_k for k = 0..T-1, shape (T, m).

    Noise is one standard_normal((T, m)) block whose row k, multiplied by
    the model's lower Cholesky factor of R_k, is v_k; the sequence is fully
    determined by ``seed`` (an int, SeedSequence or Generator).
    ``noiseless`` skips the noise entirely and returns the exact evolved
    observations.  Steps past the model's horizon raise HorizonError.
    Dynamics that overflow float64 within T steps raise NonFiniteError
    naming the first non-finite step.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    x0 = estimator._state_vector(x0, model.d, "x0")
    model._check_horizon(T - 1)
    rng = np.random.default_rng(seed)
    draws = None if noiseless else rng.standard_normal((T, model.m))
    h_tilde = observed_evolution_sequence(model, T)[0]
    return _observations(h_tilde, x0, model.noise_factors(T), draws)


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
    by one fold of the (trials, d) stack of guesses; the schedule is handed
    back as ``stats.schedule``.  Observations or estimates that overflow
    float64 raise NonFiniteError naming the step.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    x0 = estimator._state_vector(x0, model.d, "x0")
    x_hat0, P0 = estimator._prior(model, x_hat0, P0)
    schedule = estimator._pass(model, P0, T)[0]

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

    errors = estimator._fold(schedule, x_hat, obs) - x0
    return EnsembleStats(err_sq=readonly(np.einsum("nkd,nkd->nk", errors, errors)),
                         bias=errors.mean(axis=0), schedule=schedule,
                         mean_trace_p=readonly(np.trace(schedule.P, axis1=1, axis2=2)))


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


def write_csv(path, header, steps, values):
    """Write a CSV: the header, then per step its index and that row of ``values``.

    ``values`` is a 2-D float array and ``steps`` a sequence of one integer
    per row.  Floats are written in their shortest round-trip decimal form,
    spelled as ``repr`` spells it, fixed across platforms for a value.  The
    bytes are those of csv.writer's default dialect (CRLF line ends) with
    every float in its ``repr``: no header name or float needs quoting.

    Each block of rows is one ``orjson.dumps``.  orjson writes repr's
    digits, and spells them as repr does for zero and for 1e-4 <= |x| < 1e16;
    every other cell (exponent form, 1e-5 <= |x| < 1e-4, which orjson writes
    positionally, and NaN and inf, which it writes as null) goes in as its
    ``repr`` string, whose quotes are then dropped.  A block holds about
    _CELLS_PER_DUMP cells, so the Python floats of a long table are never
    all alive at once.
    """
    values = np.asarray(values, dtype=float)
    size = np.abs(values)
    respelled = (size != 0.0) & ~((size >= 1e-4) & (size < 1e16))
    block = max(1, _CELLS_PER_DUMP // max(values.shape[1], 1))
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(values), block):
            rows = [[k, *row] for k, row in zip(steps[start:start + block],
                                                values[start:start + block].tolist())]
            for i, j in np.argwhere(respelled[start:start + block]).tolist():
                rows[i][j + 1] = repr(rows[i][j + 1])
            # [[k,v,...],[k,v,...]] -> k,v,...\r\nk,v,...
            text = dumps(rows, option=OPT_SERIALIZE_NUMPY).replace(b"],[", b"\r\n")
            fh.write(text[2:-2].replace(b'"', b"") + b"\r\n")


def write_observations_csv(path, observations):
    header = ["k"] + [f"y_{i}" for i in range(observations.shape[1])]
    write_csv(path, header, range(len(observations)), observations)


def read_observations_csv(path):
    """The (N, m) observations in a CSV as write_observations_csv writes it.

    The header is 'k' and at least one observation column.  Every row has
    the header's width; a row of another width or a cell that is not a
    number raises ValueError naming the file and its line.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "k":
            raise ValueError(f"{path}: expected an observations CSV with a 'k' first column")
        if len(header) < 2:
            raise ValueError(f"{path}: the header has no observation column after 'k'")
        rows = []
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} fields, the header has {len(header)}")
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return np.array(rows, dtype=float).reshape(-1, len(header) - 1)


def write_estimates_csv(path, x_hat, trace_p, truth=None):
    """Write the estimates x^_k and trace(P_k), k = 0..N, one row per step.

    ``x_hat`` stacks the (N+1, d) estimates and ``trace_p`` the N+1
    traces; with ``truth`` an err_norm column ||x^_k - truth|| follows.
    """
    header = ["k"] + [f"xhat_{i}" for i in range(x_hat.shape[1])] + ["trace_P"]
    columns = [x_hat, np.reshape(trace_p, (-1, 1))]
    if truth is not None:
        header.append("err_norm")
        err = (x_hat - truth)[:, None, :]
        # Row by row a dot product, as norm(x^_k - truth) takes it: same bits.
        columns.append(np.sqrt(err @ err.swapaxes(1, 2))[:, 0])
    write_csv(path, header, range(len(x_hat)), np.hstack(columns))


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

    stats = monte_carlo(model, x0, x_hat0, P0, T, trials, seed)

    # Showcase run: the example's exact initial guess on its own noise
    # stream (seed, trials), drawn as simulate draws it but through the
    # schedule's observers, and filtered through the ensemble's schedule.
    draws = np.random.default_rng(trial_seed(seed, trials)).standard_normal((T, model.m))
    showcase_obs = _observations(stats.schedule.h_tilde, x0, model.noise_factors(T), draws)
    showcase = estimator._fold(stats.schedule, x_hat0, showcase_obs)

    paths = {name: out_dir / f"{name}.csv"
             for name in ("snapshots", "estimates", "mse", "p_eigs")}

    write_estimates_csv(paths["estimates"], showcase, stats.mean_trace_p, truth=x0)

    snap_header = ["k"] + [f"xhat_{i}" for i in range(d)] + [f"xtrue_{i}" for i in range(d)]
    snap_rows = np.hstack([showcase[list(snapshots)], np.tile(x0, (len(snapshots), 1))])
    write_csv(paths["snapshots"], snap_header, snapshots, snap_rows)

    mse_rows = np.column_stack([stats.mse, stats.bias_norm, stats.mean_trace_p])
    write_csv(paths["mse"], ["k", "mse", "bias_norm", "mean_trace_P"], range(1, T + 1),
              mse_rows[1:])

    eig_header = ["k"] + [f"eig_{i}" for i in range(1, d + 1)]
    write_csv(paths["p_eigs"], eig_header, range(T + 1),
              np.linalg.eigvalsh(stats.schedule.P)[:, ::-1])

    return {name: str(p) for name, p in paths.items()}
