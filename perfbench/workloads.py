"""Seeded inputs, CLI sessions and output checks for the benchmark workloads.

Every generator builds a system that is observable by construction and
confirms it with its own numpy rank test.  Nothing in this module imports
isokal: the reference values the checks compare against (normal-equation
estimates, Gramian bounds, eigenvalue magnitudes, Monte Carlo bands) are
computed here from the generated matrices, so a restructure of the program
cannot also move its own yardstick.  Checks are tolerance-based, so a change
that only alters rounding does not fail them.
"""

import csv
import json
import math

import numpy as np

#: The CLI's default ``--rho-tol``: windows whose Gramian has
#: lambda_min >= RHO_TOL certify observability.
RHO_TOL = 1e-9
#: Factor by which every generated window must clear (or miss) RHO_TOL,
#: so that rounding can never flip the expected verdict or window length.
MARGIN = 1e3
#: Width, in standard errors, of every Monte Carlo or noise band.  The
#: bands are one-sided tail events of about 1e-9 per test.
Z = 6.0
#: Relative tolerance of the normal-equations reference for x0; equal to
#: the CLI's own ``--batch-check`` threshold.
X0_RTOL = 1e-6
#: Relative tolerance for quantities computed two ways in exact arithmetic
#: (Gramian bounds, eigenvalue magnitudes, covariance traces).
REF_RTOL = 1e-6
#: Relative tolerance for values one output file repeats from another.
SAME_RTOL = 1e-9


def _haar(rng, d):
    """A Haar-distributed random orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _vec(values):
    return ",".join(repr(float(v)) for v in values)


def _read_csv(path):
    """The rows below the header of a CSV written by the CLI, as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def _close(a, b, rtol):
    return np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                       rtol=rtol, atol=0.0)


def _normal_equations(h_tilde, r_inv, obs, p0):
    """x0 estimate and covariance trace from the normal equations.

    Prior x^_0 = 0 and P0 = p0 * I; h_tilde is (T, m, d), r_inv (T, m, m).
    """
    d = h_tilde.shape[2]
    w = np.einsum("tim,tmd->tid", r_inv, h_tilde)
    info = np.eye(d) / p0 + np.einsum("tmi,tmj->ij", h_tilde, w)
    rhs = np.einsum("tmi,tm->i", w, obs)
    return np.linalg.solve(info, rhs), float(np.trace(np.linalg.inv(info)))


def _whitened_noise_problems(h_tilde, r_inv, obs, x0):
    """Check that simulate's residuals y - H~ x0 look like N(0, R) draws."""
    resid = obs - np.einsum("tmd,d->tm", h_tilde, x0)
    n = resid.size
    mean_sq = float(np.einsum("tm,tmn,tn->", resid, r_inv, resid)) / n
    band = Z * math.sqrt(2.0 / n)
    if abs(mean_sq - 1.0) > band:
        return [f"whitened observation noise has mean square {mean_sq:.4f}, "
                f"outside 1 +- {band:.4f}"]
    return []


def _window_bounds(dynamics, h_seq, r_inv, L):
    """min over anchors of lambda_min of the length-L and length-(L-1) Gramians.

    dynamics[t] advances step t-1 -> t (index 0 unused); windows are
    anchored at every k0 with k0 + L <= len(h_seq).  The transitions of all
    anchors are carried together as one (anchors, d, d) stack.
    """
    n_anchor = len(h_seq) - L + 1
    d = h_seq.shape[2]
    phi = np.broadcast_to(np.eye(d), (n_anchor, d, d)).copy()
    gram = np.zeros((n_anchor, d, d))
    rows = []
    short = None
    for s in range(L):
        if s == L - 1:
            short = np.linalg.eigvalsh(gram)[:, 0]
        w = h_seq[s:s + n_anchor] @ phi
        rows.append(w)
        gram = gram + np.swapaxes(w, 1, 2) @ (r_inv[s:s + n_anchor] @ w)
        if s + 1 < L:
            phi = dynamics[s + 1:s + 1 + n_anchor] @ phi
    full = np.linalg.eigvalsh(gram)[:, 0]
    ranks = np.linalg.matrix_rank(np.concatenate(rows, axis=1))
    return full, short, ranks


def _observer_sequence(dynamics, h_seq):
    """H~_k = H_k A(k,0) for every k, by direct accumulation of A(k,0)."""
    d = h_seq.shape[2]
    phi = np.eye(d)
    out = np.empty_like(h_seq)
    for k in range(len(h_seq)):
        if k:
            phi = dynamics[k] @ phi
        out[k] = h_seq[k] @ phi
    return out


def _anchored_trace(h_tilde, r_inv, count):
    """lambda_min(O(k,0)) for k = 1..count."""
    gram = np.cumsum(np.einsum("tmi,tmn,tnj->tij", h_tilde[:count], r_inv[:count],
                               h_tilde[:count]), axis=0)
    return np.linalg.eigvalsh(gram)[:, 0]


class Workload:
    """One benchmark workload: generated inputs, a session of CLI calls, checks.

    Subclasses set ``obs_per_session`` (observations the session's
    estimators consume) and implement ``argvs``, ``outputs``, ``check``,
    ``expected_counts`` and ``corrupt``.
    """

    name = ""
    obs_per_session = 0
    #: Steps per trial inside ``harness.monte_carlo``; 0 when it is bypassed.
    mc_steps = 0

    def __init__(self, seed, workdir, tiny=False):
        self.rng = np.random.default_rng(seed)
        self.cli_seed = int(self.rng.integers(2**31 - 1))
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def clear_outputs(self):
        for path in self.outputs():
            path.unlink(missing_ok=True)


class Ensemble(Workload):
    """``reproduce example1`` then ``reproduce example2``, 100 trials each."""

    name = "ensemble"
    #: The paper's two examples, copied from the paper rather than from the
    #: package: true x0, the showcase guess, P0 scale, state size, snapshots.
    EXAMPLES = {
        "example1": dict(x0=[0.2, 0.4, 0.5, 0.3], x_hat0=[0.376, 0.502, 0.421, 0.366],
                         p0=1e-2, snapshots=(5, 10, 40)),
        "example2": dict(x0=[0.83053274, 0.35472554], x_hat0=[0.99065169, 0.19889222],
                         p0=1e-2, snapshots=(2, 5, 20)),
    }
    T = 40

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.trials = 4 if tiny else 100
        self.mc_steps = self.T
        # Monte Carlo trials plus the showcase run, for each example.
        self.obs_per_session = len(self.EXAMPLES) * (self.trials + 1) * self.T

    def argvs(self):
        return [["reproduce", which, "--trials", str(self.trials),
                 "--outdir", str(self.workdir / which), "--seed", str(self.cli_seed), "--quiet"]
                for which in self.EXAMPLES]

    def outputs(self):
        return [self.workdir / which / f"{name}.csv" for which in self.EXAMPLES
                for name in ("snapshots", "estimates", "mse", "p_eigs")]

    def check(self):
        problems = []
        for which, ex in self.EXAMPLES.items():
            problems += [f"{which}: {p}" for p in self._check_example(which, ex)]
        return problems

    def _check_example(self, which, ex):
        out = self.workdir / which
        T, N = self.T, self.trials
        x0, x_hat0, p0 = np.array(ex["x0"]), np.array(ex["x_hat0"]), ex["p0"]
        d = x0.size
        mse = _read_csv(out / "mse.csv")
        eigs = _read_csv(out / "p_eigs.csv")
        est = _read_csv(out / "estimates.csv")
        snap = _read_csv(out / "snapshots.csv")
        shapes = {"mse": (mse.shape, (T, 4)), "p_eigs": (eigs.shape, (T + 1, d + 1)),
                  "estimates": (est.shape, (T + 1, d + 3)),
                  "snapshots": (snap.shape, (len(ex["snapshots"]), 2 * d + 1))}
        bad = [f"{k}.csv has shape {got}, expected {want}" for k, (got, want) in shapes.items()
               if got != want]
        if bad:
            return bad
        if not all(np.all(np.isfinite(a)) for a in (mse, eigs, est, snap)):
            return ["non-finite values in the outputs"]

        problems = []
        lam = eigs[:, 1:]
        trace_p = lam.sum(axis=1)
        if np.any(lam <= 0.0):
            problems.append("p_eigs.csv has non-positive covariance eigenvalues")
        if not _close(trace_p[0], d * p0, SAME_RTOL):
            problems.append(f"trace(P_0) is {trace_p[0]!r}, expected {d * p0!r}")
        if np.any(np.diff(trace_p) > SAME_RTOL * trace_p[:-1]):
            problems.append("trace(P_k) increases")
        if not (_close(mse[:, 3], trace_p[1:], SAME_RTOL) and _close(est[:, d + 1], trace_p, SAME_RTOL)):
            problems.append("mean_trace_P / trace_P disagree with the p_eigs.csv spectra")

        # Prior-calibrated ensemble: the trials' initial guesses are drawn
        # from N(x_hat0, P0), so e_k ~ N(mu_k, P_k) with mu_k = Psi(k,0) b0
        # and b0 = x_hat0 - x0.  The centred second moment
        # mse - ||bias||^2 then has mean (N-1)/N trace(P_k) and standard
        # error sqrt(2 trace(P_k^2) / N).  The Lyapunov bound
        # mu^T P_k^-1 mu <= b0^T P0^-1 b0 = V0 caps ||mu_k||, and the
        # sample bias scatters around mu_k with covariance P_k / N.
        lam_k, trace_k = lam[1:], trace_p[1:]
        spread = mse[:, 1] - mse[:, 2] ** 2
        band = Z * np.sqrt(2.0 * np.sum(lam_k**2, axis=1) / N)
        worst = np.max(np.abs(spread - (N - 1) / N * trace_k) / band)
        if worst > 1.0:
            problems.append(f"mse - bias_norm^2 departs from mean_trace_P by {worst:.2f} "
                            f"Monte Carlo bands")
        v0 = float(np.sum((x_hat0 - x0) ** 2)) / p0
        if np.any(mse[:, 2] > np.sqrt(v0 * lam_k.max(axis=1)) + Z * np.sqrt(trace_k / N)):
            problems.append("bias_norm exceeds its Monte Carlo band")

        # Showcase run from the example's own guess.
        xhat = est[:, 1:d + 1]
        if not _close(xhat[0], x_hat0, SAME_RTOL):
            problems.append("estimates.csv does not start at the example's initial guess")
        if not _close(est[:, d + 2], np.linalg.norm(xhat - x0, axis=1), SAME_RTOL):
            problems.append("err_norm disagrees with ||xhat - x0||")
        steps = [int(k) for k in snap[:, 0]]
        if (steps != list(ex["snapshots"]) or not _close(snap[:, 1:d + 1], xhat[steps], SAME_RTOL)
                or not _close(snap[:, d + 1:], np.tile(x0, (len(steps), 1)), SAME_RTOL)):
            problems.append("snapshots.csv disagrees with estimates.csv or the true x0")
        # The error splits into the prior error carried by Psi(T,0), whose
        # Lyapunov value V never exceeds V0, and zero-mean noise with
        # covariance at most P_T.
        limit = (math.sqrt(v0) + Z) * math.sqrt(trace_p[T])
        if est[T, d + 2] > limit:
            problems.append(f"final error {est[T, d + 2]:.3e} exceeds {limit:.3e}")
        return problems

    def expected_counts(self):
        runs = len(self.EXAMPLES) * (self.trials + 1)
        return {
            "cli.reproduce": len(self.EXAMPLES),
            "harness.monte_carlo": len(self.EXAMPLES),
            "harness.simulate": runs,
            "estimator.run": runs,
            "estimator.step": runs * self.T,
            "model.SystemModel": len(self.EXAMPLES),
            # One right-multiplication per filter step, T - 1 per simulation.
            "model.A_at": runs * self.T + runs * (self.T - 1),
            "model.observed_evolution_sequence": runs,
            "model.advance_observed_evolution": runs * self.T,
            "model.load_model": 0,
            "estimator.step@harness.monte_carlo": len(self.EXAMPLES) * self.trials * self.T,
        }

    def corrupt(self):
        """Perturb the showcase's final estimate of example1."""
        path = self.workdir / "example1" / "estimates.csv"
        _perturb_csv_cell(path, row=-1, col=1)


def _perturb_csv_cell(path, row, col):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    value = float(rows[row][col])
    rows[row][col] = repr(value + 1e-3 * (1.0 + abs(value)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


class _RecordSession(Workload):
    """simulate -> estimate -> analyze on one generated config."""

    p0 = 1.0
    horizon = 0
    k_max = 0
    batch_check = False

    def _write_config(self, doc):
        self.config = self.workdir / "config.json"
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.obs_path = self.workdir / "observations.csv"
        self.est_path = self.workdir / "estimates.csv"
        self.report_path = self.workdir / "report.json"

    def argvs(self):
        cfg = ["--config", str(self.config)]
        estimate = ["estimate", *cfg, "--obs", str(self.obs_path), "--p0", repr(self.p0),
                    "--out", str(self.est_path), f"--truth={_vec(self.x0)}", "--quiet"]
        if self.batch_check:
            estimate.append("--batch-check")
        return [
            ["simulate", *cfg, f"--x0={_vec(self.x0)}", "--steps", str(self.T),
             "--out", str(self.obs_path), "--seed", str(self.cli_seed), "--quiet"],
            estimate,
            ["analyze", *cfg, "--horizon", str(self.horizon), "--k-max", str(self.k_max),
             "--out", str(self.report_path), "--quiet"],
        ]

    def outputs(self):
        return [self.obs_path, self.est_path, self.report_path]

    def check(self):
        obs = _read_csv(self.obs_path)
        obs = obs[:, 1:]
        if obs.shape != (self.T, self.m) or not np.all(np.isfinite(obs)):
            return [f"observations.csv has shape {obs.shape} or non-finite values"]
        problems = _whitened_noise_problems(self.h_tilde, self.r_inv, obs, self.x0)

        est = _read_csv(self.est_path)
        d = self.d
        if est.shape != (self.T + 1, d + 3) or not np.all(np.isfinite(est)):
            return problems + [f"estimates.csv has shape {est.shape} or non-finite values"]
        x_ref, trace_ref = _normal_equations(self.h_tilde, self.r_inv, obs, self.p0)
        err = _rel_err(est[-1, 1:d + 1], x_ref)
        if err > X0_RTOL:
            problems.append(f"final estimate is {err:.2e} from the normal-equations reference")
        if not _close(est[-1, d + 1], trace_ref, REF_RTOL):
            problems.append(f"final trace_P {est[-1, d + 1]!r} differs from the reference {trace_ref!r}")
        if not _close(est[:, d + 2], np.linalg.norm(est[:, 1:d + 1] - self.x0, axis=1), SAME_RTOL):
            problems.append("err_norm disagrees with ||xhat - x0||")

        report = _read_json(self.report_path)
        return problems + self._check_report(report)

    def _check_report(self, report):
        problems = []
        if report.get("verdict") != "Observable" or report.get("L") != self.L:
            problems.append(f"verdict {report.get('verdict')!r} at L={report.get('L')!r}, "
                            f"expected 'Observable' at L={self.L}")
        elif not _close(report["rho"], self.rho, REF_RTOL):
            problems.append(f"rho {report['rho']!r} differs from the reference {self.rho!r}")
        trace = np.asarray(report.get("lambda_min_trace") or [], dtype=float)
        ref = self.lambda_min_trace
        if trace.shape != ref.shape or not _close(trace[self.L - 1:], ref[self.L - 1:], REF_RTOL) \
                or np.any(np.abs(trace[:self.L - 1]) >= RHO_TOL):
            problems.append("lambda_min_trace differs from the reference")
        return problems

    def corrupt(self):
        """Perturb the final estimate of x0."""
        _perturb_csv_cell(self.est_path, row=-1, col=1)


class LtvRecord(_RecordSession):
    """One long LTV record: d = 8, m = 1, T = 800, per-step H_k and R_k."""

    name = "ltv_record"
    horizon = 16

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = self.rng
        d, m, T = (4, 1, 40) if tiny else (8, 1, 800)
        self.d, self.m, self.T = d, m, T
        self.k_max = self.horizon
        sigma2 = 1e-2
        # A_k = U_k D_k U_{k-1}^T with Haar frames U_k and a near-identity
        # diagonal D_k, and H_k = c_k^T U_k^T.  Then H_j A(j,k0) equals
        # c_j^T (D_j ... D_k0+1) U_k0^T, and the rows c_j cycle through a
        # perturbed standard basis, so every window of ceil(d/m) steps is
        # well conditioned by construction.
        frames = [np.eye(d)] + [_haar(rng, d) for _ in range(T - 1)]
        dynamics = np.empty((T, d, d))
        dynamics[0] = np.nan
        for k in range(1, T):
            scale = np.exp(rng.uniform(-0.01, 0.01, d))
            dynamics[k] = (frames[k] * scale) @ frames[k - 1].T
        basis = np.eye(d)
        h_seq = np.empty((T, m, d))
        for k in range(T):
            c = basis[[(k * m + i) % d for i in range(m)]] + 0.2 * rng.standard_normal((m, d)) / math.sqrt(d)
            h_seq[k] = c @ frames[k].T
        g = 0.5 * rng.standard_normal((T, m, m))
        r_seq = sigma2 * (np.eye(m) + g @ np.swapaxes(g, 1, 2))
        self.x0 = rng.standard_normal(d)
        self._write_config({
            "d": d, "m": m,
            "dynamics": {"kind": "ltv", "A_seq": dynamics[1:].tolist()},
            "observation": {"kind": "ltv", "H_seq": h_seq.tolist()},
            "noise": {"kind": "per_step", "R_seq": r_seq.tolist()},
        })
        self.r_inv = np.linalg.inv(r_seq)
        self.h_tilde = _observer_sequence(dynamics, h_seq)
        self.obs_per_session = T

        self.L = -(-d // m)
        full, short, ranks = _window_bounds(dynamics, h_seq, self.r_inv, self.L)
        if np.any(ranks < d) or full.min() < MARGIN * RHO_TOL or short.max() > RHO_TOL / MARGIN:
            raise RuntimeError("generated LTV system is not observable with margin at L = ceil(d/m)")
        self.rho = float(full.min())
        self.lambda_min_trace = _anchored_trace(self.h_tilde, self.r_inv, self.horizon)

    def _check_report(self, report):
        problems = super()._check_report(report)
        if report.get("classification") is not None or report.get("growth_class") is not None:
            problems.append("an LTV report carries an LTI classification")
        return problems

    def expected_counts(self):
        T, d, L = self.T, self.d, self.L
        windows = [T - w + 1 for w in range(1, L + 1)]
        return {
            "cli.simulate": 1, "cli.estimate": 1, "cli.analyze": 1,
            "model.load_model": 3,
            "model.SystemModel": 3,
            "harness.simulate": 1,
            "estimator.run": 1,
            "estimator.step": T,
            "model.advance_observed_evolution": T,
            "model.observed_evolution": T,
            # The last step's lookahead stops at the horizon check.
            "model.transition": T - 1,
            "observability.check_observability": 1,
            "observability.gramian": sum(windows),
            # simulate: T - 1; each step k rebuilds A(k,0): k products;
            # the anchored trace: horizon - 1; gramian(k0, w): w - 1 each.
            "model.A_at": (T - 1) + T * (T - 1) // 2 + (self.horizon - 1)
            + sum(n * (w - 1) for w, n in enumerate(windows, start=1)),
            "estimator.batch_wls": 0,
            "harness.monte_carlo": 0,
        }


class WideLti(_RecordSession):
    """d = 64, m = 8 LTI rotation blocks straddling |eig| = 1; batch-checked."""

    name = "wide_lti"
    batch_check = True

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = self.rng
        d, m, T = (16, 2, 20) if tiny else (64, 8, 100)
        self.d, self.m, self.T = d, m, T
        self.horizon, self.k_max = d, T
        sigma2 = 1e-2
        # Output i sees its own group of `per` rotation blocks, whose angles
        # sit at the odd multiples of pi / (2 per): in block coordinates each
        # output's Krylov rows form a DFT-like Vandermonde system, so the
        # window of d/m steps is well conditioned.  Radii alternate inside
        # and outside the unit circle, so the error dynamics are Lyapunov
        # stable only.  A random rotation Q hides the block structure.
        per = d // (2 * m)
        blocks = np.zeros((d, d))
        h_blocks = np.zeros((m, d))
        radii = []
        for i in range(m):
            for j in range(per):
                b = 2 * (i * per + j)
                theta = (2 * j + 1 + rng.uniform(-0.2, 0.2)) * np.pi / (2 * per)
                r = rng.uniform(0.96, 0.99) if j % 2 == 0 else rng.uniform(1.01, 1.04)
                radii += [r, r]
                c, s = math.cos(theta), math.sin(theta)
                blocks[b:b + 2, b:b + 2] = r * np.array([[c, -s], [s, c]])
                phase = rng.uniform(0.0, 2.0 * np.pi)
                h_blocks[i, b:b + 2] = [math.cos(phase), math.sin(phase)]
        h_blocks += 0.05 * rng.standard_normal((m, d))
        q = _haar(rng, d)
        a = q @ blocks @ q.T
        h = h_blocks @ q.T
        self.eigs_abs = np.sort(radii)[::-1]
        self.x0 = rng.standard_normal(d)
        self._write_config({
            "d": d, "m": m,
            "dynamics": {"kind": "lti", "A": a.tolist()},
            "observation": {"kind": "lti", "H": h.tolist()},
            "noise": {"kind": "isotropic", "sigma2": sigma2},
        })
        self.r_inv = np.broadcast_to(np.eye(m) / sigma2, (T, m, m))
        self.h_tilde = _observer_sequence(np.broadcast_to(a, (T, d, d)), np.broadcast_to(h, (T, m, d)))
        self.obs_per_session = T

        self.L = d // m
        trace = _anchored_trace(self.h_tilde, self.r_inv, T)
        if (np.linalg.matrix_rank(self.h_tilde[:self.L].reshape(-1, d)) < d
                or trace[self.L - 1] < MARGIN * RHO_TOL or trace[self.L - 2] > RHO_TOL / MARGIN):
            raise RuntimeError("generated LTI system is not observable with margin at L = d/m")
        if not (self.eigs_abs[-1] < 1.0 < self.eigs_abs[0]):
            raise RuntimeError("generated eigenvalue magnitudes do not straddle 1")
        self.rho = float(trace[self.L - 1])
        # analyze reports the growth trace of lambda_min_asymptotics(K = k_max).
        self.lambda_min_trace = trace[:self.k_max]

    def _check_report(self, report):
        problems = super()._check_report(report)
        if report.get("classification") != "LyapunovStableOnly" \
                or report.get("growth_class") != "BoundedLimit":
            problems.append(f"classification {report.get('classification')!r} / growth "
                            f"{report.get('growth_class')!r}, expected LyapunovStableOnly / BoundedLimit")
        if not _close(report.get("eigs_abs") or [], self.eigs_abs, REF_RTOL):
            problems.append("eigs_abs differs from the generated spectrum")
        p_norm = np.asarray(report.get("p_norm_trace") or [], dtype=float)
        if p_norm.shape != (self.k_max + 1,) or np.any(np.diff(p_norm) > SAME_RTOL * p_norm[:-1]):
            problems.append("p_norm_trace is missing or increases")
        return problems

    def corrupt(self):
        """Flip the reported classification."""
        report = _read_json(self.report_path)
        report["classification"] = "UniformlyAsymptoticallyStable"
        with open(self.report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)

    def expected_counts(self):
        T, d, K = self.T, self.d, self.k_max
        return {
            "cli.simulate": 1, "cli.estimate": 1, "cli.analyze": 1,
            "model.load_model": 3,
            "model.SystemModel": 3,
            "harness.simulate": 1,
            # estimate, then the covariance-only run inside analyze_stability.
            "estimator.run": 2,
            "estimator.step": T + K,
            "estimator.covariance_sequence": 1,
            # --batch-check solves one prefix per state, k = 0..T.
            "estimator.batch_wls": T + 1,
            # analyze, lambda_min_asymptotics and classify each certify.
            "observability.check_observability": 3,
            "observability.lambda_min_asymptotics": 1,
            "observability.gramian": 0,
            "stability.analyze_stability": 1,
            "stability.classify": 1,
            # simulate: T - 1; steps: one each; prefix k: k - 1;
            # anchored traces of lengths horizon, d, K and d; three A_at(1)
            # spectra (growth class, classify, report).
            "model.A_at": (T - 1) + (T + K) + T * (T - 1) // 2
            + (self.horizon - 1) + 2 * (d - 1) + (K - 1) + 3,
            "model.transition": 0,
            "harness.monte_carlo": 0,
        }


WORKLOADS = {cls.name: cls for cls in (Ensemble, LtvRecord, WideLti)}
