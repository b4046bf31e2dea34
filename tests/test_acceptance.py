"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (run with -s to see
them live; pytest replays captured output on failure).  Criteria 1-5 and 7
share one bench of 200 seeded random observable LTI systems; the bench
build time is charged to criterion 1's runtime budget.
"""

import time

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from isokal import cli, estimator
from isokal._linalg import spd_inverse, spectral_norm, symmetrize
from isokal.harness import monte_carlo, simulate, trial_seed
from isokal.stability import error_dynamics, exponential_fit, gelfand_diagnostic

MASTER_SEED = 20260808
N_SYSTEMS = 200
T = 30


def report(num, name, passed, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def bench(make_system):
    """200 seeded random observable systems, each run for 30 noisy steps."""
    t0 = time.monotonic()
    systems = []
    for i in range(N_SYSTEMS):
        model, x0, x_hat0, p0 = make_system(MASTER_SEED, i, T=T)
        obs = simulate(model, x0, T, trial_seed(MASTER_SEED, 10_000 + i))
        states = estimator.run(model, x_hat0, p0, obs)
        dyn = error_dynamics(model, states)

        grams = []
        total = np.zeros((model.d, model.d))
        for k in range(T):
            h_tilde = states[k].H_tilde_next
            total = symmetrize(total + h_tilde.T @ h_tilde / model.sigma2)
            grams.append(total)

        systems.append(dict(
            model=model, x0=x0, x_hat0=x_hat0, p0=p0, obs=obs, states=states,
            psi_seq=dyn.psi_seq, grams=grams, p0_inv=spd_inverse(p0),
        ))
    return dict(systems=systems, build_seconds=time.monotonic() - t0)


def test_criterion_01_oracle_equivalence(bench):
    t0 = time.monotonic()
    worst = 0.0
    for sys_ in bench["systems"]:
        states, obs = sys_["states"], sys_["obs"]
        for k in range(1, T + 1):
            xb = estimator.batch_wls(sys_["model"], sys_["x_hat0"], sys_["p0"], obs[:k])
            dev = np.linalg.norm(states[k].x_hat - xb) / (1.0 + np.linalg.norm(xb))
            worst = max(worst, dev)
    elapsed = bench["build_seconds"] + (time.monotonic() - t0)
    passed = worst <= 1e-8 and elapsed <= 30.0
    report(1, "oracle equivalence (recursive vs batch WLS)", passed,
           f"max rel dev {worst:.2e}, {elapsed:.1f}s incl. bench build")
    assert worst <= 1e-8
    assert elapsed <= 30.0


def test_criterion_02_covariance_inverse_identity(bench):
    worst = 0.0
    for sys_ in bench["systems"]:
        states, grams, p0_inv = sys_["states"], sys_["grams"], sys_["p0_inv"]
        for k in range(1, T + 1):
            pk_inv = spd_inverse(states[k].P)
            dev = spectral_norm(pk_inv - p0_inv - grams[k - 1]) / spectral_norm(pk_inv)
            worst = max(worst, dev)
    passed = worst <= 1e-8
    report(2, "P_k^-1 = P_0^-1 + information accumulation", passed,
           f"max rel dev {worst:.2e}")
    assert passed


def test_criterion_03_monotone_covariances(bench, example1, example2):
    worst = -np.inf
    runs = [([s.P for s in sys_["states"]], np.trace(sys_["p0"]))
            for sys_ in bench["systems"]]
    for model, _x0, _xh, p0, _ in (example1, example2):
        runs.append((estimator.covariance_sequence(model, p0, 40), np.trace(p0)))
    for covs, trace_p0 in runs:
        for prev, cur in zip(covs[:-1], covs[1:]):
            worst = max(worst, np.linalg.eigvalsh(cur - prev)[-1] / trace_p0)
    passed = worst <= 1e-10
    report(3, "covariance sequence is monotone non-increasing", passed,
           f"max lambda_max(P_k - P_k-1)/trace(P_0) = {worst:.2e}")
    assert passed


def test_criterion_04_lyapunov_descent(bench):
    n_z = 50
    worst_incr = -np.inf
    worst_lb = -np.inf
    for i, sys_ in enumerate(bench["systems"]):
        states, psi_seq, p0 = sys_["states"], sys_["psi_seq"], sys_["p0"]
        d = sys_["model"].d
        rng = np.random.default_rng(trial_seed(MASTER_SEED, 20_000 + i))
        z = rng.standard_normal((d, n_z))
        v = np.einsum("ij,ij->j", z, cho_solve(cho_factor(p0, lower=True), z))
        v0 = v.copy()
        inv_norm_p0 = 1.0 / spectral_norm(p0)
        for k in range(1, T + 1):
            z = psi_seq[k - 1] @ z
            factor = cho_factor(symmetrize(states[k].P), lower=True)
            v_next = np.einsum("ij,ij->j", z, cho_solve(factor, z))
            worst_incr = max(worst_incr, np.max((v_next - v) / v0))
            lb = np.einsum("ij,ij->j", z, z) * inv_norm_p0
            worst_lb = max(worst_lb, np.max((lb - v_next) / np.maximum(v_next, 1e-300)))
            v = v_next
    passed = worst_incr <= 1e-12 and worst_lb <= 1e-12
    report(4, "Lyapunov function non-increasing and lower-bounded", passed,
           f"max dV/V0 {worst_incr:.2e}, max bound violation {worst_lb:.2e}")
    assert worst_incr <= 1e-12
    assert worst_lb <= 1e-12


def test_criterion_05_error_transition_algebra(bench):
    worst_step = 0.0
    worst_prod = 0.0
    for sys_ in bench["systems"]:
        states, psi_seq, p0_inv = sys_["states"], sys_["psi_seq"], sys_["p0_inv"]
        d = sys_["model"].d
        prod = np.eye(d)
        for k in range(1, T + 1):
            ratio = cho_solve(cho_factor(symmetrize(states[k - 1].P), lower=True),
                              states[k].P.T).T
            dev = spectral_norm(psi_seq[k - 1] - ratio) / (1.0 + spectral_norm(ratio))
            worst_step = max(worst_step, dev)
            prod = psi_seq[k - 1] @ prod
        target = states[T].P @ p0_inv
        dev = spectral_norm(prod - target) / (1.0 + spectral_norm(target))
        worst_prod = max(worst_prod, dev)
    passed = worst_step <= 1e-7 and worst_prod <= 1e-7
    report(5, "per-step and accumulated error transitions match covariance ratios",
           passed, f"step {worst_step:.2e}, product {worst_prod:.2e}")
    assert worst_step <= 1e-7
    assert worst_prod <= 1e-7


def test_criterion_06_regime_split(example1, example2):
    model1, _x0, _xh, p0_1, _ = example1
    norms1 = np.array([spectral_norm(p)
                       for p in estimator.covariance_sequence(model1, p0_1, 40)])
    strictly_decreasing = bool(np.all(np.diff(norms1[10:41]) < 0.0))
    _alpha, beta = exponential_fit(norms1[10:41])
    collapsed = norms1[40] <= 1e-3 * norms1[0]

    model2, _x0, _xh, p0_2, _ = example2
    norms2 = np.array([spectral_norm(p)
                       for p in estimator.covariance_sequence(model2, p0_2, 40)])
    bounded_below = norms2.min() >= 0.1 * norms2[20]
    plateau_ratio = norms2[-10:].max() / norms2[-10:].min()

    passed = (strictly_decreasing and beta > 0 and collapsed
              and bounded_below and plateau_ratio <= 1.01)
    report(6, "regime split: collapse vs plateau of ||P_k||", passed,
           f"ex1 beta {beta:.3f}, ||P_40||/||P_0|| {norms1[40]/norms1[0]:.1e}; "
           f"ex2 plateau ratio {plateau_ratio:.6f}")
    assert strictly_decreasing
    assert beta > 0
    assert collapsed
    assert bounded_below
    assert plateau_ratio <= 1.01


def test_criterion_07_norm_bracketing(bench):
    worst_lo = -np.inf
    worst_hi = -np.inf
    for sys_ in bench["systems"]:
        states, grams = sys_["states"], sys_["grams"]
        lam_p0inv = np.linalg.eigvalsh(sys_["p0_inv"])
        for k in range(1, T + 1):
            lam_min_g = np.linalg.eigvalsh(grams[k - 1])[0]
            lam_max_p = np.linalg.eigvalsh(states[k].P)[-1]
            lo = 1.0 / (lam_p0inv[-1] + lam_min_g)
            hi = 1.0 / (lam_p0inv[0] + lam_min_g)
            worst_lo = max(worst_lo, (lo - lam_max_p) / lam_max_p)
            worst_hi = max(worst_hi, (lam_max_p - hi) / lam_max_p)
    passed = worst_lo <= 1e-8 and worst_hi <= 1e-8
    report(7, "||P_k|| bracketed through lambda_min of the information matrix",
           passed, f"lower {worst_lo:.2e}, upper {worst_hi:.2e}")
    assert worst_lo <= 1e-8
    assert worst_hi <= 1e-8


def test_criterion_08_ensemble_statistics(example1):
    model, x0, x_hat0, p0, _ = example1
    n_trials, steps, seed = 200, 40, 42
    t0 = time.monotonic()
    stats = monte_carlo(model, x0, x_hat0, p0, T=steps, trials=n_trials, seed=seed)
    elapsed = time.monotonic() - t0

    se = stats.err_sq.std(axis=0, ddof=1) / np.sqrt(n_trials)
    gap = np.abs(stats.mse - stats.bias_norm ** 2 - stats.mean_trace_p)
    ratio = np.max(gap[1:] / (3.0 * se[1:]))
    decay = stats.mse[40] / stats.mse[1]

    passed = ratio <= 1.0 and decay <= 0.1 and elapsed <= 60.0
    report(8, "ensemble MSE/bias/covariance agreement and decay", passed,
           f"max |gap|/3SE {ratio:.3f}, mse_40/mse_1 {decay:.1e}, {elapsed:.1f}s")
    assert ratio <= 1.0
    assert decay <= 0.1
    assert elapsed <= 60.0


def test_criterion_09_spectral_diagnostic(example1, example2):
    # validate the dense eigensolver against the quadratic formula on 2x2s
    def quad_abs(a):
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = tr * tr - 4.0 * det
        if disc >= 0.0:
            r = np.sqrt(disc)
            return np.sort(np.abs([(tr + r) / 2.0, (tr - r) / 2.0]))
        return np.sort(np.abs([np.sqrt(det), np.sqrt(det)]))

    rng = np.random.default_rng(MASTER_SEED)
    cross_ok = True
    mats = [example2[0].A_at(1)] + [rng.standard_normal((2, 2)) for _ in range(20)]
    for a in mats:
        solver = np.sort(np.abs(np.linalg.eigvals(a)))
        oracle = quad_abs(a)
        cross_ok &= bool(np.allclose(solver, oracle, rtol=1e-10, atol=1e-12))

    a1 = example1[0].A_at(1)
    lam_min = float(np.min(np.abs(np.linalg.eigvals(a1))))
    _n, roots = gelfand_diagnostic(a1, 60)[-1]
    rel = abs(roots[-1] - lam_min) / lam_min

    passed = cross_ok and rel <= 0.05
    report(9, "singular-value roots of matrix powers approach |eigenvalues|",
           passed, f"n=60 rel gap {rel:.4f}, 2x2 cross-check {'ok' if cross_ok else 'BAD'}")
    assert cross_ok
    assert rel <= 0.05


def test_criterion_10_reproduce_determinism(tmp_path):
    dirs = [tmp_path / "first", tmp_path / "second"]
    for outdir in dirs:
        code = cli.main(["reproduce", "example1", "--trials", "100", "--seed", "42",
                         "--outdir", str(outdir), "--quiet"])
        assert code == 0
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    identical = bool(names) and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    report(10, "repeated reproduction is byte-identical", identical,
           f"{len(names)} CSV files compared")
    assert identical
