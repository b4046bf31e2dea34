import dataclasses

import numpy as np
import pytest

from isokal import estimator, harness, model as model_module, stability
from isokal._linalg import eig_abs_sorted, spd_inverse, spectral_norm, symmetrize
from isokal.harness import simulate, trial_seed
from isokal.model import SystemModel
from isokal.observability import (
    UnobservableModelError,
    check_observability,
    gramian,
    lambda_min_asymptotics,
)
from isokal.stability import (
    INDETERMINATE,
    LYAPUNOV_STABLE_ONLY,
    UNIFORMLY_ASYMPTOTICALLY_STABLE,
    analyze_stability,
    classify,
    error_dynamics,
    exponential_fit,
    gelfand_diagnostic,
    lyapunov_value,
    psi_transition,
)


from test_observability import certified  # noqa: F401  (fixture)


def lti(a, h, sigma2=1.0):
    return SystemModel(np.asarray(a, dtype=float), np.asarray(h, dtype=float), sigma2)


def random_spd(rng, d, scale=1.0):
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return symmetrize(q @ np.diag(rng.uniform(0.2, 1.0, size=d) * scale) @ q.T)


class TestPsiTransition:
    def test_equal_covariances_give_identity(self):
        rng = np.random.default_rng(0)
        p = random_spd(rng, 4)
        np.testing.assert_allclose(psi_transition(p, p), np.eye(4), atol=1e-12)

    def test_composition_telescopes(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            pk, pj, pi = (random_spd(rng, d) for _ in range(3))
            lhs = psi_transition(pk, pj) @ psi_transition(pj, pi)
            rhs = psi_transition(pk, pi)
            assert spectral_norm(lhs - rhs) <= 1e-9 * max(spectral_norm(rhs), 1.0)

    def test_per_step_product_matches_covariance_ratio(self, make_system):
        for i in range(5):
            model, x0, x_hat0, p0 = make_system(505, i)
            obs = simulate(model, x0, 20, trial_seed(505, i))
            states = estimator.run(model, x_hat0, p0, obs)
            dyn = error_dynamics(model, states)
            prod = np.eye(model.d)
            for psi in dyn.psi_seq:
                prod = psi @ prod
            target = states[-1].P @ spd_inverse(p0)
            assert spectral_norm(prod - target) <= 1e-7 * (1.0 + spectral_norm(target))

    def test_psi_equals_covariance_ratio_stepwise(self, make_system):
        for i in range(5):
            model, x0, x_hat0, p0 = make_system(606, i)
            obs = simulate(model, x0, 20, trial_seed(606, i))
            states = estimator.run(model, x_hat0, p0, obs)
            dyn = error_dynamics(model, states)
            for k, psi in enumerate(dyn.psi_seq, start=1):
                ratio = psi_transition(states[k].P, states[k - 1].P)
                assert spectral_norm(psi - ratio) <= 1e-7 * (1.0 + spectral_norm(ratio))


class TestLyapunovValue:
    def test_zero_vector(self):
        assert lyapunov_value(np.eye(3), np.zeros(3)) == 0.0

    def test_identity_covariance(self):
        z = np.array([1.0, -2.0, 2.0])
        assert lyapunov_value(np.eye(3), z) == pytest.approx(9.0, rel=1e-14)

    def test_decrement_formula(self, make_system):
        # along z(k) = Psi_k z(k-1) the decrement must equal
        # -z^T H~^T (H~ P H~^T + R)^-1 H~ z, evaluated independently
        from scipy.linalg import cho_factor, cho_solve
        for i in range(6):
            model, x0, x_hat0, p0 = make_system(707, i)
            obs = simulate(model, x0, 20, trial_seed(707, i))
            states = estimator.run(model, x_hat0, p0, obs)
            dyn = error_dynamics(model, states)
            rng = np.random.default_rng(trial_seed(708, i))
            z = rng.standard_normal(model.d)
            v = lyapunov_value(p0, z)
            for k in range(1, 21):
                h_tilde = states[k - 1].H_tilde_next
                sigma = symmetrize(h_tilde @ states[k - 1].P @ h_tilde.T + model.R_at(k - 1))
                w = h_tilde @ z
                dv_formula = -float(w @ cho_solve(cho_factor(sigma, lower=True), w))
                z = dyn.psi_seq[k - 1] @ z
                v_next = lyapunov_value(states[k].P, z)
                assert abs((v_next - v) - dv_formula) <= 1e-8 * max(v, abs(dv_formula))
                v = v_next

    def test_monotone_and_lower_bounded(self, make_system):
        for i in range(6):
            model, x0, x_hat0, p0 = make_system(808, i)
            obs = simulate(model, x0, 25, trial_seed(808, i))
            states = estimator.run(model, x_hat0, p0, obs)
            dyn = error_dynamics(model, states)
            rng = np.random.default_rng(trial_seed(809, i))
            norm_p0 = spectral_norm(p0)
            for _ in range(10):
                z = rng.standard_normal(model.d)
                v = lyapunov_value(p0, z)
                v0 = v
                for k in range(1, 26):
                    z = dyn.psi_seq[k - 1] @ z
                    v_next = lyapunov_value(states[k].P, z)
                    assert v_next - v <= 1e-12 * v0
                    assert v_next >= (z @ z) / norm_p0 * (1.0 - 1e-9)
                    v = v_next


def spoiled(bad):
    """[[bad, 0], [0, 1]]: numpy's Cholesky factor of it is silently non-finite."""
    m = np.eye(2)
    m[0, 0] = bad
    return m


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])


class TestNonFiniteInput:
    """A non-finite input raises ValueError naming the matrix, never a NaN result."""

    @NON_FINITE
    def test_spd_inverse_names_the_matrix(self, bad):
        with pytest.raises(ValueError, match="^P0 is not finite$"):
            spd_inverse(spoiled(bad), "P0")

    @NON_FINITE
    def test_lyapunov_value_names_p_k(self, bad):
        with pytest.raises(ValueError, match="^P_k is not finite$"):
            lyapunov_value(spoiled(bad), np.ones(2))

    @NON_FINITE
    def test_psi_transition_names_p_j(self, bad):
        with pytest.raises(ValueError, match="^P_j is not finite$"):
            psi_transition(np.eye(2), spoiled(bad))

    @NON_FINITE
    def test_the_other_operand_is_named_too(self, bad):
        with pytest.raises(ValueError, match="^P_k is not finite$"):
            psi_transition(spoiled(bad), np.eye(2))
        with pytest.raises(ValueError, match="^z is not finite$"):
            lyapunov_value(np.eye(2), [bad, 0.0])


class TestClassify:
    def test_example1_uniformly_asymptotically_stable(self, example1):
        assert classify(example1[0]) == UNIFORMLY_ASYMPTOTICALLY_STABLE

    def test_example2_lyapunov_only(self, example2):
        assert classify(example2[0]) == LYAPUNOV_STABLE_ONLY

    def test_doubling_dynamics(self):
        assert classify(lti(2.0 * np.eye(3), np.eye(3))) == UNIFORMLY_ASYMPTOTICALLY_STABLE

    def test_normal_on_unit_circle_is_stable(self):
        # rotation: normal with all eigenvalue magnitudes exactly 1
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert classify(lti(rot, np.eye(2))) == UNIFORMLY_ASYMPTOTICALLY_STABLE

    def test_nonnormal_on_unit_circle_indeterminate(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert classify(lti(jordan, np.eye(2))) == INDETERMINATE

    def test_unobservable_rejected(self):
        with pytest.raises(UnobservableModelError):
            classify(lti(np.eye(2), np.array([[1.0, 0.0]])))

    def test_ltv_rejected(self):
        m = SystemModel(np.stack([np.eye(2)] * 2), np.stack([np.eye(2)] * 2), 1.0)
        with pytest.raises(ValueError, match="LTI"):
            classify(m)


class TestExponentialFit:
    def test_exact_exponential(self):
        ks = np.arange(20)
        alpha, beta = exponential_fit(np.exp(-0.3 * ks))
        assert beta == pytest.approx(0.3, abs=1e-9)
        assert alpha == pytest.approx(1.0, rel=1e-9)

    def test_constant_sequence(self):
        _alpha, beta = exponential_fit(np.full(12, 0.7))
        assert abs(beta) <= 1e-12

    def test_zero_entries_truncate_the_fit(self):
        vals = np.concatenate([np.exp(-0.5 * np.arange(10)), [0.0, 0.0]])
        _alpha, beta = exponential_fit(vals)
        assert beta == pytest.approx(0.5, abs=1e-9)

    def test_too_few_values_rejected(self):
        with pytest.raises(ValueError, match="holds 1 point.*needs at least 3"):
            exponential_fit([1.0, 0.5])

    def test_one_point_tail_rejected(self):
        # five values, two of them positive: the tail half is one point, so
        # no line is fitted and no RankWarning leaks; four positive values
        # leave two tail points, five leave three, the fewest fitted
        with pytest.raises(ValueError, match="holds 1 point"):
            exponential_fit([1.0, 0.5, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="holds 2 point"):
            exponential_fit([1.0, 0.5, 0.25, 0.125, 0.0])
        _alpha, beta = exponential_fit([1.0, 0.5, 0.25, 0.125, 0.0625, 0.0])
        assert beta == pytest.approx(np.log(2.0), rel=1e-12)

    def test_example1_run_decays(self, example1):
        model, _x0, _xh, p0, _ = example1
        covs = estimator.covariance_sequence(model, p0, 40)
        p0_inv = spd_inverse(p0)
        norms = [spectral_norm(p @ p0_inv) for p in covs]
        _alpha, beta = exponential_fit(norms)
        assert beta > 0


class TestGelfand:
    def test_symmetric_matrix_is_exact_for_all_n(self):
        rng = np.random.default_rng(3)
        a = symmetrize(rng.standard_normal((3, 3)))
        lams = np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]
        # equality is exact in real arithmetic; the svd of A^n spans
        # (lam_max/lam_min)^n of dynamic range, which bounds the precision
        for n, roots in gelfand_diagnostic(a, 12):
            np.testing.assert_allclose(roots, lams, rtol=1e-8)

    def test_jordan_block_approaches_one_from_below(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        diag = gelfand_diagnostic(jordan, 40)
        smallest = np.array([roots[-1] for _n, roots in diag])
        # brute-force oracle: explicit powers + svd, feasible while the
        # entries stay small
        for n in (1, 5, 10, 20, 30):
            sv = np.linalg.svd(np.linalg.matrix_power(jordan, n), compute_uv=False)
            assert smallest[n - 1] == pytest.approx(sv[-1] ** (1.0 / n), rel=1e-10)
        assert np.all(smallest < 1.0)
        assert np.all(np.diff(smallest) > 0.0)

    def test_example1_sixty_powers_near_smallest_eigenvalue(self, example1):
        a = example1[0].A_at(1)
        lam_min = np.min(np.abs(np.linalg.eigvals(a)))
        _n, roots = gelfand_diagnostic(a, 60)[-1]
        assert abs(roots[-1] - lam_min) / lam_min <= 0.05

    def test_overflow_guard_has_headroom(self):
        # spectral radius 3 for 400 powers would overflow without rescaling
        a = np.diag([3.0, 0.5])
        _n, roots = gelfand_diagnostic(a, 400)[-1]
        np.testing.assert_allclose(roots, [3.0, 0.5], rtol=1e-8)


class TestRegimes:
    def test_example1_norm_to_zero(self, example1):
        model, _x0, _xh, p0, _ = example1
        covs = estimator.covariance_sequence(model, p0, 40)
        norms = np.array([spectral_norm(p) for p in covs])
        assert np.all(np.diff(norms[2:]) < 0.0)
        assert norms[-1] <= 1e-3 * norms[0]

    def test_example2_norm_bounded_below(self, example2):
        model, _x0, _xh, p0, _ = example2
        covs = estimator.covariance_sequence(model, p0, 40)
        norms = np.array([spectral_norm(p) for p in covs])
        assert norms.min() >= 0.1 * norms[20]
        last10 = norms[-10:]
        assert last10.max() / last10.min() <= 1.01

    def test_norm_bracketing(self, make_system):
        for i in range(5):
            model, _x0, _xh, p0 = make_system(909, i)
            covs = estimator.covariance_sequence(model, p0, 25)
            lam_p0inv = np.linalg.eigvalsh(spd_inverse(p0))
            for k in range(1, 26):
                lam_min_g = np.linalg.eigvalsh(gramian(model, 0, k))[0]
                lam_max_p = np.linalg.eigvalsh(covs[k])[-1]
                lo = 1.0 / (lam_p0inv[-1] + lam_min_g)
                hi = 1.0 / (lam_p0inv[0] + lam_min_g)
                assert lo - lam_max_p <= 1e-8 * lam_max_p
                assert lam_max_p - hi <= 1e-8 * lam_max_p


class TestAnalyzeStability:
    def test_example2_report(self, example2):
        report = analyze_stability(example2[0], P0=1e-2, k_max=40)
        assert report.classification == LYAPUNOV_STABLE_ONLY
        np.testing.assert_allclose(report.eigenvalues_A, [1.5, 0.5], rtol=1e-12)
        assert report.lyapunov_monotone
        assert not report.uniformly_stable_hint
        doc = report.to_json_dict()
        for key in ("eigs_abs", "classification", "alpha", "beta",
                    "lyapunov_monotone", "p_norm_trace"):
            assert key in doc

    def test_report_fields(self, example2):
        # the spectrum is eigenvalues_A alone; nothing names a fit window
        report = analyze_stability(example2[0], P0=1e-2, k_max=40)
        assert [f.name for f in dataclasses.fields(report)] == [
            "eigenvalues_A", "classification", "exp_fit", "lyapunov_trace",
            "lyapunov_monotone", "covariance_norm_trace", "uniformly_stable_hint"]

    def test_contracting_system_hints_uniform_stability(self):
        report = analyze_stability(lti(0.5 * np.eye(2), np.eye(2)), k_max=10)
        assert report.uniformly_stable_hint
        assert report.classification == LYAPUNOV_STABLE_ONLY

    @pytest.mark.parametrize("which", ["example1", "example2"])
    def test_one_spectrum_and_the_report_certificate(self, which, certified, monkeypatch):
        # the classification comes from the model's one |eig(A)| and from
        # the covering observability report; it equals classify's, and the
        # growth class of the same model decomposes A no second time
        model = harness.example_system(which)[0]
        report = check_observability(model, L_max=model.d)
        calls = []
        real = model_module.eig_abs_sorted
        monkeypatch.setattr(model_module, "eig_abs_sorted",
                            lambda a: calls.append(1) or real(a))
        certified.clear()
        stability_report = analyze_stability(model, P0=1e-2, k_max=10, report=report)
        assert calls == [1] and certified == []
        assert stability_report.classification == classify(model)
        lambda_min_asymptotics(model, 10, report=report)
        assert calls == [1]
        np.testing.assert_array_equal(stability_report.eigenvalues_A,
                                      eig_abs_sorted(model.A_at(1)))

    def test_example1_exponential_fit_positive(self, example1):
        report = analyze_stability(example1[0], P0=1e-2, k_max=40)
        assert report.classification == UNIFORMLY_ASYMPTOTICALLY_STABLE
        assert report.exp_fit is not None and report.exp_fit[1] > 0

    @pytest.mark.parametrize("which", ["example1", "example2"])
    def test_traces_match_the_exact_posterior(self, which, request, oracle, monkeypatch):
        # V(k, z(k)) = u^T P_k u and the symmetric-eigenvalue norms are at
        # least as accurate as the per-step psi_transition/lyapunov_value
        # fold and the per-matrix SVD norms, and take no SVD and no
        # factorization of a P_k
        model = request.getfixturevalue(which)[0]
        calls = []
        for owner, name in ((stability, "spd_solve"), (np.linalg, "svd"), (np.linalg, "norm")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, real=real, name=name, **kw: calls.append(name)
                                or real(*a, **kw))
        report = analyze_stability(model, P0=1e-2, k_max=40)
        assert calls == []
        monkeypatch.undo()

        p0 = 1e-2 * np.eye(model.d)
        covs = estimator.covariance_sequence(model, p0, 40)
        z = np.ones(model.d) / np.sqrt(model.d)
        fold = [lyapunov_value(covs[0], z)]
        for k in range(1, 41):
            z = psi_transition(covs[k], covs[k - 1]) @ z
            fold.append(lyapunov_value(covs[k], z))
        exact_p = oracle(model, p0, np.zeros(model.d), np.zeros((40, model.m)))[0]
        u = 100.0 * np.ones(model.d) / np.sqrt(model.d)
        exact_v = np.array([u @ p @ u for p in exact_p])
        exact_norm = np.array([np.linalg.eigvalsh(p)[-1] for p in exact_p])

        def worst(trace, exact):
            return np.max(np.abs(np.asarray(trace) - exact) / exact)

        assert worst(report.lyapunov_trace, exact_v) <= worst(fold, exact_v)
        assert worst(report.covariance_norm_trace, exact_norm) \
            <= worst([spectral_norm(p) for p in covs], exact_norm)
        p0_inv = spd_inverse(p0)
        np.testing.assert_allclose(
            report.exp_fit, exponential_fit([spectral_norm(p @ p0_inv) for p in covs]), rtol=1e-12)


def rotation_model(d, m, seed):
    """LTI rotation blocks whose radii straddle 1, hidden by a random orthogonal frame."""
    rng = np.random.default_rng(seed)
    blocks = np.zeros((d, d))
    for b in range(0, d, 2):
        r = rng.uniform(0.96, 0.99) if b % 4 == 0 else rng.uniform(1.01, 1.04)
        t = rng.uniform(0.1, np.pi - 0.1)
        blocks[b:b + 2, b:b + 2] = r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return SystemModel(q @ blocks @ q.T, rng.standard_normal((m, d)), 1e-2)


def stacked_psi_norms(covs, p0_inv, chunk=16):
    """sqrt(lambda_max(Psi^T Psi)), Psi = P_k P0^-1, in stacked chunks of 16 covariances."""
    return np.sqrt(np.concatenate([
        np.linalg.eigvalsh((c @ p0_inv).swapaxes(1, 2) @ (c @ p0_inv))[:, -1]
        for c in np.split(covs, range(chunk, len(covs), chunk))]))


class TestPsiNorms:
    """||Psi(k,0)|| = ||P_k|| / p for P0 = p I; the stacked products for any other P0."""

    MODELS = pytest.mark.parametrize("which", ["example1", "example2", "rotations"])

    @staticmethod
    def model(which, request):
        if which == "rotations":
            return rotation_model(16, 2, 7)
        return request.getfixturevalue(which)[0]

    @MODELS
    @pytest.mark.parametrize("form", ["scalar", "matrix"])
    def test_isotropic_prior_takes_no_psi_stack(self, which, form, request, monkeypatch):
        model, p, k_max = self.model(which, request), 1e-2, 40
        shapes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: shapes.append(np.shape(a)) or real(a, *args))
        report = analyze_stability(model, P0=p if form == "scalar" else p * np.eye(model.d),
                                   k_max=k_max)
        monkeypatch.undo()
        # two stacked eigvalsh besides _prior's check of P0: the covariances,
        # then the anchor-0 trace of the certificate up to d; none of Psi
        d = model.d
        assert [s for s in shapes if len(s) == 3] == [(k_max + 1, d, d), (d, d, d)]
        covs = estimator.covariance_sequence(model, p, k_max)
        np.testing.assert_array_equal(report.covariance_norm_trace,
                                      np.abs(np.linalg.eigvalsh(covs)).max(axis=1))
        p0_inv = spd_inverse(p * np.eye(model.d))
        for norms in ([spectral_norm(c @ p0_inv) for c in covs], stacked_psi_norms(covs, p0_inv)):
            np.testing.assert_allclose(report.exp_fit, exponential_fit(norms), rtol=1e-12)

    @MODELS
    @pytest.mark.parametrize("form", ["spd", "diagonal"])
    def test_other_priors_keep_the_stacked_norms(self, which, form, request):
        model, k_max = self.model(which, request), 40
        rng = np.random.default_rng(3)
        p0 = (1e-2 * random_spd(rng, model.d) if form == "spd"
              else np.diag(np.linspace(1e-2, 2e-2, model.d)))
        report = analyze_stability(model, P0=p0, k_max=k_max)
        covs = estimator.covariance_sequence(model, p0, k_max)
        expected = exponential_fit(stacked_psi_norms(covs, spd_inverse(covs[0])))
        np.testing.assert_array_equal(report.exp_fit, expected)

    def test_exact_zero_covariance_truncates_the_fit_where_it_did(self, example1, monkeypatch):
        # a covariance trace that reaches exact zero at k = 25 stops the fit
        # there, as the stacked products did
        model, k_max, p = example1[0], 40, 1e-2
        covs = estimator.covariance_sequence(model, p, k_max).copy()
        covs[25:] = 0.0
        monkeypatch.setattr(estimator, "covariance_sequence", lambda *args: covs)
        report = analyze_stability(model, P0=p, k_max=k_max)
        old = stacked_psi_norms(covs, spd_inverse(covs[0]))
        assert np.flatnonzero(old == 0.0)[0] == 25
        assert np.flatnonzero(report.covariance_norm_trace == 0.0)[0] == 25
        np.testing.assert_allclose(report.exp_fit, exponential_fit(old), rtol=1e-12)

    def test_norms_whose_square_underflows_stay_in_the_fit(self):
        # d = 1, A = 1e6: P_k, about 10^(-12 (k-1)), is exactly zero from k = 28, while
        # its square, which the stacked products form, underflows from k = 15
        model = lti([[1e6]], [[1.0]])
        report = analyze_stability(model, P0=1.0, k_max=40)
        covs = estimator.covariance_sequence(model, 1.0, 40)
        assert np.flatnonzero(stacked_psi_norms(covs, np.eye(1)) == 0.0)[0] == 15
        assert np.flatnonzero(report.covariance_norm_trace == 0.0)[0] == 28
        assert report.exp_fit == exponential_fit(report.covariance_norm_trace)
        np.testing.assert_allclose(report.exp_fit[1], 2.0 * np.log(1e6), rtol=1e-12)
