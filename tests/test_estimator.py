import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf

from isokal import estimator
from isokal._linalg import spd_inverse, spectral_norm, symmetrize
from isokal.estimator import batch_wls, gain_schedule, init, run, step, wls_prefixes
from isokal.harness import monte_carlo, simulate, trial_seed
from isokal.model import HorizonError, SystemModel, observed_evolution, transition
from isokal.observability import gramian
from isokal.stability import analyze_stability
from test_harness import per_step_noise_ltv


def scalar_model(a=2.0, h=1.0, sigma2=1.0):
    return SystemModel(np.array([[a]]), np.array([[h]]), sigma2)


def wide_lti(d=64, m=8):
    """Seeded LTI model with orthogonal dynamics, so H~_k stays O(1) at any k."""
    rng = np.random.default_rng(6464)
    a = np.linalg.qr(rng.standard_normal((d, d)))[0]
    model = SystemModel(a, rng.standard_normal((m, d)), 0.1)
    return model, rng.standard_normal(d), np.zeros(d), 1.0


def reference_update(P, h_tilde, R):
    """The update kernel as first written, kept as a bitwise oracle.

    eigh PSD split with np.clip, scipy's cho_factor/cho_solve on the
    innovation covariance, an explicit I - K H~ and the two-SVD
    Joseph/short-form check on every update.
    """
    def sym(m):
        return 0.5 * (m + m.T)

    R = np.asarray(R, dtype=float)
    w, u = np.linalg.eigh(sym(P))
    assert w[0] >= -estimator.PSD_SLACK * max(float(np.trace(P)), 1e-300)
    w = np.clip(w, 0.0, None)
    f = u * np.sqrt(w)
    hf = h_tilde @ f
    sigma = sym(hf @ hf.T + R)
    p_ht = (u * w) @ (h_tilde @ u).T
    gain = cho_solve(cho_factor(sym(sigma), lower=True), p_ht.T).T
    mix = np.eye(P.shape[0]) - gain @ h_tilde
    mf = mix @ f
    kl = gain @ np.linalg.cholesky(sym(R))
    p_next = sym(mf @ mf.T + kl @ kl.T)
    gap = np.linalg.norm(p_next - sym(mix @ P), 2)
    assert gap <= 1e-8 * (1.0 + np.linalg.norm(p_next, 2))
    return gain, p_next


class TestInit:
    def test_example1_prior_is_accepted(self, example1):
        model, _x0, x_hat0, p0, _ = example1
        s = init(model, x_hat0, p0)
        assert s.step == 0
        np.testing.assert_array_equal(s.x_hat, x_hat0)
        np.testing.assert_array_equal(s.P, p0)
        np.testing.assert_array_equal(s.H_tilde_next, model.H_at(0))

    def test_zero_covariance_rejected(self, example1):
        model = example1[0]
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            init(model, np.zeros(4), np.zeros((4, 4)))

    def test_dimension_mismatch_rejected(self, example1):
        model = example1[0]
        with pytest.raises(ValueError, match="length 3"):
            init(model, np.zeros(3), np.eye(4))

    def test_scalar_p0_and_default_guess(self, example2):
        model = example2[0]
        s = init(model, None, 0.25)
        np.testing.assert_array_equal(s.x_hat, np.zeros(2))
        np.testing.assert_array_equal(s.P, 0.25 * np.eye(2))

    def test_asymmetric_p0_rejected(self, example2):
        model = example2[0]
        with pytest.raises(np.linalg.LinAlgError, match="symmetric"):
            init(model, None, np.array([[1.0, 0.5], [0.0, 1.0]]))

    # Every entry point that takes a prior reads it through one check.
    PRIOR_ENTRY_POINTS = {
        "init": lambda model, x0, x_hat0, p0, obs: init(model, x_hat0, p0),
        "run": lambda model, x0, x_hat0, p0, obs: run(model, x_hat0, p0, obs),
        "gain_schedule": lambda model, x0, x_hat0, p0, obs: gain_schedule(model, p0, 5),
        "monte_carlo": lambda model, x0, x_hat0, p0, obs: monte_carlo(
            model, x0, x_hat0, p0, T=5, trials=3, seed=1),
        "batch_wls": lambda model, x0, x_hat0, p0, obs: batch_wls(model, x_hat0, p0, obs),
        "analyze_stability": lambda model, x0, x_hat0, p0, obs: analyze_stability(
            model, p0, k_max=5),
    }
    BAD_PRIORS = {
        "asymmetric": ([[1e-2, 5e-3], [0.0, 1e-2]], np.linalg.LinAlgError,
                       "P0 is not symmetric"),
        "indefinite": ([[1e-2, 0.0], [0.0, -1e-2]], np.linalg.LinAlgError,
                       "P0 is not positive definite (lambda_min=-1.000e-02)"),
        "non_finite": ([[1e-2, 0.0], [0.0, np.nan]], ValueError, "P0 must be finite"),
        "wrong_shape": (1e-2 * np.eye(3), ValueError, "P0 has shape (3, 3), expected (2, 2)"),
    }

    @pytest.mark.parametrize("bad", list(BAD_PRIORS))
    @pytest.mark.parametrize("entry", list(PRIOR_ENTRY_POINTS))
    def test_prior_contract_is_shared(self, example2, entry, bad):
        model, x0, x_hat0, _p0, _ = example2
        p0, error, message = self.BAD_PRIORS[bad]
        obs = simulate(model, x0, 5, 1)
        with pytest.raises(Exception) as exc:
            self.PRIOR_ENTRY_POINTS[entry](model, x0, x_hat0, np.array(p0), obs)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_rounding_level_asymmetry_is_accepted_and_symmetrized(self, example2):
        model, x0, x_hat0, _p0, _ = example2
        p0 = np.array([[1e-2, 5e-3], [5e-3 * (1.0 + 1e-13), 1e-2]])
        s = init(model, x_hat0, p0)
        np.testing.assert_array_equal(s.P, symmetrize(p0))
        obs = simulate(model, x0, 5, 1)
        np.testing.assert_array_equal(gain_schedule(model, p0, 5).P[0], s.P)
        xb = batch_wls(model, x_hat0, p0, obs)
        assert np.linalg.norm(run(model, x_hat0, p0, obs)[-1].x_hat - xb) <= 1e-9


class TestGain:
    def test_scalar_half(self):
        g = gain_schedule(scalar_model(), 1.0, 1).gain[0]
        np.testing.assert_allclose(g, [[0.5]], rtol=1e-15)

    def test_zero_covariance_gives_zero_gain(self):
        # bypasses init's strict-PD check on purpose: a zero P is a valid
        # internal limit of the update and gives a zero gain
        model = scalar_model()
        s = dataclasses.replace(init(model, [0.3], 1.0), P=np.zeros((1, 1)))
        s1 = step(s, [1.0], model.R_at(0), model)
        np.testing.assert_array_equal(s1.x_hat, [0.3])
        np.testing.assert_array_equal(s1.P, [[0.0]])

    def test_example2_first_gain(self, example2):
        model, _x0, _x_hat0, p0, _ = example2
        g = gain_schedule(model, p0, 1).gain[0]
        # scalar evaluation: K_1 = [0, p/(p + sigma^2)] with p = 1e-2
        expected = np.array([[0.0], [1e-2 / (1e-2 + 1e-6)]])
        assert g[0, 0] == 0.0
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_defining_identity(self, make_system):
        for i in range(5):
            model, x0, x_hat0, p0, = make_system(424, i)
            obs = simulate(model, x0, 10, trial_seed(424, 100 + i))
            states = run(model, x_hat0, p0, obs)
            sched = gain_schedule(model, p0, 10)
            for s in states[:-1]:
                r = model.R_at(s.step)
                lhs = sched.gain[s.step] @ (s.H_tilde_next @ s.P @ s.H_tilde_next.T + r)
                rhs = s.P @ s.H_tilde_next.T
                assert spectral_norm(lhs - rhs) <= 1e-10 * max(spectral_norm(rhs), 1e-12)

    def test_corrupted_covariance_detected(self):
        model = SystemModel(np.eye(2), np.eye(2), 1.0)
        s = dataclasses.replace(init(model, None, 1.0), P=np.diag([1.0, -1.0]))
        with pytest.raises(np.linalg.LinAlgError, match="positive semidefinite"):
            step(s, np.zeros(2), np.eye(2), model)

    def test_joseph_short_form_disagreement_raises(self, example2, scaled_gain):
        # a gain that is not the minimizer makes the two covariance forms differ
        model, _x0, x_hat0, p0, _ = example2
        with pytest.raises(np.linalg.LinAlgError, match="Joseph and short-form"):
            step(init(model, x_hat0, p0), [0.1], model.R_at(0), model)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_innovation_covariance_raises(self, example2):
        model, _x0, x_hat0, p0, _ = example2
        s = dataclasses.replace(init(model, x_hat0, p0), H_tilde_next=np.array([[np.inf, 1.0]]))
        with pytest.raises(ValueError, match="innovation covariance is not finite"):
            step(s, [0.1], model.R_at(0), model)

    def test_indefinite_innovation_covariance_raises(self, example2):
        # an indefinite R is no precision loss: the message names the step only
        model, _x0, x_hat0, _p0, _ = example2
        s = init(model, x_hat0, 1e-6)
        with pytest.raises(np.linalg.LinAlgError,
                           match="^innovation covariance is not positive definite at step 0$"):
            step(s, [0.1], -np.eye(1), model)

    def test_exhausted_precision_is_named(self, example1):
        # example1 past about 100 steps: eps ||H~ F||_F^2 swamps R = 1e-4 I
        model, x0, x_hat0, p0, _ = example1
        pattern = (r"^innovation covariance is not positive definite at step (\d+): float64 "
                   r"precision is exhausted \(eps \|\|H~ F\|\|_F\^2 = (\S+) >= "
                   r"lambda_min\(R\) = 1\.000e-04\)$")
        with pytest.raises(np.linalg.LinAlgError, match=pattern) as exc:
            gain_schedule(model, p0, 300)
        k, rounding = re.match(pattern, str(exc.value)).groups()
        k = int(k)
        assert 100 < k < 300 and float(rounding) >= 1e-4
        # the step named is the first update that fails, and run fails there too
        gain_schedule(model, p0, k)
        with pytest.raises(np.linalg.LinAlgError, match=f"at step {k}: float64 precision"):
            run(model, x_hat0, p0, simulate(model, x0, 300, 5))


def spectral_check_fails(p_joseph, p_short):
    """The Joseph/short-form bound evaluated with two SVDs, as an oracle."""
    gap = np.linalg.norm(p_joseph - p_short, 2)
    return bool(gap > estimator.JOSEPH_TOL * (1.0 + np.linalg.norm(p_joseph, 2)))


class TestJosephCheck:
    """The Frobenius screen of ``_check_joseph`` never changes the spectral decision.

    With P = I at d = 64 and a gap c I, ||gap||_2 = c and ||gap||_F = 8c:
    the spectral bound is c <= 2e-8, the screen passes only c <= 1.25e-9.
    """

    @pytest.fixture()
    def svd_calls(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return spectral_norm(m)

        monkeypatch.setattr(estimator, "spectral_norm", counted)
        return calls

    def test_screen_passes_without_svd(self, svd_calls):
        p = np.eye(64)
        estimator._check_joseph(p, p - 1e-9 * np.eye(64))
        assert svd_calls == []

    def test_just_below_the_spectral_bound_passes_the_exact_test(self, svd_calls):
        p = np.eye(64)
        p_short = p - 1.9e-8 * np.eye(64)
        assert not spectral_check_fails(p, p_short)
        estimator._check_joseph(p, p_short)
        assert len(svd_calls) == 2

    def test_just_above_the_spectral_bound_raises(self, svd_calls):
        p = np.eye(64)
        p_short = p - 2.1e-8 * np.eye(64)
        assert spectral_check_fails(p, p_short)
        with pytest.raises(np.linalg.LinAlgError, match="Joseph and short-form"):
            estimator._check_joseph(p, p_short)

    def test_screen_divides_the_covariance_norm_by_sqrt_d(self):
        # ||P||_2 = 1e4, ||P||_F = 8e4: a rank-one gap of 2e-4 breaks the
        # spectral bound of about 1e-4 while staying under 0.5e-8 ||P||_F
        p = 1e4 * np.eye(64)
        for c, fails in ((2e-4, True), (0.5e-4, False)):
            p_short = p.copy()
            p_short[0, 0] -= c
            assert spectral_check_fails(p, p_short) == fails
            if fails:
                with pytest.raises(np.linalg.LinAlgError, match="Joseph and short-form"):
                    estimator._check_joseph(p, p_short)
            else:
                estimator._check_joseph(p, p_short)

    def test_overflowing_norms_fall_back_to_the_exact_test(self):
        # ||P||_F^2 and ||gap||_F^2 overflow to inf; the screen must not pass
        p = 1e160 * np.eye(4)
        p_short = p - 1e157 * np.eye(4)
        assert spectral_check_fails(p, p_short)
        with pytest.raises(np.linalg.LinAlgError, match="Joseph and short-form"):
            estimator._check_joseph(p, p_short)

    def test_non_finite_gap_raises(self):
        p = np.eye(3)
        with pytest.raises(np.linalg.LinAlgError):
            estimator._check_joseph(p, np.full((3, 3), np.nan))

    @given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           log_p=st.floats(-12.0, 8.0), log_ratio=st.floats(-2.0, 2.0),
           low_rank=st.booleans())
    def test_decision_equals_the_spectral_oracle(self, d, seed, log_p, log_ratio, low_rank):
        # gaps drawn around the spectral bound, for covariances of any scale
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        p = symmetrize(q @ np.diag(10.0 ** log_p * rng.uniform(0.0, 1.0, size=d)) @ q.T)
        cols = 1 if low_rank else d
        g = rng.standard_normal((d, cols)) @ rng.standard_normal((cols, d))
        bound = estimator.JOSEPH_TOL * (1.0 + np.linalg.norm(p, 2))
        p_short = p - g * (10.0 ** log_ratio * bound / np.linalg.norm(g, 2))
        try:
            estimator._check_joseph(p, p_short)
            raised = False
        except np.linalg.LinAlgError:
            raised = True
        assert raised == spectral_check_fails(p, p_short)


def relative_error(p, exact):
    return np.linalg.norm(p - exact, 2) / np.linalg.norm(exact, 2)


class TestKernelBitwise:
    """A P that Cholesky cannot factor takes the eigen-split with the reference kernel's bits."""

    def test_rounding_level_negative_eigenvalue_is_clipped(self):
        # lambda_min = -1e-14 is inside the PSD_SLACK budget and is clipped to 0
        q = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]
        p = symmetrize(q @ np.diag([-1e-14, 0.5, 1.0]) @ q.T)
        assert np.linalg.eigvalsh(p)[0] < 0.0
        h, r = np.array([[1.0, 0.5, -0.2]]), np.array([[0.1]])
        gain, p_next = estimator._update(p, h, r)
        ref_gain, ref_p = reference_update(p, h, r)
        np.testing.assert_array_equal(gain, ref_gain)
        np.testing.assert_array_equal(p_next, ref_p)

    @pytest.mark.parametrize("p", [np.zeros((3, 3)), np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])],
                             ids=["zero", "rank_one"])
    def test_singular_covariance_equals_reference(self, p):
        # v v^T with v = (1, 2, 3) factors exactly up to a zero second pivot
        assert dpotrf(p, lower=1)[1] > 0
        h, r = np.array([[1.0, 0.5, -0.2]]), np.array([[0.1]])
        gain, p_next = estimator._update(p, h, r)
        ref_gain, ref_p = reference_update(p, h, r)
        np.testing.assert_array_equal(gain, ref_gain)
        np.testing.assert_array_equal(p_next, ref_p)

    @pytest.mark.parametrize("p", [np.full((3, 3), np.nan), np.diag([1.0, np.nan, 1.0]),
                                   np.triu(np.full((3, 3), np.nan), 1) + np.eye(3)],
                             ids=["all_nan", "one_nan", "upper_nan"])
    def test_nan_covariance_raises_a_typed_error(self, p):
        # upper_nan: Cholesky leaves the upper triangle unread, so the NaN
        # reaches the Joseph check, whose LinAlgError is a ValueError
        with pytest.raises(ValueError, match="^covariance is not finite$"):
            estimator._update(p, np.array([[1.0, 0.5, -0.2]]), np.array([[0.1]]))


class TestKernelAccuracy:
    """gain_schedule and run against the exact posterior covariance.

    Each case is also folded through ``reference_update`` (the eigen-split
    kernel): the filter's worst relative error must be no larger, and its
    covariances at k <= 10 must be exact to 1e-12.  On these runs P_k stays
    positive definite, so the eigen-split fallback never runs.
    """

    @pytest.fixture()
    def fallbacks(self, monkeypatch):
        calls = []
        real = estimator._psd_split

        def counted(P):
            calls.append(P.shape)
            return real(P)

        monkeypatch.setattr(estimator, "_psd_split", counted)
        return calls

    @pytest.mark.parametrize("case", ["example1", "example2", "per_step_ltv"])
    def test_covariances_match_the_exact_posterior(self, case, example1, example2, oracle,
                                                   fallbacks):
        if case == "example1":
            (model, x0, x_hat0, p0, _), T = example1, 40
        elif case == "example2":
            (model, x0, x_hat0, p0, _), T = example2, 40
        else:
            (model, x0, x_hat0, p0), T = per_step_noise_ltv(), 12
        sched = gain_schedule(model, p0, T)
        obs = simulate(model, x0, T, 12)
        states = run(model, x_hat0, p0, obs)
        assert fallbacks == []
        exact_p, exact_x = oracle(model, p0, x_hat0, obs)
        ref_p = [states[0].P]
        for k in range(T):
            ref_p.append(reference_update(ref_p[-1], states[k].H_tilde_next, model.R_at(k))[1])
        errors = [relative_error(sched.P[k], exact_p[k]) for k in range(T + 1)]
        ref_errors = [relative_error(ref_p[k], exact_p[k]) for k in range(T + 1)]
        assert max(errors) <= max(ref_errors)
        assert max(errors[:11]) <= 1e-12
        for k, s in enumerate(states):
            np.testing.assert_array_equal(s.P, sched.P[k])
            # the estimate is off by a small fraction of the exact posterior std
            std = np.sqrt(np.linalg.eigvalsh(exact_p[k])[-1])
            assert np.linalg.norm(s.x_hat - exact_x[k]) <= 1e-3 * std

    def test_wide_lti_matches_the_normal_equations(self, fallbacks):
        # d = 64: orthogonal dynamics keep P_k well conditioned, so float64
        # normal equations are an accurate reference
        (model, x0, x_hat0, p0), T = wide_lti(), 20
        sched = gain_schedule(model, p0, T)
        obs = simulate(model, x0, T, 12)
        states = run(model, x_hat0, p0, obs)
        assert fallbacks == []
        info, score = np.eye(model.d) / p0, x_hat0 / p0
        r_inv = np.linalg.inv(model.R_at(0))
        for k, h in enumerate(sched.h_tilde):
            info = info + h.T @ r_inv @ h
            score = score + h.T @ r_inv @ obs[k]
            assert relative_error(sched.P[k + 1], np.linalg.inv(info)) <= 1e-10
            exact_x = np.linalg.solve(info, score)
            assert np.linalg.norm(states[k + 1].x_hat - exact_x) <= 1e-10 * np.linalg.norm(exact_x)


class TestStep:
    def test_zero_innovation_keeps_estimate(self, example2):
        model, _x0, x_hat0, p0, _ = example2
        s0 = init(model, x_hat0, p0)
        y = s0.H_tilde_next @ s0.x_hat
        s1 = step(s0, y, model.R_at(0), model)
        np.testing.assert_array_equal(s1.x_hat, s0.x_hat)
        assert np.trace(s1.P) < np.trace(s0.P)

    def test_scalar_hand_values(self):
        model = scalar_model(a=2.0, h=1.0, sigma2=1.0)
        s0 = init(model, [0.0], 1.0)
        s1 = step(s0, [1.0], model.R_at(0), model)
        assert s1.step == 1
        np.testing.assert_allclose(s1.x_hat, [0.5], rtol=1e-15)
        np.testing.assert_allclose(s1.P, [[0.5]], rtol=1e-15)
        # observer advanced one dynamics step: H~_1 = H A = 2
        np.testing.assert_allclose(s1.H_tilde_next, [[2.0]], rtol=1e-15)

    def test_noiseless_run_recovers_truth(self, make_system):
        # overwhelming data weight: the prior's pull must vanish
        for i in range(6):
            model, x0, x_hat0, _p0 = make_system(77, i)
            x0 = x0 / np.linalg.norm(x0)
            weighted = SystemModel(model.A_at(1), model.H_at(0), 1e-15)
            obs = simulate(weighted, x0, 25, 0, noiseless=True)
            states = run(weighted, x_hat0, np.eye(model.d), obs)
            g = np.zeros((model.d, model.d))
            for k in range(1, 26):
                g = g + states[k - 1].H_tilde_next.T @ states[k - 1].H_tilde_next / 1e-15
                w = np.linalg.eigvalsh(np.eye(model.d) + symmetrize(g))
                if k >= model.d and w[-1] / w[0] <= 1e8:
                    assert np.linalg.norm(states[k].x_hat - x0) <= 1e-6

    def test_ltv_observers_match_direct_products(self):
        # the carried A(k,0) multiplies in the order transition() does, so
        # the observers agree with the from-scratch products bit for bit
        model, x0, x_hat0, p0 = per_step_noise_ltv()
        states = run(model, x_hat0, p0, simulate(model, x0, model.horizon, 4))
        for k, s in enumerate(states[:-1]):
            np.testing.assert_array_equal(s.H_tilde_next, observed_evolution(model, k))
            np.testing.assert_array_equal(s.phi, transition(model, k, 0))
        assert states[-1].H_tilde_next is None

    def test_non_finite_inputs_rejected(self, example2):
        model, _x0, x_hat0, p0, _ = example2
        with pytest.raises(ValueError, match="x_hat0 must be finite"):
            init(model, [np.nan, 0.0], p0)
        with pytest.raises(ValueError, match="P0 must be finite"):
            init(model, x_hat0, np.inf)
        obs = np.array([[0.1], [np.nan], [0.2]])
        with pytest.raises(ValueError, match="observations must be finite; row 1"):
            run(model, x_hat0, p0, obs)
        with pytest.raises(ValueError, match="observations must be finite"):
            batch_wls(model, x_hat0, p0, obs)

    def test_beyond_horizon_rejected(self):
        m = SystemModel(np.stack([np.eye(2)]), np.stack([np.eye(2), np.eye(2)]),
                        np.stack([np.eye(2), np.eye(2)]))
        assert m.horizon == 2
        states = run(m, None, 1.0, np.zeros((2, 2)))
        assert states[-1].H_tilde_next is None
        with pytest.raises(HorizonError):
            step(states[-1], np.zeros(2), np.eye(2), m)


class TestRun:
    @pytest.mark.parametrize("n_h, n_r", [(2, 2), (3, 3)], ids=["noise_ends", "dynamics_end"])
    def test_past_the_horizon_raises(self, n_h, n_r):
        # horizon 2 either way; the third observation has no R_2, or no A_2
        m = SystemModel(np.stack([np.eye(2)]), np.stack([np.eye(2)] * n_h),
                        np.stack([np.eye(2)] * n_r))
        assert m.horizon == 2
        with pytest.raises(HorizonError):
            run(m, None, 1.0, np.zeros((3, 2)))

    def test_empty_observations(self, example1):
        model, _x0, x_hat0, p0, _ = example1
        states = run(model, x_hat0, p0, [])
        assert len(states) == 1 and states[0].step == 0

    def test_example1_forty_steps_trace_decreases(self, example1):
        model, x0, x_hat0, p0, _ = example1
        obs = simulate(model, x0, 40, 2024)
        states = run(model, x_hat0, p0, obs)
        traces = np.array([np.trace(s.P) for s in states])
        assert traces[-1] < traces[0]
        assert np.all(np.diff(traces) < 0.0)

    def test_state_invariants(self, make_system):
        for i in range(4):
            model, x0, x_hat0, p0 = make_system(11, i)
            obs = simulate(model, x0, 20, trial_seed(11, i))
            for s in run(model, x_hat0, p0, obs):
                assert np.max(np.abs(s.P - s.P.T)) <= 1e-12 * max(np.max(np.abs(s.P)), 1e-300)
                assert np.linalg.eigvalsh(s.P)[0] >= -1e-12 * np.trace(s.P)


class TestCovarianceAlgebra:
    def test_inverse_identity_against_gramian(self, make_system):
        # P_k^-1 - P_0^-1 must equal the anchored information accumulation,
        # computed independently by the observability module
        for i in range(6):
            model, x0, x_hat0, p0 = make_system(99, i)
            obs = simulate(model, x0, 20, trial_seed(99, i))
            states = run(model, x_hat0, p0, obs)
            p0_inv = spd_inverse(p0)
            for k in (1, 5, 10, 20):
                pk_inv = spd_inverse(states[k].P)
                g = gramian(model, 0, k)
                err = spectral_norm(pk_inv - p0_inv - g)
                assert err <= 1e-8 * spectral_norm(pk_inv)

    def test_monotone_covariances(self, make_system):
        for i in range(6):
            model, x0, x_hat0, p0 = make_system(31, i)
            obs = simulate(model, x0, 25, trial_seed(31, i))
            states = run(model, x_hat0, p0, obs)
            budget = 1e-10 * np.trace(p0)
            for prev, cur in zip(states[:-1], states[1:]):
                assert np.linalg.eigvalsh(cur.P - prev.P)[-1] <= budget

    def test_joseph_and_short_form_agree(self, make_system):
        for i in range(4):
            model, x0, x_hat0, p0 = make_system(47, i)
            obs = simulate(model, x0, 20, trial_seed(47, i))
            states = run(model, x_hat0, p0, obs)
            sched = gain_schedule(model, p0, 20)
            for prev, cur in zip(states[:-1], states[1:]):
                k_gain = sched.gain[prev.step]
                short = symmetrize((np.eye(model.d) - k_gain @ prev.H_tilde_next) @ prev.P)
                assert spectral_norm(cur.P - short) <= 1e-8 * spectral_norm(cur.P)


class TestBatchWls:
    def test_prior_only(self, example1):
        model, _x0, x_hat0, p0, _ = example1
        np.testing.assert_allclose(batch_wls(model, x_hat0, p0, []), x_hat0, rtol=1e-14)

    def test_scalar_hand_value(self):
        model = scalar_model(a=1.0, h=1.0, sigma2=1.0)
        assert batch_wls(model, [0.0], 1.0, [[1.0]]) == pytest.approx(0.5, rel=1e-15)

    def test_matches_recursion(self, make_system):
        for i in range(20):
            model, x0, x_hat0, p0 = make_system(2026, i)
            obs = simulate(model, x0, 30, trial_seed(2026, i))
            states = run(model, x_hat0, p0, obs)
            for k in (1, 7, 15, 30):
                xb = batch_wls(model, x_hat0, p0, obs[:k])
                dev = np.linalg.norm(states[k].x_hat - xb)
                assert dev <= 1e-8 * (1.0 + np.linalg.norm(xb))

    def test_prefixes_match_normal_equations(self, make_system):
        # every prefix against the normal equations assembled with numpy
        cases = [make_system(515, i) for i in range(6)] + [per_step_noise_ltv()]
        for model, x0, x_hat0, p0 in cases:
            n = min(20, model.horizon or 20)
            obs = simulate(model, x0, n, 6)
            lhs, rhs = np.linalg.inv(p0), np.linalg.solve(p0, x_hat0)
            prefixes = list(wls_prefixes(model, x_hat0, p0, obs))
            assert len(prefixes) == n + 1
            for k, x in enumerate(prefixes):
                expected = np.linalg.solve(lhs, rhs)
                assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)
                if k < n:
                    h, r_inv = observed_evolution(model, k), np.linalg.inv(model.R_at(k))
                    lhs = lhs + h.T @ r_inv @ h
                    rhs = rhs + h.T @ r_inv @ obs[k]
            np.testing.assert_array_equal(batch_wls(model, x_hat0, p0, obs), prefixes[-1])

    def test_ltv_matches_recursion(self):
        rng = np.random.default_rng(5)
        a_seq = np.stack([np.eye(2) + 0.3 * rng.standard_normal((2, 2)) for _ in range(8)])
        h_seq = np.stack([rng.standard_normal((1, 2)) for _ in range(8)])
        r_seq = np.stack([np.array([[0.05 + 0.01 * t]]) for t in range(8)])
        model = SystemModel(a_seq, h_seq, r_seq)
        x0 = rng.standard_normal(2)
        obs = simulate(model, x0, 8, 9)
        states = run(model, None, 0.5, obs)
        xb = batch_wls(model, None, 0.5, obs)
        assert np.linalg.norm(states[-1].x_hat - xb) <= 1e-9 * (1.0 + np.linalg.norm(xb))


class TestGainSchedule:
    def test_matches_run_step_by_step(self, example1):
        model, x0, x_hat0, p0, _ = example1
        T = 15
        sched = estimator.gain_schedule(model, p0, T)
        assert sched.h_tilde.shape == (T, 2, 4)
        assert sched.gain.shape == (T, 4, 2)
        assert sched.P.shape == (T + 1, 4, 4)
        obs = simulate(model, x0, T, 8)
        states = run(model, x_hat0, p0, obs)
        for k in range(T):
            np.testing.assert_array_equal(sched.h_tilde[k], states[k].H_tilde_next)
            # step's update x + K (y - H~ x), with the schedule's gain
            x = states[k].x_hat
            innovation = obs[k] - states[k].H_tilde_next @ x
            np.testing.assert_array_equal(x + sched.gain[k] @ innovation, states[k + 1].x_hat)
        for k in range(T + 1):
            np.testing.assert_array_equal(sched.P[k], states[k].P)

    def test_arrays_are_read_only(self, example2):
        sched = estimator.gain_schedule(example2[0], 1e-2, 3)
        for arr in (sched.h_tilde, sched.gain, sched.P):
            assert not arr.flags.writeable

    def test_zero_steps_is_the_prior(self, example2):
        sched = estimator.gain_schedule(example2[0], 0.25, 0)
        assert sched.gain.shape == (0, 2, 1)
        np.testing.assert_array_equal(sched.P, [0.25 * np.eye(2)])

    def test_invalid_prior_rejected(self, example2):
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            estimator.gain_schedule(example2[0], -1.0, 5)

    def test_ltv_horizon_enforced(self):
        model = SystemModel(np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 3), 0.1)
        assert estimator.gain_schedule(model, 1.0, 3).P.shape == (4, 2, 2)
        with pytest.raises(HorizonError):
            estimator.gain_schedule(model, 1.0, 4)


def test_covariance_sequence_matches_run(example2):
    model, x0, x_hat0, p0, _ = example2
    covs = estimator.covariance_sequence(model, p0, 10)
    obs = simulate(model, x0, 10, 1)
    states = run(model, x_hat0, p0, obs)
    for c, s in zip(covs, states):
        np.testing.assert_array_equal(c, s.P)
