import dataclasses
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf

from isokal import estimator
from isokal._linalg import spd_inverse, spectral_norm, symmetrize
from isokal.estimator import batch_wls, gain_schedule, init, run, step, wls_prefixes
from isokal.harness import monte_carlo, simulate, trial_seed
from isokal.model import (HorizonError, NonFiniteError, SystemModel, load_model,
                          observed_evolution, transition)
from isokal.observability import gramian
from isokal.stability import analyze_stability
from test_cli import ltv_record_config
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
        pattern = (r"^Joseph and short-form covariance updates disagree at step 0: "
                   r"\|\|P_J - P_S\|\|_2 = (\S+) > (\S+)$")
        with pytest.raises(np.linalg.LinAlgError, match=pattern) as exc:
            step(init(model, x_hat0, p0), [0.1], model.R_at(0), model)
        gap, bound = (float(v) for v in re.match(pattern, str(exc.value)).groups())
        assert gap > bound >= estimator.JOSEPH_TOL

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
        with pytest.raises(np.linalg.LinAlgError, match="^covariance is not finite$"):
            estimator._check_joseph(p, np.full((3, 3), np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="^covariance is not finite at step 4$"):
            estimator._check_joseph(p, np.full((3, 3), np.nan), 4)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_rejected(self, example2, bad):
        model, _x0, x_hat0, p0, _ = example2
        with pytest.raises(ValueError, match=r"observation y\(0\) must be finite"):
            step(init(model, x_hat0, p0), [bad], model.R_at(0), model)

    def test_overflowed_observer_names_the_step(self, example2):
        # |eig(A)| = 1.5: H~_1753 leaves float64.  A step that advances to it
        # warns of nothing (filterwarnings = error), and the step that would
        # use it names it, as run's pass does
        model, _x0, x_hat0, p0, _ = example2
        states = run(model, x_hat0, p0, np.zeros((1753, 1)))
        last = states[-1]
        assert last.step == 1753 and not np.isfinite(last.H_tilde_next).all()
        stepped = step(states[-2], [0.0], model.R_at(1752), model)
        assert stepped.H_tilde_next.tobytes() == last.H_tilde_next.tobytes()
        for state in (last, stepped):
            with pytest.raises(NonFiniteError, match="observer H~ of step 1753 is not finite"):
                step(state, [0.0], model.R_at(1753), model)

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
        # the wide_lti workload's shape, d = 64 and m = 8
        cases.append((straddling_lti(), np.linspace(-1.0, 1.0, 64), np.full(64, 0.1),
                      np.eye(64)))
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


    def test_prefixes_past_the_normal_equations_match_the_exact_estimates(self, example2,
                                                                           oracle):
        # |eig(A)| = 1.5 and 0.5: cond_2(P0^-1 + O(k,0)) passes 1/eps at prefix
        # 48, where normal equations fail; the square-root information factor
        # only reaches cond 1/sqrt(eps) there, and its prefixes stay within
        # 1e-8 of the exact weighted least-squares estimates
        model, x0, x_hat0, p0, _ = example2
        obs = simulate(model, x0, 60, 3)
        exact = oracle(model, p0, x_hat0, obs)[1][48:]
        prefixes = np.array(list(wls_prefixes(model, x_hat0, p0, obs))[48:])
        gap = np.linalg.norm(prefixes - exact, axis=1) / (1.0 + np.linalg.norm(exact, axis=1))
        assert gap.max() <= 1e-8
        np.testing.assert_array_equal(batch_wls(model, x_hat0, p0, obs), prefixes[-1])

    def test_overflowed_sums_name_the_step(self, example2):
        model, _x0, x_hat0, p0, _ = example2
        first = wls_prefixes(model, x_hat0, p0, np.full((3, 1), 1e307))
        next(first)
        with pytest.raises(NonFiniteError, match=r"^square-root information of prefix 1 "
                                                 r"overflowed float64 at step 0$"):
            next(first)


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

    def test_joseph_covariances_are_exactly_symmetric(self, example1, example2, make_system):
        # the Joseph sum of two Gram products is symmetric bit for bit, with
        # no symmetrize step
        cases = [(example1[0], example1[3], 40), (example2[0], example2[3], 60),
                 (straddling_lti(), np.eye(64), 30)]
        cases += [(model, p0, 20) for model, _x0, _x_hat0, p0 in
                  (make_system(77, i) for i in range(4))]
        for model, p0, T in cases:
            h_tilde = estimator._walk(model, T)[0][:T]
            covs = estimator._joseph_schedule(model, estimator._prior(model, None, p0)[1],
                                              h_tilde)[1]
            np.testing.assert_array_equal(covs, np.swapaxes(covs, 1, 2))

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


class TestOverflow:
    """A filter pass whose observer or estimate leaves float64 names the step, with no warning."""

    @pytest.mark.parametrize("pass_", [
        lambda model, x0, x_hat0, p0: gain_schedule(model, p0, 1800),
        lambda model, x0, x_hat0, p0: run(model, x_hat0, p0, np.zeros((1800, 1))),
        lambda model, x0, x_hat0, p0: monte_carlo(model, x0, x_hat0, p0, 1800, 2, 1),
    ], ids=["gain_schedule", "run", "monte_carlo"])
    def test_observer_overflow_names_the_step(self, example2, pass_):
        # |eig(A)| = 1.5 takes H~_k past float64 at the step simulate names
        model, x0, x_hat0, p0, _ = example2
        with pytest.raises(NonFiniteError, match="step 1753 is not finite"):
            simulate(model, x0, 1800, 1)
        with pytest.raises(NonFiniteError, match="observer H~ of step 1753 is not finite"):
            pass_(model, x0, x_hat0, p0)

    def test_estimate_overflow_names_the_step(self):
        # H~_1 = 1e200 is finite, H~_1 x^_1 is not: the estimate of step 2 overflows
        model = scalar_model(a=1e200, h=1.0, sigma2=1.0)
        with pytest.raises(NonFiniteError, match="estimate at step 2 is not finite"):
            run(model, [1e200], 1e-300, np.zeros((2, 1)))

    def test_step_names_the_estimate_run_names(self):
        # A = -1 and y = 1e308: x^_1 is about 1e308 and H~_1 = -1, so the
        # innovation of step 2 overflows; step raises at that step, with
        # run's message and no warning (filterwarnings = error)
        model = SystemModel([[-1.0]], [[1.0]], 1e-6)
        obs = np.full((3, 1), 1e308)
        with pytest.raises(NonFiniteError) as from_run:
            run(model, [0.0], 1.0, obs)
        state = init(model, [0.0], 1.0)
        with pytest.raises(NonFiniteError) as from_step:
            for y in obs:
                state = step(state, y, model.R_at(state.step), model)
        assert state.step == 1
        assert str(from_step.value) == str(from_run.value) == \
            "estimate at step 2 is not finite: it overflowed float64"


def test_covariance_sequence_matches_run(example2):
    model, x0, x_hat0, p0, _ = example2
    covs = estimator.covariance_sequence(model, p0, 10)
    obs = simulate(model, x0, 10, 1)
    states = run(model, x_hat0, p0, obs)
    for c, s in zip(covs, states):
        np.testing.assert_array_equal(c, s.P)


def straddling_lti(d=64, m=8):
    """Seeded LTI model of the wide_lti workload's shape: d = 64, m = 8, sigma2 = 1e-2.

    Rotation blocks with radii alternating between 0.96-0.99 and 1.01-1.04,
    hidden by a random rotation; output i sees its own group of blocks.
    """
    rng = np.random.default_rng(6400)
    per = d // (2 * m)
    blocks, h = np.zeros((d, d)), 0.05 * rng.standard_normal((m, d))
    for b in range(0, d, 2):
        r = rng.uniform(0.96, 0.99) if b % 4 == 0 else rng.uniform(1.01, 1.04)
        theta = (b // 2 % per + 0.5 + rng.uniform(-0.1, 0.1)) * np.pi / per
        blocks[b:b + 2, b:b + 2] = r * np.array([[np.cos(theta), -np.sin(theta)],
                                                 [np.sin(theta), np.cos(theta)]])
        phase = rng.uniform(0.0, 2.0 * np.pi)
        h[b // (2 * per), b:b + 2] += [np.cos(phase), np.sin(phase)]
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return SystemModel(q @ blocks @ q.T, h @ q.T, 1e-2)


@st.composite
def filter_cases(draw):
    """An LTI or LTV model with d <= 6, a prior and T <= 60 observations.

    The singular values of each A (or A_k) spread around exp(log_radius),
    so H~_k may grow by up to 2.4 per step, and the prior spans 1e-4 to
    1e4, so the gate sees both well- and ill-conditioned passes.
    """
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, d))
    T = draw(st.integers(1, 60))
    ltv = draw(st.booleans())
    log_radius = draw(st.floats(-0.3, 0.7))
    p = 10.0 ** draw(st.floats(-4.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def orthogonal():
        return np.linalg.qr(rng.standard_normal((d, d)))[0]

    def dynamics():
        return orthogonal() * np.exp(log_radius + rng.uniform(-0.2, 0.2, d)) @ orthogonal()

    if ltv:
        g = rng.standard_normal((T, m, m))
        scale = 10.0 ** rng.uniform(-3.0, 0.0, (T, 1, 1))
        model = SystemModel(np.stack([dynamics() for _ in range(T - 1)] or [np.eye(d)]),
                            rng.standard_normal((T, m, d)),
                            scale * (np.eye(m) + g @ np.swapaxes(g, 1, 2)))
    else:
        model = SystemModel(dynamics(), rng.standard_normal((m, d)),
                            float(10.0 ** rng.uniform(-3.0, 0.0)))
    q = orthogonal()
    p0 = symmetrize(q * (p * rng.uniform(0.3, 1.0, d)) @ q.T)
    obs = simulate(model, rng.standard_normal(d), T, 5)
    return model, rng.standard_normal(d), p0, obs


class TestInformationForm:
    """The gate and the information form of the filter pass."""

    @given(case=filter_cases())
    @settings(max_examples=25)
    def test_admitted_passes_match_the_oracle_and_the_joseph_form(self, case, oracle):
        # Where the gate admits the information form, its covariances, gains
        # and estimates match the exact posterior and the Joseph form within
        # 2 (d + T) eps times the condition bound: each pass rounds once per
        # state dimension and once per step (the prefix sums, the Joseph
        # recursion and the estimate fold), and the 2 is for comparing two
        # rounded results.  The estimates are measured against the largest
        # estimate of the pass, the scale of the fold's absolute rounding.
        model, x_hat0, p0, obs = case
        T, d = len(obs), model.d
        schedule = gain_schedule(model, p0, T)
        joseph = estimator._joseph_schedule(model, symmetrize(p0), schedule.h_tilde)
        bound = schedule.cond_bound
        if not d * np.finfo(float).eps * bound <= estimator.JOSEPH_TOL:
            # the Joseph recursion runs, unchanged
            assert schedule.form == "joseph"
            np.testing.assert_array_equal(schedule.gain, joseph[0])
            np.testing.assert_array_equal(schedule.P, joseph[1])
            return
        assert schedule.form == "information"
        exact_p, exact_x = oracle(model, p0, x_hat0, obs)
        # the bound holds: N_0 <= N_k <= N_T
        w = np.linalg.eigvalsh(exact_p)
        assert np.all(w[:, -1] / w[:, 0] <= bound * (1.0 + 1e-9))
        exact_gain = np.stack([
            np.linalg.solve(model.R_at(k), schedule.h_tilde[k] @ exact_p[k + 1]).T
            for k in range(T)])
        x_hat = estimator._fold(schedule, x_hat0, obs)
        x_joseph = estimator._fold(
            estimator.GainSchedule(schedule.h_tilde, *joseph, "joseph", bound), x_hat0, obs)
        tol = 2 * (d + T) * np.finfo(float).eps * bound
        for got, references in ((schedule.P, (exact_p, joseph[1])),
                                (schedule.gain, (exact_gain, joseph[0]))):
            for want in references:
                gap = np.linalg.norm(got - want, axis=(1, 2))
                assert np.all(gap <= tol * np.linalg.norm(want, axis=(1, 2)))
        for want in (exact_x, x_joseph):
            gap = np.linalg.norm(x_hat - want, axis=1)
            assert np.all(gap <= tol * np.linalg.norm(want, axis=1).max())

    @pytest.mark.parametrize("case", ["example1", "example2", "wide_lti"])
    def test_ill_conditioned_passes_keep_the_joseph_bits(self, case, example1, example2):
        if case == "wide_lti":
            model, p0, T = straddling_lti(), np.eye(64), 100
        else:
            model, _x0, _x_hat0, p0, _ = example1 if case == "example1" else example2
            T = 40
        schedule = gain_schedule(model, p0, T)
        assert schedule.form == "joseph"
        assert model.d * np.finfo(float).eps * schedule.cond_bound > estimator.JOSEPH_TOL
        factors = model.noise_factors(T)
        P = p0
        for k, h in enumerate(schedule.h_tilde):
            gain, P = estimator._update(P, h, model.R_at(k), factors[k], k)
            assert gain.tobytes() == schedule.gain[k].tobytes()
            assert P.tobytes() == schedule.P[k + 1].tobytes()

    def test_prior_keeps_its_bits(self, example2):
        # a rounding-level asymmetric P0 enters as its symmetric part, bit for bit
        p0 = np.array([[1e-2, 5e-3], [5e-3 * (1.0 + 1e-13), 1e-2]])
        schedule = gain_schedule(example2[0], p0, 6)
        assert schedule.form == "information"
        np.testing.assert_array_equal(schedule.P[0], symmetrize(p0))

    def test_passes_at_the_gate_edge_pass_the_residual_check(self):
        # Priors whose spread puts d eps B within a factor 100 of JOSEPH_TOL:
        # every admitted pass must pass ||P_k N_k - I||_F <= JOSEPH_TOL and
        # match the Joseph form within 2 (d + T) eps B.
        rng = np.random.default_rng(1818)
        admitted = 0
        for _ in range(40):
            d, T = int(rng.integers(2, 7)), int(rng.integers(1, 30))
            m = int(rng.integers(1, d + 1))
            a = np.linalg.qr(rng.standard_normal((d, d)))[0] * np.exp(rng.uniform(-0.3, 0.3, d))
            model = SystemModel(a, rng.standard_normal((m, d)), float(10.0 ** rng.uniform(-3, 0)))
            spread = estimator.JOSEPH_TOL / (d * np.finfo(float).eps) * 10.0 ** rng.uniform(-2, 0)
            q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            p0 = symmetrize(q * np.geomspace(1.0, 1.0 / spread, d) @ q.T)
            schedule = gain_schedule(model, p0, T)
            if schedule.form == "joseph":
                continue
            admitted += 1
            joseph = estimator._joseph_schedule(model, p0, schedule.h_tilde)
            tol = 2 * (d + T) * np.finfo(float).eps * schedule.cond_bound
            for got, want in zip((schedule.gain, schedule.P), joseph):
                gap = np.linalg.norm(got - want, axis=(1, 2))
                assert np.all(gap <= tol * np.linalg.norm(want, axis=(1, 2)))
        assert admitted >= 20

    def test_long_ltv_pass_matches_the_exact_inverse(self):
        # An ltv_record-shaped pass (d = 8, m = 1, per-step R_k, T = 400,
        # P0 = I): P_k against a 40-digit inverse of N_k = P0^-1 + sum_{j<k}
        # H~_j^T R_j^-1 H~_j over the pass's own observers.  The worst error
        # measured is 1.1e-15, so the bound leaves a margin of 2.8.
        model, p0, T = load_model(ltv_record_config(d=8, T=400)), 1.0, 400
        schedule = gain_schedule(model, p0, T)
        assert schedule.form == "information"
        with mpmath.workdps(40):
            info = mpmath.eye(model.d) / mpmath.mpf(p0)
            for k in range(T + 1):
                if k in (1, 10, 100, 400):
                    exact = np.array(mpmath.inverse(info).tolist(), dtype=float)
                    assert relative_error(schedule.P[k], exact) <= 3e-15
                if k < T:
                    h = mpmath.matrix(schedule.h_tilde[k].tolist())
                    info += h.T * mpmath.inverse(mpmath.matrix(model.R_at(k).tolist())) * h

    def test_bound_of_an_overflowed_observer_is_not_finite(self, example2, monkeypatch):
        # the walk's overflowed observers make the bound inf, so the Joseph
        # recursion runs and names the step (TestOverflow), which the
        # information form's residual check would not
        model, _x0, _x_hat0, p0, _ = example2
        bounds, real = [], estimator._information_bound
        monkeypatch.setattr(estimator, "_information_bound",
                            lambda *args: bounds.append(real(*args)) or bounds[-1])
        with pytest.raises(NonFiniteError, match="observer H~ of step 1753 is not finite"):
            gain_schedule(model, p0, 1800)
        assert len(bounds) == 1 and not np.isfinite(bounds[0])

    def test_anisotropic_noise_is_gated_by_the_exact_trace(self, oracle):
        # Per-step R_k with eigenvalues about 1e-2 and 1e2, observers nearly
        # along the 1e2 direction: trace O(T,0) = ||W||_F^2 is about 1e4
        # times smaller than sum_k ||H~_k||_F^2 / lambda_min(R_k), so the
        # exact bound admits the information form where that floor bound
        # would not.  The worst error of P_k measured against the exact
        # posterior is 5.9e-13 (cond_2(N_k) up to 500); the bound is 2e-12.
        T, p0 = 20, 1e5
        c, s = np.cos(0.3), np.sin(0.3)
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        model = SystemModel(1.02 * np.array([[c, -s], [s, c]]),
                            np.array([[1.0, 0.5], [-1.0, -0.5 + 1e-3]]),
                            np.stack([q @ np.diag([1e-2 * (1.0 + 0.05 * k), 1e2]) @ q.T
                                      for k in range(T)]))
        schedule = gain_schedule(model, p0, T)
        floor_bound = p0 * (1.0 / p0 + sum(
            np.vdot(h, h) / np.linalg.eigvalsh(model.R_at(k))[0]
            for k, h in enumerate(schedule.h_tilde)))
        gate = estimator.JOSEPH_TOL / (model.d * np.finfo(float).eps)
        assert schedule.cond_bound <= gate < floor_bound
        assert schedule.form == "information"
        exact_p = oracle(model, p0 * np.eye(2), np.zeros(2), np.zeros((T, 2)))[0]
        for k in range(T + 1):
            assert relative_error(schedule.P[k], exact_p[k]) <= 2e-12
