import numpy as np
import pytest

from isokal._linalg import spectral_norm, symmetrize
from isokal.model import SystemModel, observed_evolution_sequence
from isokal.observability import (
    UnobservableModelError,
    check_observability,
    gramian,
    lambda_min_asymptotics,
)
from test_harness import per_step_noise_ltv


def lti(a, h, sigma2=1.0):
    return SystemModel(np.asarray(a, dtype=float), np.asarray(h, dtype=float), sigma2)


class TestGramian:
    def test_identity_single_term(self):
        m = lti(np.eye(2), np.eye(2))
        np.testing.assert_allclose(gramian(m, 0, 1), np.eye(2), rtol=1e-14)

    def test_example2_two_terms(self, example2):
        # H^T H + (HA)^T (HA) weighted by 1/sigma^2, expanded by hand
        model = example2[0]
        expected = 1e6 * (np.array([[0.0, 0.0], [0.0, 1.0]])
                          + np.array([[0.25, -0.5], [-0.5, 1.0]]))
        np.testing.assert_allclose(gramian(model, 0, 2), expected, rtol=1e-12)

    def test_empty_window_is_zero(self, example1):
        np.testing.assert_array_equal(gramian(example1[0], 0, 0), np.zeros((4, 4)))

    def test_shifted_window_uses_relative_transitions(self):
        rng = np.random.default_rng(8)
        a = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        m = lti(a, rng.standard_normal((2, 3)), 0.5)
        # O(k0+L, k0) for LTI does not depend on k0
        np.testing.assert_allclose(gramian(m, 4, 3), gramian(m, 0, 3), rtol=1e-10)

    def test_matches_stacked_weighted_form(self, make_system):
        # assemble the block row-stack and the block-diagonal weight
        # explicitly and compare with the accumulated Gramian
        for i in range(6):
            model, _x0, _xh, _p0 = make_system(888, i)
            L = 8
            rows = list(observed_evolution_sequence(model, L))
            stacked = np.vstack(rows)
            weights = np.kron(np.eye(L), np.linalg.inv(model.R_at(0)))
            expected = stacked.T @ weights @ stacked
            got = gramian(model, 0, L)
            assert spectral_norm(got - expected) <= 1e-9 * spectral_norm(expected)


class TestCheckObservability:
    def test_full_observation_needs_one_step(self):
        rng = np.random.default_rng(1)
        a = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        m = lti(a, np.eye(3), 0.25)
        rep = check_observability(m, L_max=1)
        assert rep.observable and rep.L == 1
        assert rep.rho >= np.linalg.eigvalsh(np.eye(3) / 0.25)[0] - 1e-9

    def test_example2_needs_two_steps(self, example2):
        rep = check_observability(example2[0], L_max=5)
        assert rep.verdict == "Observable"
        assert rep.L == 2
        # quadratic-formula eigenvalue of the hand-expanded 2-step Gramian
        expected_rho = 1e6 * (2.25 - np.sqrt(2.25 ** 2 - 4 * 0.25)) / 2.0
        assert rep.rho == pytest.approx(expected_rho, rel=1e-10)

    def test_hidden_coordinate_is_not_observable(self):
        m = lti(np.eye(2), np.array([[1.0, 0.0]]))
        rep = check_observability(m, L_max=6)
        assert rep.verdict == "NotObservableUpTo"
        assert rep.L == 6 and rep.rho is None
        assert not rep.observable

    def test_lambda_min_trace_monotone(self, make_system):
        for i in range(5):
            model, _x0, _xh, _p0 = make_system(303, i)
            rep = check_observability(model, L_max=15)
            tr = rep.lambda_min_trace
            assert np.all(np.diff(tr) >= -1e-9 * np.maximum(tr[1:], 1e-300))

    def test_ltv_windows_all_verified(self):
        # observation alternates coordinates: every 2-window is full rank
        a_seq = np.stack([np.eye(2)] * 5)
        h_seq = np.stack([np.array([[1.0, 0.0]]) if t % 2 == 0 else np.array([[0.0, 1.0]])
                          for t in range(6)])
        m = SystemModel(a_seq, h_seq, 1.0)
        rep = check_observability(m, L_max=4)
        assert rep.observable and rep.L == 2

    def test_ltv_bad_window_detected(self):
        # after step 0 only the first coordinate is ever seen, so windows
        # anchored past 0 never regain rank
        h_seq = np.stack([np.array([[0.0, 1.0]])] + [np.array([[1.0, 0.0]])] * 5)
        m = SystemModel(np.stack([np.eye(2)] * 5), h_seq, 1.0)
        rep = check_observability(m, L_max=4)
        assert rep.verdict == "NotObservableUpTo"

    @staticmethod
    def brute_force(model, L_max, rho_tol):
        """Verdict, L and rho from one from-scratch Gramian per (anchor, L)."""
        horizon = model.horizon
        k_max = min(L_max, horizon)
        for L in range(1, k_max + 1):
            rho = min(float(np.linalg.eigvalsh(gramian(model, k0, L))[0])
                      for k0 in range(horizon - L + 1))
            if rho >= rho_tol:
                return "Observable", L, rho
        return "NotObservableUpTo", k_max, None

    @pytest.mark.parametrize("case, rho_tol", [
        ("ltv", 1e-9), ("ltv", 40.0), ("lti_per_step_r", 1e-9), ("lti_per_step_r", 0.05),
        ("ltv_blind", 1e-9), ("ltv_blind_tail", 1e-9),
    ])
    def test_windowed_certificate_matches_brute_force(self, case, rho_tol):
        rng = np.random.default_rng(606)
        if case == "ltv":
            model = per_step_noise_ltv()[0]
        elif case == "lti_per_step_r":
            g = rng.standard_normal((10, 1, 1))
            model = SystemModel(np.eye(3) + 0.3 * rng.standard_normal((3, 3)),
                                rng.standard_normal((1, 3)), 0.05 + g @ g.transpose(0, 2, 1))
        else:
            # blind after step 0, or alternating until a blind last window
            rows = ([[0.0, 1.0]] + [[1.0, 0.0]] * 7 if case == "ltv_blind"
                    else [[0.0, 1.0], [1.0, 0.0]] * 3 + [[1.0, 0.0]] * 2)
            model = SystemModel(np.stack([np.eye(2)] * 7), np.array(rows)[:, None, :], 1.0)
        rep = check_observability(model, L_max=6, rho_tol=rho_tol)
        assert (rep.verdict, rep.L, rep.rho) == self.brute_force(model, 6, rho_tol)

    def test_json_keys(self, example2):
        doc = check_observability(example2[0], L_max=3).to_json_dict()
        for key in ("verdict", "L", "rho", "lambda_min_trace", "growth_class", "beta_fit"):
            assert key in doc


class TestGrowthClassification:
    def test_doubling_dynamics_geometric_series(self):
        m = lti(2.0 * np.eye(2), np.eye(2))
        growth = lambda_min_asymptotics(m, K=12)
        assert growth.growth_class == "Unbounded"
        expected = np.cumsum(4.0 ** np.arange(12))
        np.testing.assert_allclose(growth.lambda_min_trace, expected, rtol=1e-12)
        # the tail slope of log((4^k - 1)/3) approaches log 4
        assert growth.beta == pytest.approx(np.log(4.0), rel=1e-4)

    def test_contracting_dynamics_converges(self):
        m = lti(0.5 * np.eye(2), np.eye(2))
        growth = lambda_min_asymptotics(m, K=20)
        assert growth.growth_class == "BoundedLimit"
        assert growth.converged
        assert growth.limit == pytest.approx(1.0 / (1.0 - 0.25), rel=1e-9)

    def test_example2_bounded_plateau(self, example2):
        growth = lambda_min_asymptotics(example2[0], K=20)
        assert growth.growth_class == "BoundedLimit"
        assert growth.limit > 0
        tr = growth.lambda_min_trace
        # float64 cannot certify 1e-9 here (cond(O) ~ 1e9 by k=20); the
        # plateau itself is still sharp
        assert abs(tr[-1] - tr[-2]) <= 1e-5 * tr[-1]

    def test_example1_unbounded_with_positive_rate(self, example1):
        growth = lambda_min_asymptotics(example1[0], K=30)
        assert growth.growth_class == "Unbounded"
        assert growth.beta is not None and growth.beta > 0

    def test_unit_magnitude_band_undetermined(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues on the circle
        m = lti(rot, np.eye(2))
        growth = lambda_min_asymptotics(m, K=10)
        assert growth.growth_class == "Undetermined"

    def test_unobservable_rejected(self):
        m = lti(np.eye(2), np.array([[1.0, 0.0]]))
        with pytest.raises(UnobservableModelError):
            lambda_min_asymptotics(m, K=10)

    def test_ltv_rejected(self):
        m = SystemModel(np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 3), 1.0)
        with pytest.raises(ValueError, match="LTI"):
            lambda_min_asymptotics(m, K=3)

    def test_normal_dynamics_closed_form(self):
        # for A = U diag(lam) U^T with orthogonal U and H = R = I the
        # anchored Gramian diagonalizes in U, so lambda_min is the smallest
        # of the per-eigenvalue geometric sums
        rng = np.random.default_rng(12)
        for _ in range(5):
            d = int(rng.integers(2, 6))
            u = np.linalg.qr(rng.standard_normal((d, d)))[0]
            lam = rng.uniform(0.4, 2.0, size=d)
            m = lti(symmetrize(u @ np.diag(lam) @ u.T), np.eye(d))
            growth_trace = lambda_min_asymptotics(m, K=10).lambda_min_trace \
                if np.abs(lam).min() > 1 + 1e-9 or np.abs(lam).max() < 1 - 1e-9 \
                else check_observability(m, L_max=10).lambda_min_trace
            ks = np.arange(10)
            sums = np.array([[np.sum(li ** (2 * np.arange(k + 1))) for li in lam]
                             for k in ks])
            expected = sums.min(axis=1)
            np.testing.assert_allclose(growth_trace[:10], expected, rtol=1e-8)
