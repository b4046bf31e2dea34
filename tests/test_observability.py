import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from isokal import observability
from isokal._linalg import spectral_norm, symmetrize
from isokal.harness import simulate
from isokal.model import HorizonError, NonFiniteError, SystemModel, observed_evolution_sequence
from isokal.observability import (
    UnobservableModelError,
    check_observability,
    gramian,
    information_prefixes,
    lambda_min_asymptotics,
)
from isokal.stability import analyze_stability
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
            rows = observed_evolution_sequence(model, L)[0]
            stacked = np.vstack(rows)
            weights = np.kron(np.eye(L), np.linalg.inv(model.R_at(0)))
            expected = stacked.T @ weights @ stacked
            got = gramian(model, 0, L)
            assert spectral_norm(got - expected) <= 1e-9 * spectral_norm(expected)


class TestInformationPrefixes:
    def test_anchor_stack_matches_one_anchor_calls(self):
        # anchors 2..10 of a horizon-12 model: a window of length k fits
        # while anchor + k <= 12, so anchors drop off the end of the stack
        model, x0, _xh, _p0 = per_step_noise_ltv()
        obs = simulate(model, x0, 12, seed=3)
        items = list(information_prefixes(model, 5, start=2, anchors=9, observations=obs[2:]))
        assert [len(info) for info, _ in items] == [9, 9, 8, 7, 6]
        for i in range(9):
            one = information_prefixes(model, min(5, 10 - i), start=2 + i,
                                       observations=obs[2 + i:])
            for (info, score), (info_1, score_1) in zip(items, one):
                assert len(info_1) == 1
                np.testing.assert_array_equal(info[i], info_1[0])
                np.testing.assert_array_equal(score[i], score_1[0])

    def test_window_past_the_horizon_raises(self):
        model = per_step_noise_ltv()[0]
        assert gramian(model, 4, 8).shape == (3, 3)
        with pytest.raises(HorizonError):
            gramian(model, 4, 9)
        with pytest.raises(HorizonError):
            gramian(model, 12, 1)


class TestInformationOverflow:
    """Information that leaves float64 raises NonFiniteError naming the step, with no warning."""

    @pytest.mark.parametrize("analysis, start", [
        (lambda model: check_observability(model, 1800), 0),
        (lambda model: lambda_min_asymptotics(model, 1800), 0),
        (lambda model: gramian(model, 5, 900), 5),
    ], ids=["check_observability", "lambda_min_asymptotics", "gramian"])
    def test_example2_overflows_at_step_859(self, example2, analysis, start):
        # |eig(A)| = 1.5 and sigma2 = 1e-6: O(a+860, a) is the first Gramian past float64
        model = example2[0]
        assert np.isfinite(gramian(model, start, 859)).all()
        with pytest.raises(NonFiniteError, match=f"window anchored at {start} is not finite "
                                                 f"at step {start + 859}"):
            analysis(model)

    def test_ltv_stack_names_the_first_overflowed_window(self):
        # the anchor-0 windows up to L = 3 stay finite; the all-anchor stack
        # takes in the huge observer H_3 first as the first term of anchor 3
        rows = np.ones((6, 1, 2))
        rows[3] = 1e200
        model = SystemModel(np.stack([np.eye(2)] * 5), rows, 1.0)
        assert np.isfinite(gramian(model, 0, 3)).all()
        with pytest.raises(NonFiniteError, match="anchored at 3 is not finite at step 3"):
            check_observability(model, 3)

    def test_score_overflow(self, example2):
        observations = np.full((3, 1), 1e307)
        with pytest.raises(NonFiniteError, match="anchored at 0 is not finite at step 0"):
            list(information_prefixes(example2[0], 3, observations=observations))

    def test_finite_windows_whose_sum_overflows_pass(self):
        # three windows of information 8.1e307 each: the screen's sum of the
        # diagonals overflows, and the per-window scan finds every one finite
        model = SystemModel(np.stack([np.eye(2)] * 3), np.full((4, 1, 2), [[9e153, 0.0]]), 1.0)
        (info, _), = information_prefixes(model, 1, anchors=3)
        assert np.isfinite(info).all() and sum(np.trace(info, axis1=1, axis2=2).tolist()) == np.inf

    def test_finite_information_is_screened_by_one_scalar(self, example2, monkeypatch):
        scans = []
        monkeypatch.setattr(observability, "_raise_overflow", lambda *args: scans.append(args))
        check_observability(per_step_noise_ltv()[0], 6)
        lambda_min_asymptotics(example2[0], 40)
        assert scans == []


def ltv_fixture(case):
    """LTV models (and one LTI model with per-step R) for the certificate tests."""
    rng = np.random.default_rng(606)
    if case == "ltv":
        return per_step_noise_ltv()[0]
    if case == "lti_per_step_r":
        g = rng.standard_normal((10, 1, 1))
        return SystemModel(np.eye(3) + 0.3 * rng.standard_normal((3, 3)),
                           rng.standard_normal((1, 3)), 0.05 + g @ g.transpose(0, 2, 1))
    rows = {
        # anchor 0 sees both coordinates by L = 2, every later anchor only one
        "ltv_blind": [[0.0, 1.0]] + [[1.0, 0.0]] * 7,
        # alternating until a blind last window
        "ltv_blind_tail": [[0.0, 1.0], [1.0, 0.0]] * 3 + [[1.0, 0.0]] * 2,
        # the second coordinate is never seen
        "ltv_hidden": [[1.0, 0.0]] * 8,
    }[case]
    return SystemModel(np.stack([np.eye(2)] * 7), np.array(rows)[:, None, :], 1.0)


LTV_FIXTURES = ["ltv", "lti_per_step_r", "ltv_blind", "ltv_blind_tail", "ltv_hidden"]


class TestCheckObservability:
    @pytest.mark.parametrize("rho_tol", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    def test_rho_tol_must_be_finite_and_positive(self, example2, rho_tol):
        # the one place a tolerance enters; the analyses read it off the report
        with pytest.raises(ValueError, match="rho_tol must be finite and > 0"):
            check_observability(example2[0], 3, rho_tol=rho_tol)

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
        model = ltv_fixture(case)
        rep = check_observability(model, L_max=6, rho_tol=rho_tol)
        assert (rep.verdict, rep.L, rep.rho) == self.brute_force(model, 6, rho_tol)

    @staticmethod
    def oracle_window_minima(a_seq, h_seq, r_seq, horizon, k_max):
        """min over anchors of lambda_min(O(k0+L, k0)), L = 1..k_max, in numpy alone.

        Every Gramian is summed from explicit transition products and
        inv(R_j); a_seq[j-1] advances step j-1 -> j.
        """
        minima = []
        for L in range(1, k_max + 1):
            lams = []
            for k0 in range(horizon - L + 1):
                gram = np.zeros((a_seq.shape[1],) * 2)
                for j in range(k0, k0 + L):
                    phi = np.eye(a_seq.shape[1])
                    for i in range(k0 + 1, j + 1):
                        phi = a_seq[i - 1] @ phi
                    h_tilde = h_seq[j] @ phi
                    gram += h_tilde.T @ np.linalg.inv(r_seq[j]) @ h_tilde
                lams.append(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0])
            minima.append(min(lams))
        return minima

    @given(data=st.data(), kind=st.sampled_from(["ltv", "lti_per_step_r"]),
           d=st.integers(1, 4), horizon=st.integers(2, 8), L_max=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1), log_tol=st.floats(-1.0, 1.0))
    def test_certificate_matches_numpy_oracle(self, data, kind, d, horizon, L_max, seed,
                                              log_tol):
        m = data.draw(st.integers(1, d), label="m")
        rng = np.random.default_rng(seed)

        def frame():
            q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
            return q1 @ np.diag(rng.uniform(0.8, 1.25, d)) @ q2.T

        g = rng.standard_normal((horizon, m, m))
        r_seq = 0.1 * (g @ g.transpose(0, 2, 1) + np.eye(m))
        if kind == "ltv":
            a_seq = np.stack([frame() for _ in range(horizon)])
            h_seq = rng.standard_normal((horizon, m, d))
            model = SystemModel(a_seq, h_seq, r_seq)
        else:
            a, h = frame(), rng.standard_normal((m, d))
            a_seq, h_seq = np.broadcast_to(a, (horizon, d, d)), np.broadcast_to(h, (horizon, m, d))
            model = SystemModel(a, h, r_seq)
        assert model.horizon == horizon
        rho_tol = 10.0 ** log_tol
        k_max = min(L_max, horizon)
        minima = self.oracle_window_minima(a_seq, h_seq, r_seq, horizon, k_max)
        assume(all(abs(lam - rho_tol) > 1e-6 * rho_tol for lam in minima))

        rep = check_observability(model, L_max, rho_tol=rho_tol)
        passing = [L for L, lam in enumerate(minima, start=1) if lam >= rho_tol]
        if passing:
            assert (rep.verdict, rep.L) == ("Observable", passing[0])
            assert rep.rho == pytest.approx(minima[passing[0] - 1], rel=1e-9)
        else:
            assert (rep.verdict, rep.L, rep.rho) == ("NotObservableUpTo", k_max, None)

    def test_json_keys(self, example2):
        doc = check_observability(example2[0], L_max=3).to_json_dict()
        # the growth keys of the analyze report come from GramianGrowth, not from here
        assert set(doc) == {"verdict", "L", "rho", "lambda_min_trace"}


class TestCertificateScreen:
    """Windows that anchor 0 already fails are not decomposed; the result keeps its bits."""

    @staticmethod
    def unscreened(model, L_max, rho_tol):
        """Verdict, L, rho and trace with every window's anchor stack decomposed."""
        k_max = min(L_max, model.horizon)
        trace = np.array([np.linalg.eigvalsh(info[0])[0]
                          for info, _ in information_prefixes(model, k_max)])
        windows = information_prefixes(model, k_max, anchors=model.horizon)
        for L, (stack, _) in enumerate(windows, start=1):
            window_min = np.linalg.eigvalsh(stack)[:, 0].min()
            if window_min >= rho_tol:
                return "Observable", L, float(window_min), trace
        return "NotObservableUpTo", k_max, None, trace

    @staticmethod
    def tolerances(model, L_max):
        """1e-9 and every anchor-0 lambda_min as rho_tol, each met exactly at its window."""
        trace = check_observability(model, L_max).lambda_min_trace
        return [1e-9] + [float(t) for t in trace if t > 0.0]

    def assert_unchanged(self, model, L_max, rho_tol, monkeypatch):
        stacks = []
        real = observability._lambda_min

        def counted(gramians):
            if gramians.ndim == 3:
                stacks.append(len(gramians))
            return real(gramians)

        monkeypatch.setattr(observability, "_lambda_min", counted)
        rep = check_observability(model, L_max, rho_tol=rho_tol)
        monkeypatch.setattr(observability, "_lambda_min", real)
        verdict, L, rho, trace = self.unscreened(model, L_max, rho_tol)
        assert (rep.verdict, rep.L) == (verdict, L)
        assert rep.rho == rho
        np.testing.assert_array_equal(rep.lambda_min_trace, trace)
        # one stacked decomposition per window length that anchor 0 passes
        assert len(stacks) == int(np.sum(trace[:L] >= rho_tol))

    @staticmethod
    def assert_row0_is_the_anchor0_window(model, k_max):
        stacked = information_prefixes(model, k_max, anchors=model.horizon)
        for (stack, _), (one, _) in zip(stacked, information_prefixes(model, k_max),
                                        strict=True):
            np.testing.assert_array_equal(stack[0], one[0])

    @pytest.mark.parametrize("case", LTV_FIXTURES)
    def test_fixtures_match_the_unscreened_scan(self, case, monkeypatch):
        model = ltv_fixture(case)
        for L_max in (1, 3, 6, model.horizon):
            for rho_tol in self.tolerances(model, L_max):
                self.assert_unchanged(model, L_max, rho_tol, monkeypatch)
        self.assert_row0_is_the_anchor0_window(model, model.horizon)

    def test_anchor0_passes_where_a_later_anchor_fails(self, monkeypatch):
        model = ltv_fixture("ltv_blind")
        rep = check_observability(model, L_max=4)
        assert rep.lambda_min_trace[1] >= 1e-9 and rep.verdict == "NotObservableUpTo"
        self.assert_unchanged(model, 4, 1e-9, monkeypatch)

    @given(kind=st.sampled_from(["ltv", "lti_per_step_r"]), d=st.integers(1, 4),
           m=st.integers(1, 4), horizon=st.integers(2, 9), L_max=st.integers(1, 9),
           seed=st.integers(0, 2 ** 32 - 1), blind=st.booleans())
    def test_drawn_models_match_the_unscreened_scan(self, kind, d, m, horizon, L_max, seed,
                                                    blind):
        m = min(m, d)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((horizon, m, m))
        r_seq = 0.1 * (g @ g.transpose(0, 2, 1) + np.eye(m))
        if kind == "ltv":
            h_seq = rng.standard_normal((horizon, m, d))
            if blind:
                # from step 1 on the last coordinate is hidden, so later anchors fail
                h_seq[1:, :, -1] = 0.0
            a_seq = np.stack([np.linalg.qr(rng.standard_normal((d, d)))[0]
                              for _ in range(horizon)])
            if blind:
                a_seq[:] = np.eye(d)
            model = SystemModel(a_seq, h_seq, r_seq)
        else:
            model = SystemModel(np.eye(d) + 0.3 * rng.standard_normal((d, d)),
                                rng.standard_normal((m, d)), r_seq)
        with pytest.MonkeyPatch.context() as monkeypatch:
            for rho_tol in self.tolerances(model, L_max):
                self.assert_unchanged(model, L_max, rho_tol, monkeypatch)
        self.assert_row0_is_the_anchor0_window(model, min(L_max, horizon))


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

    def test_unresolved_tail_is_named_not_fitted(self, example1):
        # example1's trace loses float64 resolution before k = 60: the
        # first non-positive entry of the fitted tail (k = 31..60) is named
        model = example1[0]
        trace = np.array([observability._lambda_min(info[0])
                          for info, _ in information_prefixes(model, 60)])
        k = 31 + int(np.flatnonzero(trace[30:] <= 0.0)[0])
        with pytest.raises(ValueError, match=f"at k = {k} is not positive"):
            lambda_min_asymptotics(model, K=60)

    @pytest.mark.parametrize("K, points", [(2, 1), (3, 2), (4, 2), (5, 3)])
    def test_short_tail_is_not_fitted(self, example1, K, points):
        # a tail half under 3 points is no fit (and for K = 2, whose tail is
        # k = 2 alone, no RankWarning, which filterwarnings = error would
        # raise); K = 5 fits k = 3..5
        if points >= 3:
            assert lambda_min_asymptotics(example1[0], K=K).beta > 0
        else:
            with pytest.raises(ValueError, match=rf"k = 1\.\.{K}, holds {points} point"):
                lambda_min_asymptotics(example1[0], K=K)

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


def stability_class(model, report):
    """analyze_stability's classification; an unobservable model raises, as classify does."""
    classification = analyze_stability(model, k_max=10, report=report).classification
    if classification is None:
        raise UnobservableModelError("analyze_stability left the classification None")
    return classification


REPORT_READERS = pytest.mark.parametrize("analysis", [
    lambda model, report: lambda_min_asymptotics(model, 10, report=report),
    stability_class,
], ids=["lambda_min_asymptotics", "analyze_stability"])


@pytest.fixture()
def certified(monkeypatch):
    """Records every fresh certificate of the model: ("check", L_max, rho_tol) or ("scan", d).

    A scan is an accumulation of d information terms outside
    check_observability, which no analysis makes: every fresh certificate
    is a check (the growth trace of lambda_min_asymptotics accumulates
    K != d terms in these tests).
    """
    calls, inside = [], []
    real_check, real_prefixes = observability.check_observability, observability.information_prefixes

    def check(model, L_max, rho_tol=1e-9):
        calls.append(("check", L_max, rho_tol))
        inside.append(1)
        try:
            return real_check(model, L_max, rho_tol)
        finally:
            inside.pop()

    def prefixes(model, count, *args, **kwargs):
        if not inside and count == model.d:
            calls.append(("scan", count))
        return real_prefixes(model, count, *args, **kwargs)

    monkeypatch.setattr(observability, "check_observability", check)
    monkeypatch.setattr(observability, "information_prefixes", prefixes)
    return calls


class TestReportReuse:
    """The report carries its certificate and its tolerance to every LTI analysis."""

    @REPORT_READERS
    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_covering_report_is_reused(self, example1, certified, analysis, tol):
        model = example1[0]
        for L_max in (model.d, model.d + 3):
            report = check_observability(model, L_max=L_max, rho_tol=tol)
            certified.clear()
            analysis(model, report)
            assert certified == []

    @REPORT_READERS
    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_short_report_recertifies_at_its_tolerance(self, example1, certified, analysis, tol):
        # a fully LTI model and one with per-step noise both go through
        # check_observability, whose call shows the tolerance
        for model in (example1[0], ltv_fixture("lti_per_step_r")):
            report = check_observability(model, L_max=model.d - 1, rho_tol=tol)
            certified.clear()
            analysis(model, report)
            assert certified == [("check", model.d, tol)]

    @REPORT_READERS
    def test_window_longer_than_d_is_a_certificate(self, example1, certified, analysis):
        # a tolerance met first by a window longer than d: the report's
        # Observable is the certificate (for an LTI model the kernel of
        # O(k,0) is fixed from k = d on), while a short report re-checked at
        # d at that tolerance fails and the default 1e-9 passes
        model = example1[0]
        trace = check_observability(model, L_max=model.d + 2).lambda_min_trace
        assert 0.0 < trace[model.d - 1] < trace[model.d]
        tol = float(np.sqrt(trace[model.d - 1] * trace[model.d]))
        report = check_observability(model, L_max=model.d + 2, rho_tol=tol)
        assert report.observable and report.L == model.d + 1
        short = check_observability(model, L_max=model.d - 1, rho_tol=tol)
        certified.clear()
        analysis(model, report)
        assert certified == []
        with pytest.raises(UnobservableModelError):
            analysis(model, short)
        assert certified == [("check", model.d, tol)]
        analysis(model, None)
        assert certified == [("check", model.d, tol), ("check", model.d, 1e-9)]

    @pytest.mark.parametrize("which", ["example1", "example2"])
    @pytest.mark.parametrize("L_max", [4, 8, 20, 30])
    def test_report_trace_heads_the_growth_trace(self, which, L_max, request, monkeypatch):
        # the report's lambda_min trace is reused bit for bit; only the
        # Gramians past it are decomposed
        model, K = request.getfixturevalue(which)[0], 20
        fresh = lambda_min_asymptotics(model, K).lambda_min_trace
        report = check_observability(model, L_max=L_max)
        calls = []
        real = observability._lambda_min
        monkeypatch.setattr(observability, "_lambda_min", lambda g: calls.append(1) or real(g))
        growth = lambda_min_asymptotics(model, K, report=report)
        np.testing.assert_array_equal(growth.lambda_min_trace, fresh)
        assert len(calls) == max(K - len(report.lambda_min_trace), 0)

    @pytest.mark.parametrize("which", ["example1", "example2", "lti_per_step_r"])
    @pytest.mark.parametrize("L_max", [1, 4, 7])
    @pytest.mark.parametrize("K", [5, 6, 7, 9])
    @pytest.mark.parametrize("replaced", [False, True], ids=["report", "replaced"])
    def test_growth_trace_continues_the_report_accumulator(self, which, L_max, K, replaced,
                                                           request, monkeypatch):
        # K below, at and above the report's L_max (K >= 5 fits example1's
        # growth); a report with L_max < d certifies afresh and the trace
        # continues from that certificate.  Either way the trace has the bits
        # of one uninterrupted pass, and each information term is added once.
        model = (ltv_fixture(which) if which == "lti_per_step_r"
                 else request.getfixturevalue(which)[0])
        fresh = np.array([np.linalg.eigvalsh(info[0])[0]
                          for info, _ in information_prefixes(model, K)])
        report = check_observability(model, L_max=L_max)
        if replaced:
            report = dataclasses.replace(report, rho=float("nan"))
        terms = []
        real = observability._accumulate

        def counted(*args, **kwargs):
            for acc in real(*args, **kwargs):
                terms.append(acc.terms)
                yield acc

        monkeypatch.setattr(observability, "_accumulate", counted)
        growth = lambda_min_asymptotics(model, K, report=report)
        head = min(model.d, model.horizon or model.d) if L_max < model.d \
            else len(report.lambda_min_trace)
        first = 0 if L_max < model.d else head
        assert terms == list(range(first + 1, max(K, head) + 1))
        monkeypatch.undo()
        np.testing.assert_array_equal(growth.lambda_min_trace, fresh)
        np.testing.assert_array_equal(lambda_min_asymptotics(model, K).lambda_min_trace, fresh)

    @REPORT_READERS
    def test_unobservable_report_raises(self, certified, analysis):
        m = lti(np.eye(2), np.array([[1.0, 0.0]]))
        report = check_observability(m, L_max=5)
        assert not report.observable
        certified.clear()
        with pytest.raises(UnobservableModelError):
            analysis(m, report)
        assert certified == []


class TestFirstWindowScan:
    """Without a covering report a model is certified afresh by check_observability up to d."""

    @staticmethod
    def certifies(model, report=None):
        try:
            observability._require_observable(model, report)
        except UnobservableModelError:
            return False
        return True

    @pytest.mark.parametrize("case", ["example1", "example2", "unobservable", "rotation",
                                      "random"])
    def test_verdict_equals_check_observability(self, case, example1, example2):
        models = {
            "example1": lambda: example1[0],
            "example2": lambda: example2[0],
            "unobservable": lambda: lti(np.diag([2.0, 0.5, 1.0]), [[1.0, 1.0, 0.0]]),
            "rotation": lambda: lti([[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0]]),
            "random": lambda: lti(np.random.default_rng(3).standard_normal((5, 5)),
                                  np.random.default_rng(4).standard_normal((1, 5)), 1e-2),
        }
        model = models[case]()
        trace = check_observability(model, L_max=model.d + 2).lambda_min_trace
        # each window's lambda_min as the tolerance, met exactly at that window
        tolerances = [1e-9, 1e-3, 1e3] + [float(t) for t in trace if t > 0.0]
        for tol in tolerances:
            rep = check_observability(model, L_max=model.d, rho_tol=tol)
            # a one-window report does not cover d, so it lends only its tolerance
            short = check_observability(model, L_max=1, rho_tol=tol)
            assert self.certifies(model, short) == (rep.observable and rep.L <= model.d)
        rep = check_observability(model, L_max=model.d)
        assert self.certifies(model) == (rep.observable and rep.L <= model.d)
