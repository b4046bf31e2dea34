import csv
from pathlib import Path

import numpy as np
import pytest

from isokal import estimator, harness
from isokal._linalg import symmetrize
from isokal.harness import (
    EXAMPLE_STEPS,
    example_system,
    monte_carlo,
    read_observations_csv,
    reproduce_example,
    simulate,
    trial_seed,
    write_csv,
    write_estimates_csv,
    write_observations_csv,
)
from isokal.model import (HorizonError, SystemModel, observed_evolution,
                          observed_evolution_sequence)


def lti(a, h, sigma2=1.0):
    return SystemModel(np.asarray(a, dtype=float), np.asarray(h, dtype=float), sigma2)


class TestSimulate:
    def test_noiseless_is_exact(self, example2):
        model, x0, _xh, _p0, _ = example2
        obs = simulate(model, x0, 6, seed=123, noiseless=True)
        for k in range(6):
            np.testing.assert_array_equal(obs[k], observed_evolution(model, k) @ x0)

    def test_same_seed_bitwise_identical(self, example1):
        model, x0, _xh, _p0, _ = example1
        a = simulate(model, x0, 25, seed=99)
        b = simulate(model, x0, 25, seed=99)
        assert a.tobytes() == b.tobytes()
        c = simulate(model, x0, 25, seed=100)
        assert a.tobytes() != c.tobytes()

    def test_noise_covariance_matches_r(self):
        # 1e5 draws of the correlated 2-d noise; sample covariance within
        # 2% of R in spectral norm
        r = np.array([[2.0, 0.3], [0.3, 0.5]])
        n = 100_000
        model = SystemModel(np.eye(2), np.eye(2), np.broadcast_to(r, (n, 2, 2)))
        draws = simulate(model, np.zeros(2), n, seed=31415)
        emp = draws.T @ draws / n
        assert np.linalg.norm(emp - r, 2) <= 0.02 * np.linalg.norm(r, 2)

    def test_bad_arguments(self, example2):
        model, x0, _xh, _p0, _ = example2
        with pytest.raises(ValueError):
            simulate(model, x0, 0, seed=1)
        with pytest.raises(ValueError):
            simulate(model, np.zeros(3), 5, seed=1)
        with pytest.raises(ValueError, match="x0 must be finite"):
            simulate(model, [np.nan, 1.0], 5, seed=1)

    @pytest.mark.parametrize("noiseless", [False, True])
    def test_overflow_raises_at_first_non_finite_step(self, example2, noiseless):
        # |eig| = 1.5: the observer row passes float64's range at step 1753
        model, x0, _xh, _p0, _ = example2
        with pytest.raises(ValueError, match="step 1753 is not finite: the dynamics overflowed"):
            simulate(model, x0, 3000, seed=1, noiseless=noiseless)
        assert np.all(np.isfinite(simulate(model, x0, 1753, seed=1, noiseless=noiseless)))


    @pytest.mark.parametrize("system", ["example1", "example2", "ltv"])
    def test_noiseless_adds_no_noise_term(self, system, request):
        # bitwise against the observers applied to x0 one at a time
        if system == "ltv":
            (model, x0, _xh, _p0), T = per_step_noise_ltv(), 12
        else:
            (model, x0, _xh, _p0, _), T = request.getfixturevalue(system), EXAMPLE_STEPS
        ref = np.array([h @ x0 for h in observed_evolution_sequence(model, T)])
        assert simulate(model, x0, T, seed=1, noiseless=True).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("noiseless", [False, True])
    def test_past_the_horizon_raises(self, noiseless):
        # constant A and H, three noise covariances: step 3 has no R_3
        model = SystemModel(np.eye(2), np.eye(2), np.stack([np.eye(2)] * 3))
        assert simulate(model, np.ones(2), 3, seed=1, noiseless=noiseless).shape == (3, 2)
        with pytest.raises(HorizonError, match="step 3 exceeds the model horizon"):
            simulate(model, np.ones(2), 4, seed=1, noiseless=noiseless)

    STATE_VECTOR_INPUTS = {
        "simulate_x0": ("x0", lambda model, v, p0: simulate(model, v, 5, seed=1)),
        "monte_carlo_x0": ("x0", lambda model, v, p0: monte_carlo(
            model, v, None, p0, T=5, trials=2, seed=1)),
        "monte_carlo_x_hat0": ("x_hat0", lambda model, v, p0: monte_carlo(
            model, np.ones(2), v, p0, T=5, trials=2, seed=1)),
        "init_x_hat0": ("x_hat0", lambda model, v, p0: estimator.init(model, v, p0)),
    }

    @pytest.mark.parametrize("value, message", [
        ([1.0, 2.0, 3.0], "{} has length 3, model state dimension is 2"),
        ([np.nan, 1.0], "{} must be finite"),
        ([1.0, np.inf], "{} must be finite"),
    ], ids=["wrong_length", "nan", "inf"])
    @pytest.mark.parametrize("entry", list(STATE_VECTOR_INPUTS))
    def test_state_vectors_share_one_check(self, example2, entry, value, message):
        model, _x0, _xh, p0, _ = example2
        name, call = self.STATE_VECTOR_INPUTS[entry]
        with pytest.raises(ValueError) as exc:
            call(model, np.array(value), p0)
        assert str(exc.value) == message.format(name)


class TestMonteCarlo:
    def test_prior_is_checked_once(self, example2, monkeypatch):
        model, x0, x_hat0, p0, _ = example2
        calls = []
        real = estimator._prior
        monkeypatch.setattr(estimator, "_prior", lambda *a: calls.append(1) or real(*a))
        monte_carlo(model, x0, x_hat0, p0, T=5, trials=3, seed=1)
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x0_rejected(self, example2, bad):
        model, _x0, x_hat0, p0, _ = example2
        with pytest.raises(ValueError, match="x0 must be finite"):
            monte_carlo(model, [bad, 1.0], x_hat0, p0, T=5, trials=3, seed=1)

    def test_single_noiseless_trial_recovers(self):
        model = lti(np.diag([1.1, 0.9]), np.eye(2), sigma2=1e-8)
        stats, results = monte_carlo(model, np.array([0.3, -0.4]), np.zeros(2),
                                     np.eye(2), T=10, trials=1, seed=5, noiseless=True)
        assert len(results) == 1
        assert np.all(stats.mse[1:] <= 1e-12)

    def test_example1_ensemble_decays(self, example1):
        model, x0, x_hat0, p0, _ = example1
        stats, _ = monte_carlo(model, x0, x_hat0, p0, T=40, trials=100, seed=7)
        assert stats.mse[40] < stats.mse[5]
        bias = stats.bias_norm
        assert bias[40] < bias[5] < bias[1]

    def test_covariance_identity_within_sampling_error(self, example1):
        # empirical mse - ||empirical bias||^2 tracks trace(P_k) once the
        # ensemble's initial error actually has covariance P0
        model, x0, x_hat0, p0, _ = example1
        n = 150
        stats, results = monte_carlo(model, x0, x_hat0, p0, T=40, trials=n, seed=11)
        err_sq = np.stack([r.err_sq for r in results])
        se = err_sq.std(axis=0, ddof=1) / np.sqrt(n)
        trace_p = results[0].trace_p
        stat = np.abs(stats.mse - stats.bias_norm ** 2 - trace_p)
        assert np.all(stat[1:] <= 3.0 * se[1:])

    def test_example2_ensemble_plateaus(self, example2):
        # the only-Lyapunov-stable regime: late MSE flattens out instead of
        # decaying (within a factor of 3 of its value at k=20)
        model, x0, x_hat0, p0, _ = example2
        stats, _ = monte_carlo(model, x0, x_hat0, p0, T=40, trials=100, seed=13)
        ratio = stats.mse[40] / stats.mse[20]
        assert 1.0 / 3.0 <= ratio <= 3.0
        # and the sample MSE can only undershoot the squared bias by noise
        assert np.all(stats.mse >= stats.bias_norm ** 2 - 1e-12)

    def test_trial_results_are_deterministic_and_keyed_by_seed(self, example2):
        model, x0, x_hat0, p0, _ = example2
        stats, results = monte_carlo(model, x0, x_hat0, p0, T=10, trials=8, seed=3)
        again_stats, again_results = monte_carlo(model, x0, x_hat0, p0, T=10,
                                                 trials=8, seed=3)
        assert stats.mse.tobytes() == again_stats.mse.tobytes()
        assert stats.bias.tobytes() == again_stats.bias.tobytes()
        for a, b in zip(results, again_results):
            assert a.err_sq.tobytes() == b.err_sq.tobytes()
        # trial t depends only on (seed, t): smaller ensembles reproduce the
        # leading trials up to rounding (the batched products may round
        # differently at another trial count)
        for n in (1, 3):
            _stats, subset = monte_carlo(model, x0, x_hat0, p0, T=10, trials=n, seed=3)
            for a, b in zip(subset, results[:n]):
                np.testing.assert_allclose(a.err_sq, b.err_sq, rtol=1e-9)

    def test_trace_equals_eigenvalue_sum(self, example1):
        model, x0, x_hat0, p0, _ = example1
        _stats, results = monte_carlo(model, x0, x_hat0, p0, T=20, trials=2, seed=1)
        for r in results:
            sums = r.p_eigs.sum(axis=1)
            np.testing.assert_allclose(sums, r.trace_p, rtol=1e-10)
            assert np.all(np.diff(r.trace_p) <= 1e-18)

    def test_seed_key_recorded(self, example2):
        model, x0, x_hat0, p0, _ = example2
        _stats, results = monte_carlo(model, x0, x_hat0, p0, T=5, trials=3, seed=17)
        assert [r.seed_key for r in results] == [(17, 0), (17, 1), (17, 2)]


def per_step_noise_ltv(T=12):
    """Seeded LTV model, d = 3, m = 2, with a different correlated R_k per step."""
    rng = np.random.default_rng(2718)
    a_seq = np.stack([np.eye(3) + 0.2 * rng.standard_normal((3, 3)) for _ in range(T)])
    h_seq = rng.standard_normal((T, 2, 3))
    r_seq = []
    for _ in range(T):
        g = rng.standard_normal((2, 2))
        r_seq.append(0.01 * (g @ g.T + np.eye(2)))
    model = SystemModel(a_seq, h_seq, np.stack(r_seq))
    return model, rng.standard_normal(3), np.zeros(3), 0.5 * np.eye(3)


@pytest.mark.parametrize("system", ["example1", "example2", "ltv"])
def test_simulate_and_run_equal_per_step_factorization(system, request):
    # simulate and run read the model's noise factors; the references
    # factorize R_k at every step, simulate as it was first written and run
    # as a fold of the public step, which factorizes its own R_prev
    if system == "ltv":
        (model, x0, x_hat0, p0), T = per_step_noise_ltv(), 12
    else:
        (model, x0, x_hat0, p0, _), T = request.getfixturevalue(system), EXAMPLE_STEPS
    rng = np.random.default_rng(2024)
    ref_obs = np.empty((T, model.m))
    for k, h_tilde in enumerate(observed_evolution_sequence(model, T)):
        noise = np.linalg.cholesky(symmetrize(model.R_at(k))) @ rng.standard_normal(model.m)
        ref_obs[k] = h_tilde @ x0 + noise
    obs = simulate(model, x0, T, 2024)
    np.testing.assert_array_equal(obs, ref_obs)

    # run folds the gain schedule; every field of every state keeps the
    # bits of the step loop, down to the missing observer at the LTV
    # fixture's horizon
    ref_states = [estimator.init(model, x_hat0, p0)]
    for t, y in enumerate(obs):
        ref_states.append(estimator.step(ref_states[-1], y, model.R_at(t), model))
    states = estimator.run(model, x_hat0, p0, obs)
    assert len(states) == T + 1
    for s, ref in zip(states, ref_states):
        assert s.step == ref.step
        fields = ["x_hat", "P", "phi"]
        if ref.H_tilde_next is not None:
            fields.append("H_tilde_next")
        for name in fields:
            got, want = getattr(s, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
    assert (states[-1].H_tilde_next is None) == (system == "ltv")


def reference_trial(model, x0, x_hat0, p0, T, seed, t, calibrated, noiseless):
    """One trial run the long way: simulate + estimator.run on its own stream."""
    rng = np.random.default_rng(trial_seed(seed, t))
    guess = np.asarray(x_hat0, dtype=float)
    if calibrated:
        guess = guess + np.linalg.cholesky(p0) @ rng.standard_normal(model.d)
    obs = simulate(model, x0, T, rng, noiseless=noiseless)
    states = estimator.run(model, guess, p0, obs)
    err = np.stack([s.x_hat - x0 for s in states])
    return np.einsum("kd,kd->k", err, err), states


@pytest.mark.parametrize("system", ["example2", "ltv"])
@pytest.mark.parametrize("calibrated, noiseless",
                         [(True, False), (False, False), (True, True)])
def test_batched_ensemble_matches_per_trial_reference(system, calibrated, noiseless,
                                                      example2):
    if system == "example2":
        model, x0, x_hat0, p0, _ = example2
        T = 20
    else:
        model, x0, x_hat0, p0 = per_step_noise_ltv()
        T = 12
    trials, seed = 5, 404
    stats, results = monte_carlo(model, x0, x_hat0, p0, T=T, trials=trials, seed=seed,
                                 calibrated=calibrated, noiseless=noiseless)
    ref_sq = []
    for t, r in enumerate(results):
        err_sq, states = reference_trial(model, x0, x_hat0, p0, T, seed, t,
                                         calibrated, noiseless)
        np.testing.assert_allclose(r.err_sq, err_sq, rtol=1e-9)
        np.testing.assert_allclose(r.trace_p, [np.trace(s.P) for s in states], rtol=1e-9)
        ref_sq.append(err_sq)
    np.testing.assert_allclose(stats.mse, np.mean(ref_sq, axis=0), rtol=1e-9)


class TestReproduce:
    def test_example1_file_set(self, tmp_path):
        paths = reproduce_example("example1", trials=30, seed=5, out_dir=tmp_path)
        assert sorted(paths) == ["estimates", "mse", "p_eigs", "snapshots"]
        with open(paths["mse"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == EXAMPLE_STEPS
        mean_trace = np.array([float(r["mean_trace_P"]) for r in rows])
        assert np.all(np.diff(mean_trace) < 0.0)

        with open(paths["p_eigs"]) as fh:
            eig_rows = list(csv.DictReader(fh))
        assert len(eig_rows) == EXAMPLE_STEPS + 1
        final = np.array([float(v) for k, v in eig_rows[-1].items() if k != "k"])
        first = np.array([float(v) for k, v in eig_rows[0].items() if k != "k"])
        # every eigenvalue path collapses toward zero
        assert np.all(final <= 1e-3 * first.max())

        with open(paths["snapshots"]) as fh:
            snaps = list(csv.DictReader(fh))
        assert [int(r["k"]) for r in snaps] == [5, 10, 40]

    def test_example2_plateau(self, tmp_path):
        paths = reproduce_example("example2", trials=20, seed=5, out_dir=tmp_path)
        with open(paths["p_eigs"]) as fh:
            rows = list(csv.DictReader(fh))
        top = np.array([float(r["eig_1"]) for r in rows])
        last10 = top[-10:]
        assert last10.max() / last10.min() <= 1.01

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        pa = reproduce_example("example2", trials=12, seed=21, out_dir=a)
        pb = reproduce_example("example2", trials=12, seed=21, out_dir=b)
        for name in pa:
            assert Path(pa[name]).read_bytes() == Path(pb[name]).read_bytes()

    @pytest.mark.parametrize("which", ["example1", "example2"])
    def test_one_filter_pass_per_example(self, tmp_path, monkeypatch, which):
        # the ensemble and the showcase trajectory share one gain schedule
        calls = []
        real = estimator._update
        monkeypatch.setattr(estimator, "_update", lambda *a: calls.append(1) or real(*a))
        reproduce_example(which, trials=3, seed=5, out_dir=tmp_path)
        assert len(calls) == EXAMPLE_STEPS

    @pytest.mark.parametrize("which", ["example1", "example2"])
    def test_showcase_observations_are_simulates(self, tmp_path, monkeypatch, which):
        # drawn from the schedule's observers, without a second observer
        # walk, yet bit for bit the stream simulate gives for (seed, trials)
        folded, walks = [], []
        real_fold, real_walk = estimator._fold, harness.observed_evolution_sequence
        monkeypatch.setattr(estimator, "_fold",
                            lambda sched, x, obs: folded.append(obs) or real_fold(sched, x, obs))
        monkeypatch.setattr(harness, "observed_evolution_sequence",
                            lambda *a: walks.append(1) or real_walk(*a))
        reproduce_example(which, trials=3, seed=5, out_dir=tmp_path)
        assert walks == [] and len(folded) == 1
        model, x0, *_ = example_system(which)
        expected = simulate(model, x0, EXAMPLE_STEPS, trial_seed(5, 3))
        assert folded[0].tobytes() == expected.tobytes()

    def test_sigma_reading_flag(self):
        model_std, *_ = example_system("example2")
        model_var, *_ = example_system("example2", sigma_is_variance=True)
        assert model_std.sigma2 == pytest.approx(1e-6)
        assert model_var.sigma2 == pytest.approx(1e-3)

    def test_unknown_example_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown example"):
            reproduce_example("example3", trials=1, seed=0, out_dir=tmp_path)


def test_observations_csv_roundtrip(tmp_path, example1):
    model, x0, _xh, _p0, _ = example1
    obs = simulate(model, x0, 12, seed=4)
    path = tmp_path / "obs.csv"
    write_observations_csv(path, obs)
    back = read_observations_csv(path)
    assert back.tobytes() == obs.tobytes()


def reference_csv(path, header, rows):
    """A CSV as csv.writer writes it, every float in its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


def test_stacked_writer_matches_csv_writer(tmp_path):
    awkward = np.array([
        [-0.0, 1e-300, 1.0, 5e-324],
        [0.1 + 0.2, 1.0 / 3.0, -1.7976931348623157e308, 123456789.12345679],
        [2.2250738585072014e-308, -2.5e-8, 1e16, 9007199254740993.0],
    ])
    header = ["k", "a", "b", "c", "d"]
    steps = [0, 7, 40]
    write_csv(tmp_path / "stacked.csv", header, steps, awkward)
    reference_csv(tmp_path / "reference.csv", header,
                  [[str(k)] + list(row) for k, row in zip(steps, awkward)])
    assert (tmp_path / "stacked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_stacked_estimates_match_the_per_state_expressions(tmp_path):
    # the trace and err_norm columns keep the bits of np.trace(P_k) and
    # np.linalg.norm(x^_k - x0) taken state by state
    model, x0, x_hat0, p0 = per_step_noise_ltv()
    states = estimator.run(model, x_hat0, p0, simulate(model, x0, 12, 3))
    x_hat = np.array([s.x_hat for s in states])
    write_estimates_csv(tmp_path / "stacked.csv", x_hat, [np.trace(s.P) for s in states], truth=x0)
    header = ["k", "xhat_0", "xhat_1", "xhat_2", "trace_P", "err_norm"]
    rows = [[str(s.step), *s.x_hat, np.trace(s.P), np.linalg.norm(s.x_hat - x0)] for s in states]
    reference_csv(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "stacked.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
