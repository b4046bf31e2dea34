import numpy as np
import pytest
from hypothesis import given, strategies as st

from isokal._linalg import symmetrize
from isokal.model import (
    ConfigError,
    advance_observed_evolution,
    HorizonError,
    SystemModel,
    load_model,
    observed_evolution,
    observed_evolution_sequence,
    transition,
)
from test_harness import per_step_noise_ltv


def lti(a, h, sigma2=1.0):
    return SystemModel(np.asarray(a, dtype=float), np.asarray(h, dtype=float), sigma2)


def random_ltv(rng, d, horizon):
    seq = []
    while len(seq) < horizon:
        a = rng.standard_normal((d, d))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > 0.1 * s[0]:
            seq.append(a)
    h_seq = [rng.standard_normal((1, d)) for _ in range(horizon + 1)]
    return SystemModel(np.stack(seq), np.stack(h_seq), 1.0)


class TestTransition:
    def test_identity_dynamics(self):
        m = lti(np.eye(3), np.eye(3))
        for k, j in [(0, 0), (4, 1), (2, 7)]:
            np.testing.assert_allclose(transition(m, k, j), np.eye(3), atol=1e-14)

    def test_same_step_is_identity(self, example2):
        np.testing.assert_array_equal(transition(example2[0], 5, 5), np.eye(2))

    def test_example2_square(self, example2):
        # [[1,-0.5],[-0.5,1]]^2 multiplied by hand
        model = example2[0]
        np.testing.assert_allclose(transition(model, 2, 0),
                                   [[1.25, -1.0], [-1.0, 1.25]], rtol=1e-14)

    def test_backward_is_inverse(self, example2):
        model = example2[0]
        fwd = transition(model, 3, 0)
        back = transition(model, 0, 3)
        np.testing.assert_allclose(back @ fwd, np.eye(2), atol=1e-12)

    def test_negative_step_rejected(self, example2):
        with pytest.raises(ValueError):
            transition(example2[0], -1, 0)

    def test_composition_and_inverse_ltv(self):
        rng = np.random.default_rng(101)
        for trial in range(5):
            d = int(rng.integers(2, 6))
            horizon = int(rng.integers(4, 11))
            m = random_ltv(rng, d, horizon)
            for _ in range(10):
                i, j, k = sorted(rng.integers(0, horizon + 1, size=3))
                lhs = transition(m, k, i)
                rhs = transition(m, k, j) @ transition(m, j, i)
                scale = max(np.linalg.norm(lhs), 1.0)
                assert np.linalg.norm(lhs - rhs) <= 1e-9 * scale
                prod = transition(m, i, k) @ transition(m, k, i)
                assert np.linalg.norm(prod - np.eye(d)) <= 1e-9

    def test_horizon_exceeded(self):
        rng = np.random.default_rng(3)
        m = random_ltv(rng, 2, horizon=4)
        with pytest.raises(HorizonError):
            transition(m, 5, 0)


class TestObservedEvolution:
    def test_step_zero_is_h(self, example2):
        model = example2[0]
        np.testing.assert_array_equal(observed_evolution(model, 0), model.H_at(0))

    def test_example2_step_one(self, example2):
        # row [0, 1] times the dynamics matrix
        np.testing.assert_allclose(observed_evolution(example2[0], 1), [[-0.5, 1.0]], rtol=1e-15)

    def test_scalar_dynamics(self):
        m = lti(2.0 * np.eye(3), np.eye(3))
        np.testing.assert_allclose(observed_evolution(m, 3), 8.0 * np.eye(3), rtol=1e-15)

    def test_incremental_matches_direct(self, example1):
        model = example1[0]
        for k, h_inc in enumerate(observed_evolution_sequence(model, 30)):
            h_dir = observed_evolution(model, k)
            assert np.linalg.norm(h_inc - h_dir) <= 1e-10 * max(np.linalg.norm(h_dir), 1.0)

    def test_ltv_sequence_matches_direct(self):
        rng = np.random.default_rng(17)
        m = random_ltv(rng, 3, horizon=8)
        for k, h_inc in enumerate(observed_evolution_sequence(m, 8)):
            np.testing.assert_allclose(h_inc, observed_evolution(m, k), rtol=1e-10, atol=1e-12)

    def test_horizon_exceeded(self):
        rng = np.random.default_rng(3)
        m = random_ltv(rng, 2, horizon=4)
        with pytest.raises(HorizonError):
            observed_evolution(m, 7)

    def test_stacked_advance_matches_one_matrix_calls(self, example1):
        # row i of a stack advances to step k + i, bit for bit as one call would
        rng = np.random.default_rng(31)
        ltv = random_ltv(rng, 3, horizon=8)
        for model in (ltv, example1[0]):
            h = rng.standard_normal((4, model.m, model.d))
            phi = rng.standard_normal((4, model.d, model.d))
            h_next, phi_next = advance_observed_evolution(model, 3, h, phi)
            for i in range(4):
                h_one, phi_one = advance_observed_evolution(model, 3 + i, h[i], phi[i])
                np.testing.assert_array_equal(h_next[i], h_one)
                np.testing.assert_array_equal(phi_next[i], phi_one)
        # rows at steps 6..9 of a horizon-9 model: the last one does not exist
        with pytest.raises(HorizonError):
            advance_observed_evolution(ltv, 6, np.zeros((4, 1, 3)), np.zeros((4, 3, 3)))

    def test_anchored_sequence_matches_transitions(self, example1):
        # H_j A(j,k0) for windows anchored past 0: the LTV recurrence
        # multiplies in transition()'s order, the LTI one by right-multiplication
        rng = np.random.default_rng(29)
        ltv = random_ltv(rng, 3, horizon=8)
        for model, exact in ((ltv, True), (example1[0], False)):
            for k0 in (0, 2, 5):
                seq = list(observed_evolution_sequence(model, 4, start=k0))
                assert len(seq) == 4
                for j, h in enumerate(seq, start=k0):
                    direct = model.H_at(j) @ transition(model, j, k0)
                    if exact:
                        np.testing.assert_array_equal(h, direct)
                    else:
                        np.testing.assert_allclose(h, direct, rtol=1e-12)


class TestModelValidation:
    def test_singular_dynamics_rejected(self):
        a = np.array([[1.0, 2.0], [0.5, 1.0]])  # rank 1
        with pytest.raises(ConfigError, match="singular"):
            lti(a, np.eye(2))

    def test_m_greater_than_d_rejected(self):
        with pytest.raises(ConfigError, match="m=3 exceeds"):
            lti(np.eye(2), np.ones((3, 2)))

    def test_asymmetric_noise_rejected(self):
        r = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ConfigError, match="not symmetric"):
            SystemModel(np.eye(2), np.eye(2), np.stack([r]))

    def test_indefinite_noise_rejected(self):
        r = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ConfigError, match="positive definite"):
            SystemModel(np.eye(2), np.eye(2), np.stack([r]))

    def test_sigma2_below_floor_rejected(self):
        with pytest.raises(ConfigError, match="sigma2"):
            lti(np.eye(2), np.eye(2), sigma2=0.0)

    def test_model_is_immutable(self, example2):
        model = example2[0]
        with pytest.raises(ValueError):
            model.A_at(1)[0, 0] = 5.0
        ltv = SystemModel(np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 4),
                          np.stack([np.eye(2)] * 4))
        for view in (ltv.A_at(2), ltv.H_at(1), ltv.R_at(3)):
            with pytest.raises(ValueError):
                view[0, 0] = 5.0
        assert ltv.A_seq.shape == (3, 2, 2) and not ltv.A_seq.flags.writeable


def ltv_doc(n=6):
    """LTV config with n dynamics, observation and noise matrices (d = m = 2)."""
    return {
        "d": 2, "m": 2,
        "dynamics": {"kind": "ltv", "A_seq": [[[1.0, 0.1 * t], [0.0, 1.0]] for t in range(n)]},
        "observation": {"kind": "ltv", "H_seq": [[[1.0, 0.0], [0.0, 1.0 + t]] for t in range(n)]},
        "noise": {"kind": "per_step", "R_seq": [[[1.0, 0.2], [0.2, 0.5]] for _ in range(n)]},
    }


class TestLoadModel:
    @pytest.mark.parametrize("field, key, bad, message", [
        ("dynamics", "A_seq", [[np.nan, 0.0], [0.0, 1.0]], "entries must be finite"),
        ("dynamics", "A_seq", [[1.0, 2.0], [0.5, 1.0]], "numerically singular"),
        ("observation", "H_seq", [[1.0, 0.0], [0.0, np.inf]], "entries must be finite"),
        ("noise", "R_seq", [[1.0, 0.2], [0.3, 0.5]], "not symmetric"),
        ("noise", "R_seq", [[1.0, 0.0], [0.0, 1e-20]], "lambda_min=1.000e-20"),
        ("noise", "R_seq", [[1.0, np.nan], [np.nan, 0.5]], "entries must be finite"),
    ])
    def test_first_bad_sequence_entry_is_named(self, field, key, bad, message):
        doc = ltv_doc()
        doc[field][key][3] = bad
        assert load_model(ltv_doc()).horizon == 6
        with pytest.raises(ConfigError, match=message) as exc:
            load_model(doc)
        assert exc.value.path == f"{field}.{key}[3]"

    @pytest.mark.parametrize("section, value, path", [
        ("dynamics", {"kind": "lti", "A": [[[1.0, -0.5], [-0.5, 1.0]]] * 2}, "dynamics.A"),
        ("observation", {"kind": "lti", "H": [[[0.0, 1.0]]] * 2}, "observation.H"),
        ("dynamics", {"kind": "ltv", "A_seq": [[1.0, -0.5], [-0.5, 1.0]]}, "dynamics.A_seq"),
        ("observation", {"kind": "ltv", "H_seq": [[0.0, 1.0]]}, "observation.H_seq"),
        ("noise", {"kind": "per_step", "R_seq": [[1e-6]]}, "noise.R_seq"),
        ("noise", {"kind": "isotropic", "sigma2": [[1e-6]]}, "noise.sigma2"),
    ], ids=["lti_A_sequence", "lti_H_sequence", "ltv_A_matrix", "ltv_H_matrix",
            "per_step_R_matrix", "isotropic_matrix"])
    def test_kind_and_rank_mismatch_names_the_field(self, example2_config, section, value, path):
        example2_config[section] = value
        with pytest.raises(ConfigError) as exc:
            load_model(example2_config)
        assert exc.value.path == path

    @pytest.mark.parametrize("section, kind, message", [
        ("dynamics", "per_step", "must be 'lti' or 'ltv', got 'per_step'"),
        ("observation", "isotropic", "must be 'lti' or 'ltv', got 'isotropic'"),
        ("noise", "lti", "must be 'isotropic' or 'per_step', got 'lti'"),
    ])
    def test_unknown_kind_is_named(self, example2_config, section, kind, message):
        example2_config[section]["kind"] = kind
        with pytest.raises(ConfigError, match=message) as exc:
            load_model(example2_config)
        assert exc.value.path == f"{section}.kind"

    @pytest.mark.parametrize("kind", [["lti"], {"lti": 1}, 1], ids=["list", "object", "number"])
    def test_kind_that_is_not_a_string_is_named(self, example2_config, kind):
        example2_config["dynamics"]["kind"] = kind
        with pytest.raises(ConfigError) as exc:
            load_model(example2_config)
        assert str(exc.value) == f"dynamics.kind: must be 'lti' or 'ltv', got {kind!r}"

    @pytest.mark.parametrize("field", ["d", "m", "dynamics.kind", "noise.sigma2"])
    def test_deeply_nested_value_is_named(self, example2_config, field):
        # the message abbreviates the value instead of recursing through it
        deep = []
        for _ in range(100000):
            deep = [deep]
        *parents, key = field.split(".")
        section = example2_config[parents[0]] if parents else example2_config
        section[key] = deep
        with pytest.raises(ConfigError, match=r"got \[\[\[\[\[\[\[\.\.\.\]\]\]\]\]\]\]$") as exc:
            load_model(example2_config)
        assert exc.value.path == field

    def test_example1_config(self, example1_config):
        m = load_model(example1_config)
        assert (m.d, m.m) == (4, 2)
        assert m.isotropic and m.sigma2 == pytest.approx(1e-4)
        assert m.is_lti

    def test_m_exceeding_d_rejected(self, example2_config):
        example2_config["m"] = 3
        example2_config["observation"]["H"] = [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        with pytest.raises(ConfigError) as exc:
            load_model(example2_config)
        assert exc.value.path == "m"

    def test_negative_noise_eigenvalue_rejected(self, example2_config):
        example2_config["noise"] = {"kind": "per_step", "R_seq": [[[1.0, 2.0], [2.0, 1.0]]]}
        example2_config["m"] = 2
        example2_config["observation"]["H"] = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ConfigError) as exc:
            load_model(example2_config)
        assert "noise.R_seq[0]" in str(exc.value)

    @pytest.mark.parametrize("missing, path", [
        (("dynamics",), "dynamics"), (("d",), "d"), (("dynamics", "kind"), "dynamics.kind"),
        (("observation", "H"), "observation.H"), (("noise", "sigma2"), "noise.sigma2"),
    ])
    def test_missing_field_names_path(self, example2_config, missing, path):
        # a missing section or key is named by its first missing part
        parent = example2_config
        for key in missing[:-1]:
            parent = parent[key]
        del parent[missing[-1]]
        with pytest.raises(ConfigError, match="missing required field") as exc:
            load_model(example2_config)
        assert exc.value.path == path

    @pytest.mark.parametrize("section, key, value, path", [
        ("dynamics", "A", [[10 ** 400, 0.0], [0.0, 1.0]], "dynamics.A"),
        ("noise", "sigma2", -10 ** 400, "noise.sigma2"),
    ])
    def test_integer_past_float64_names_the_field(self, example2_config, section, key,
                                                  value, path):
        # json keeps a 401-digit literal as an int, which no float holds
        example2_config[section][key] = value
        with pytest.raises(ConfigError) as exc:
            load_model(example2_config)
        assert str(exc.value) == f"{path}: not a numeric array: int too large to convert to float"

    def test_dimension_mismatch_rejected(self, example2_config):
        example2_config["d"] = 3
        with pytest.raises(ConfigError) as exc:
            load_model(example2_config)
        assert exc.value.path == "d"

    def test_ltv_roundtrip(self):
        doc = {
            "d": 2, "m": 1,
            "dynamics": {"kind": "ltv", "A_seq": [[[1.0, 0.1], [0.0, 1.0]],
                                                  [[1.0, 0.0], [0.2, 1.0]]]},
            "observation": {"kind": "ltv", "H_seq": [[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]]},
            "noise": {"kind": "per_step", "R_seq": [[[0.5]], [[0.5]], [[0.25]]]},
        }
        m = load_model(doc)
        assert not m.is_lti
        assert m.horizon == 3
        np.testing.assert_allclose(m.R_at(2), [[0.25]])


def with_condition(rng, d, cond):
    """A d x d matrix with singular values spaced from 1 down to 1/cond, in random frames."""
    u, v = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
    return (u * np.geomspace(1.0, 1.0 / cond, d)) @ v.T


def svd_first_singular(stack):
    """Index of the first entry the unscreened SVD test rejects, or None."""
    s = np.linalg.svd(stack, compute_uv=False)
    bad = np.flatnonzero(s[:, -1] <= 1e-12 * s[:, 0])
    return int(bad[0]) if bad.size else None


class TestInvertibilityScreen:
    """The batched-inverse screen decides only entries the SVD test would accept."""

    @pytest.fixture()
    def svd_rows(self, monkeypatch):
        rows = []
        real = np.linalg.svd

        def counted(a, *args, **kwargs):
            rows.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return rows

    @staticmethod
    def stack(*conds, d=3):
        rng = np.random.default_rng(77)
        return np.stack([np.zeros((d, d)) if c is None else with_condition(rng, d, c)
                         for c in conds])

    def test_well_conditioned_stack_takes_no_svd(self, svd_rows):
        SystemModel(self.stack(1.0, 10.0, 1e6, 1e9), np.ones((1, 3)), 1.0)
        assert svd_rows == []

    def test_cond_1e11_is_accepted_through_the_svd(self, svd_rows):
        a_seq = self.stack(1.0, 1e11, 10.0)
        assert svd_first_singular(a_seq) is None
        svd_rows.clear()
        SystemModel(a_seq, np.ones((1, 3)), 1.0)
        assert svd_rows == [1]

    def test_cond_1e13_is_rejected_by_name(self, svd_rows):
        a_seq = self.stack(1.0, 10.0, 1e13, 1e11)
        with pytest.raises(ConfigError, match="numerically singular "
                                              r"\(condition estimate > 1e12\)") as exc:
            SystemModel(a_seq, np.ones((1, 3)), 1.0)
        assert exc.value.path == "dynamics.A_seq[2]"
        assert svd_rows == [2]

    def test_exactly_singular_entry_falls_back_to_the_full_svd(self, svd_rows):
        a_seq = self.stack(1.0, 1.0, 1.0)
        a_seq[1] = [[1.0, 2.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(a_seq)
        with pytest.raises(ConfigError) as exc:
            SystemModel(a_seq, np.ones((1, 3)), 1.0)
        assert exc.value.path == "dynamics.A_seq[1]"
        assert svd_rows == [3]

    @pytest.mark.parametrize("conds, first", [
        ((1.0, 1e13, 1.0, 1e14), 1),
        ((1.0, 1e11, None, 1e13), 2),
        ((1e13, None), 0),
    ], ids=["two_ill_conditioned", "singular_then_ill_conditioned", "ill_conditioned_then_zero"])
    def test_two_bad_entries_name_the_first(self, conds, first):
        a_seq = self.stack(*conds)
        assert svd_first_singular(a_seq) == first
        with pytest.raises(ConfigError) as exc:
            SystemModel(a_seq, np.ones((1, 3)), 1.0)
        assert exc.value.path == f"dynamics.A_seq[{first}]"

    def test_lti_dynamics_named_without_index(self):
        with pytest.raises(ConfigError) as exc:
            lti(self.stack(1e13)[0], np.ones((1, 3)))
        assert exc.value.path == "dynamics.A"

    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 8), n=st.integers(1, 12))
    def test_decision_equals_the_unscreened_svd(self, seed, d, n):
        rng = np.random.default_rng(seed)
        a_seq = np.stack([with_condition(rng, d, 10.0 ** rng.uniform(0.0, 15.0))
                          * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(n)])
        first = svd_first_singular(a_seq)
        if first is None:
            SystemModel(a_seq, np.ones((1, d)), 1.0)
        else:
            with pytest.raises(ConfigError) as exc:
                SystemModel(a_seq, np.ones((1, d)), 1.0)
            assert exc.value.path == f"dynamics.A_seq[{first}]"


class TestNoiseFactors:
    def test_per_step_factors_equal_per_matrix_cholesky(self):
        model = per_step_noise_ltv()[0]
        n = len(model.R_seq)
        factors = model.noise_factors(n)
        assert factors.shape == (n, 2, 2) and not factors.flags.writeable
        for r, factor in zip(model.R_seq, factors):
            np.testing.assert_array_equal(factor, np.linalg.cholesky(symmetrize(r)))
        np.testing.assert_array_equal(model.noise_factors(4, start=3), factors[3:7])
        assert len(model.noise_factors(n, start=n - 2)) == 2

    def test_isotropic_factor_is_shared(self, example1):
        model = example1[0]
        factors = model.noise_factors(7, start=5)
        assert factors.shape == (7, 2, 2) and not factors.flags.writeable
        for factor in factors:
            np.testing.assert_array_equal(factor, np.linalg.cholesky(model.R_at(0)))

    @pytest.mark.parametrize("noise, path", [
        (np.stack([np.eye(2), np.ones((2, 2)), np.ones((2, 2))]), "noise.R_seq[1]"),
        (0.0, "noise.sigma2"),
    ], ids=["per_step", "isotropic"])
    def test_unfactorable_noise_is_named(self, noise, path):
        # only a floor at or below 0 lets a singular R past the eigenvalue check
        with pytest.raises(ConfigError, match="Cholesky factorization failed") as exc:
            SystemModel(np.eye(2), np.eye(2), noise, sigma2_floor=0.0)
        assert exc.value.path == path


class TestWeylBracketing:
    def test_eigenvalues_of_sums_are_bracketed(self):
        rng = np.random.default_rng(55)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            b = rng.standard_normal((d, d))
            b = 0.5 * (b + b.T)
            c = rng.standard_normal((d, d))
            c = 0.5 * (c + c.T)
            eb = np.linalg.eigvalsh(b)[::-1]
            ec = np.linalg.eigvalsh(c)[::-1]
            es = np.linalg.eigvalsh(b + c)[::-1]
            for i in range(d):
                assert eb[i] + ec[-1] - 1e-10 <= es[i] <= eb[i] + ec[0] + 1e-10
