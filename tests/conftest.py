"""Shared fixtures: bundled example systems, a seeded random-system factory and an exact oracle."""

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from isokal import estimator, harness
from isokal._linalg import spd_inverse, symmetrize
from isokal.model import SystemModel
from isokal.observability import check_observability

# Property tests draw the same examples on every run and keep no database.
settings.register_profile("isokal", derandomize=True, deadline=None, database=None,
                          max_examples=60)
settings.load_profile("isokal")

#: Conditioning cap for the full-information normal matrix P0^-1 + O(T,0).
#: Above ~1e6 the float64 identities under test (batch agreement, P_k^-1
#: reconstruction) drown in eps * cond rounding regardless of implementation,
#: so candidate systems beyond the cap are redrawn (deterministically).
COND_CAP = 2e5


def random_observable_system(master_seed, index, T=30, cond_cap=COND_CAP):
    """Seeded random observable LTI system with bounded run conditioning.

    d in 2..6, m in 1..d-1, all eigenvalues of A inside [0.3, 2.5] (drawn
    as a narrow band around a log-uniform center so contracting, expanding
    and unit-circle-straddling spectra all occur), mildly non-normal
    eigenbasis, isotropic noise, random SPD prior.

    Returns (model, x0, x_hat0, P0).
    """
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, index)))
    while True:
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, d))
        center = np.exp(rng.uniform(np.log(0.35), np.log(2.25)))
        lam = np.clip(rng.uniform(0.9 * center, 1.1 * center, size=d), 0.3, 2.5)
        q1 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        stretch = np.exp(rng.uniform(np.log(0.75), np.log(1.33), size=d))
        basis = q1 @ np.diag(stretch) @ q2.T
        a = basis @ np.diag(lam) @ np.linalg.inv(basis)
        h = rng.standard_normal((m, d))
        sigma2 = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e-1))))
        q3 = np.linalg.qr(rng.standard_normal((d, d)))[0]
        p_scale = float(np.exp(rng.uniform(np.log(1e-2), np.log(1.0))))
        p0 = symmetrize(q3 @ np.diag(rng.uniform(p_scale / 3, p_scale, size=d)) @ q3.T)

        gram = spd_inverse(p0)
        h_tilde = h.copy()
        for _ in range(T):
            gram = symmetrize(gram + h_tilde.T @ h_tilde / sigma2)
            h_tilde = h_tilde @ a
        w = np.linalg.eigvalsh(gram)
        if w[0] <= 0.0 or w[-1] / w[0] > cond_cap:
            continue
        model = SystemModel(a, h, sigma2)
        if not check_observability(model, L_max=d).observable:
            continue
        x0 = rng.standard_normal(d)
        x_hat0 = rng.standard_normal(d)
        return model, x0, x_hat0, p0


def exact_posterior(model, P0, x_hat0, observations, dps=80):
    """P_k = (P0^-1 + O(k,0))^-1 and the WLS estimate of x0 from y(0..k-1), in mpmath.

    The model's float64 matrices, P0, x_hat0 and the observations are read
    as exact numbers; the observers H~_k = H_k A(k,0), the information sums
    and the inverses are carried at ``dps`` digits.  Returns float64 stacks
    (T+1, d, d) and (T+1, d) for k = 0..T, T = len(observations).
    """
    def mat(a):
        return mpmath.matrix(np.atleast_2d(np.asarray(a, dtype=float)).tolist())

    with mpmath.workdps(dps):
        info = mpmath.inverse(mat(P0))
        score = info * mat(np.reshape(x_hat0, (-1, 1)))
        phi = mpmath.eye(model.d)
        covs, means = [], []
        for k in range(len(observations) + 1):
            cov = mpmath.inverse(info)
            covs.append(np.array(cov.tolist(), dtype=float))
            means.append(np.array((cov * score).tolist(), dtype=float)[:, 0])
            if k == len(observations):
                break
            if k:
                phi = mat(model.A_at(k)) * phi
            h = mat(model.H_at(k)) * phi
            r_inv = mpmath.inverse(mat(model.R_at(k)))
            info = info + h.T * r_inv * h
            score = score + h.T * r_inv * mat(np.reshape(observations[k], (-1, 1)))
    return np.array(covs), np.array(means)


@pytest.fixture()
def scaled_gain(monkeypatch):
    """Scale every gain by 1.5, so the Joseph and short-form updates disagree."""
    real = estimator._gain_pieces

    def scaled(*args):
        k_gain, sigma, f = real(*args)
        return 1.5 * k_gain, sigma, f

    monkeypatch.setattr(estimator, "_gain_pieces", scaled)


@pytest.fixture(scope="session")
def make_system():
    return random_observable_system


@pytest.fixture(scope="session")
def oracle():
    return exact_posterior


@pytest.fixture(scope="session")
def example1():
    return harness.example_system("example1")


@pytest.fixture(scope="session")
def example2():
    return harness.example_system("example2")


EXAMPLE2_CONFIG = {
    "d": 2, "m": 1,
    "dynamics": {"kind": "lti", "A": [[1.0, -0.5], [-0.5, 1.0]]},
    "observation": {"kind": "lti", "H": [[0.0, 1.0]]},
    "noise": {"kind": "isotropic", "sigma2": 1e-6},
}

EXAMPLE1_CONFIG = {
    "d": 4, "m": 2,
    "dynamics": {"kind": "lti", "A": [[1.99, -0.32, 0.0, 0.07],
                                      [0.43, 1.17, 0.02, 0.0],
                                      [0.13, -0.09, 1.52, -0.13],
                                      [0.28, -0.14, 0.03, 1.22]]},
    "observation": {"kind": "lti", "H": [[1.0, 0.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0]]},
    "noise": {"kind": "isotropic", "sigma2": 1e-4},
}


@pytest.fixture()
def example2_config():
    import copy
    return copy.deepcopy(EXAMPLE2_CONFIG)


@pytest.fixture()
def example1_config():
    import copy
    return copy.deepcopy(EXAMPLE1_CONFIG)
