"""Stability analysis of the estimation-error dynamics.

The expected estimation error and the covariances share the linear
time-varying dynamics z(k) = Psi_k z(k-1) with Psi_k = I - K_k H~_{k-1},
which also equals P_k P_{k-1}^-1.  V(k, z) = z^T P_k^-1 z is a Lyapunov
function for that system; whether ||Psi(k,0)|| decays to zero depends on
where the eigenvalues of an LTI dynamics matrix sit relative to the unit
circle (all outside: uniformly asymptotically stable; any inside: the
covariance norm stays bounded away from zero).  The decay rate is the
log-linear tail fit that ``lambda_min_asymptotics`` also uses.
"""

from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from ._linalg import spd_factor, spectral_norm, spd_inverse
from . import estimator
from .observability import (SPECTRAL_BAND_TOL, UnobservableModelError, _require_observable,
                            _tail_fit)

UNIFORMLY_ASYMPTOTICALLY_STABLE = "UniformlyAsymptoticallyStable"
LYAPUNOV_STABLE_ONLY = "LyapunovStableOnly"
INDETERMINATE = "Indeterminate"


@dataclass
class ErrorDynamics:
    """Per-step error transitions Psi_k and the covariances they connect."""

    psi_seq: list
    covariances: list


@dataclass
class StabilityReport:
    """Spectral data, classification and run diagnostics for one model."""

    eigenvalues_A: np.ndarray
    classification: str | None
    exp_fit: tuple | None
    lyapunov_trace: np.ndarray
    lyapunov_monotone: bool
    covariance_norm_trace: np.ndarray
    uniformly_stable_hint: bool = False

    def to_json_dict(self):
        alpha, beta = self.exp_fit if self.exp_fit is not None else (None, None)
        return {
            "eigs_abs": [float(v) for v in self.eigenvalues_A],
            "classification": self.classification,
            "alpha": alpha,
            "beta": beta,
            "lyapunov_monotone": bool(self.lyapunov_monotone),
            "p_norm_trace": [float(v) for v in self.covariance_norm_trace],
            "uniformly_stable_hint": bool(self.uniformly_stable_hint),
        }


def psi_transition(P_k, P_j):
    """Error transition Psi(k,j) = P_k P_j^-1 between two SPD covariances."""
    factor = spd_factor(P_j, "P_j")
    return cho_solve(factor, np.asarray(P_k, dtype=float).T).T


def lyapunov_value(P_k, z):
    """V(k, z) = z^T P_k^-1 z, via an SPD solve and an inner product."""
    z = np.asarray(z, dtype=float)
    return float(z @ cho_solve(spd_factor(P_k, "P_k"), z))


def error_dynamics(model, states):
    """Per-step transitions I - K_k H~_{k-1} of a filter run, from its gain schedule."""
    schedule = estimator.gain_schedule(model, states[0].P, len(states) - 1)
    psi_seq = list(np.eye(model.d) - schedule.gain @ schedule.h_tilde)
    return ErrorDynamics(psi_seq=psi_seq, covariances=[s.P for s in states])


def _classification(a, lam_min):
    """Stability class for dynamics ``a`` whose smallest |eigenvalue| is ``lam_min``."""
    if lam_min > 1.0 + SPECTRAL_BAND_TOL:
        return UNIFORMLY_ASYMPTOTICALLY_STABLE
    if lam_min < 1.0 - SPECTRAL_BAND_TOL:
        return LYAPUNOV_STABLE_ONLY
    normal = spectral_norm(a.T @ a - a @ a.T) <= 1e-12 * spectral_norm(a) ** 2
    if normal and lam_min >= 1.0:
        return UNIFORMLY_ASYMPTOTICALLY_STABLE
    return INDETERMINATE


def classify(model):
    """Stability class of the error dynamics for an observable LTI model.

    All eigenvalues of A outside the unit circle give uniform asymptotic
    stability; any eigenvalue inside leaves the dynamics Lyapunov stable
    only.  Within the SPECTRAL_BAND_TOL band around the circle the question
    is settled only for normal A (stable iff min |eig| >= 1); otherwise
    Indeterminate.  The model is certified afresh at rho_tol 1e-9;
    ``analyze_stability`` reuses a ``check_observability`` report instead.
    """
    if not model.is_lti:
        raise ValueError("classification is defined for LTI models only")
    _require_observable(model)
    return _classification(model.A_at(1), float(model.eigs_abs[-1]))


def exponential_fit(psi_norms):
    """Fit ||Psi(k,0)|| <= alpha * exp(-beta k) over the tail of a norm trace.

    A least-squares line through log ||Psi(k,0)|| vs k on the tail half of
    the sequence (skipping transients); values at and after the first
    non-positive entry are dropped, since the decay there is exact.  A
    tail of fewer than 3 points raises ValueError.  Returns (alpha, beta)
    with beta = -slope.
    """
    norms = np.asarray(psi_norms, dtype=float)
    nonzero = np.flatnonzero(norms <= 0.0)
    if nonzero.size:
        norms = norms[: nonzero[0]]
    slope, intercept = _tail_fit(norms, "the positive norms")
    return float(np.exp(intercept)), -slope


def gelfand_diagnostic(a, n_max):
    """n-th roots of the singular values of A^n, for n = 1..n_max.

    Powers are accumulated with norm rescaling and a log-scale ledger, so
    spectral radii well above 1 do not overflow.  Each entry of the result
    is (n, roots) with roots sorted descending; roots converge to the
    eigenvalue magnitudes of A.
    """
    a = np.asarray(a, dtype=float)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    d = a.shape[0]
    power = np.eye(d)
    log_scale = 0.0
    out = []
    for n in range(1, n_max + 1):
        power = a @ power
        scale = spectral_norm(power)
        if not np.isfinite(scale) or scale == 0.0:
            raise OverflowError(f"matrix power over/underflowed at n={n} despite rescaling")
        power = power / scale
        log_scale += np.log(scale)
        sv = np.linalg.svd(power, compute_uv=False)
        with np.errstate(divide="ignore"):
            roots = np.exp((np.log(sv) + log_scale) / n)
        if not np.all(np.isfinite(roots)):
            roots = np.where(sv > 0.0, roots, 0.0)
        out.append((n, roots))
    return out


def analyze_stability(model, P0=1.0, k_max=40, report=None):
    """Assemble a StabilityReport from the deterministic covariance run.

    P0 may be a scalar p (meaning p * I); it is checked as ``estimator.init``
    checks it.  The Lyapunov trace follows z(k) = Psi_k z(k-1) from the
    normalized all-ones vector z0; by the covariance-inverse identity
    z(k) = P_k P0^-1 z0, so it is read off the covariance stack without
    factorizing any P_k.  The norms are ||P_k||_2 = max |eig(P_k)|, one
    stacked eigvalsh, and, for P0 = p I (a scalar or a matrix equal to
    p I), ||Psi(k,0)||_2 = ||P_k||_2 / p, since Psi(k,0) = P_k / p; any
    other P0 takes sqrt(lambda_max(Psi^T Psi)) of the stacked products.
    Classification is attempted for observable LTI models and left None
    otherwise; ``report`` certifies the model as ``_require_observable``
    says, and the spectrum is the model's ``eigs_abs``.
    """
    covs = estimator.covariance_sequence(model, P0, k_max)
    p0_inv = spd_inverse(covs[0], "P0")
    p_norm_trace = np.abs(np.linalg.eigvalsh(covs)).max(axis=1)
    p = covs[0, 0, 0]
    if np.array_equal(covs[0], p * np.eye(model.d)):
        # Psi(k,0) = P_k / p exactly, so its norm is ||P_k|| / p.
        psi_norms = p_norm_trace / p
    else:
        psi = covs @ p0_inv
        psi_norms = np.sqrt(np.linalg.eigvalsh(psi.swapaxes(1, 2) @ psi)[:, -1])

    # z(k) = Psi(k,0) z0 = P_k u with u = P0^-1 z0, so V(k, z(k)) = u^T P_k u.
    u = p0_inv @ (np.ones(model.d) / np.sqrt(model.d))
    v_trace = np.einsum("i,kij,j->k", u, covs, u)
    monotone = bool(np.max(np.diff(v_trace)) <= 1e-12 * v_trace[0]) if k_max >= 1 else True

    eigs = model.eigs_abs if model.is_lti else np.zeros(0)
    classification = None
    if model.is_lti:
        with suppress(UnobservableModelError):
            _require_observable(model, report)
            classification = _classification(model.A_at(1), float(eigs[-1]))

    try:
        exp_fit = exponential_fit(psi_norms)
    except ValueError:
        exp_fit = None

    return StabilityReport(
        eigenvalues_A=eigs, classification=classification, exp_fit=exp_fit,
        lyapunov_trace=v_trace, lyapunov_monotone=monotone,
        covariance_norm_trace=p_norm_trace,
        uniformly_stable_hint=model.is_lti and float(eigs[0]) < 1.0,
    )
