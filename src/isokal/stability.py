"""Stability analysis of the estimation-error dynamics.

The expected estimation error and the covariances share the linear
time-varying dynamics z(k) = Psi_k z(k-1) with Psi_k = I - K_k H~_{k-1},
which also equals P_k P_{k-1}^-1.  V(k, z) = z^T P_k^-1 z is a Lyapunov
function for that system; whether ||Psi(k,0)|| decays to zero depends on
where the eigenvalues of an LTI dynamics matrix sit relative to the unit
circle (all outside: uniformly asymptotically stable; any inside: the
covariance norm stays bounded away from zero).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from ._linalg import eig_abs_sorted, spd_factor, spectral_norm, spd_inverse
from . import estimator
from .observability import UnobservableModelError, _require_observable

#: Band half-width around |lambda| = 1 inside which classification falls
#: back to the normal-matrix criterion or Indeterminate.
CLASSIFY_TOL = 1e-9

#: Covariances per stacked eigvalsh of the norm traces.
_PSI_CHUNK = 16

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
    lambda_min_A: float
    lambda_max_A: float
    classification: str | None
    exp_fit: tuple | None
    lyapunov_trace: np.ndarray
    lyapunov_monotone: bool
    covariance_norm_trace: np.ndarray
    uniformly_stable_hint: bool = False
    fit_window: tuple | None = None

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


def classify(model, rho_tol=1e-9, report=None):
    """Stability class of the error dynamics for an observable LTI model.

    All eigenvalues of A outside the unit circle give uniform asymptotic
    stability; any eigenvalue inside leaves the dynamics Lyapunov stable
    only.  On the circle itself the question is settled only for normal A
    (stable iff min |eig| >= 1); otherwise Indeterminate.  A
    ``check_observability`` ``report`` of the model that covers window
    lengths up to d at ``rho_tol`` stands in for a fresh certificate.
    """
    if not model.is_lti:
        raise ValueError("classification is defined for LTI models only")
    _require_observable(model, rho_tol, report)
    a = model.A_at(1)
    lam_min = float(eig_abs_sorted(a)[-1])
    if lam_min > 1.0 + CLASSIFY_TOL:
        return UNIFORMLY_ASYMPTOTICALLY_STABLE
    if lam_min < 1.0 - CLASSIFY_TOL:
        return LYAPUNOV_STABLE_ONLY
    normal = spectral_norm(a.T @ a - a @ a.T) <= 1e-12 * spectral_norm(a) ** 2
    if normal and lam_min >= 1.0:
        return UNIFORMLY_ASYMPTOTICALLY_STABLE
    return INDETERMINATE


def exponential_fit(psi_norms):
    """Fit ||Psi(k,0)|| <= alpha * exp(-beta k) over the tail of a norm trace.

    A least-squares line through log ||Psi(k,0)|| vs k on the tail half of
    the sequence (skipping transients); values at and after the first
    non-positive entry are dropped, since the decay there is exact.
    Returns (alpha, beta) with beta = -slope.
    """
    norms = np.asarray(psi_norms, dtype=float)
    if norms.size < 5:
        raise ValueError(f"need at least 5 norm values, got {norms.size}")
    nonzero = np.flatnonzero(norms <= 0.0)
    if nonzero.size:
        norms = norms[: nonzero[0]]
    if norms.size < 2:
        raise ValueError("too few positive norms to fit")
    ks = np.arange(norms.size)
    tail = slice(norms.size // 2, norms.size)
    slope, intercept = np.polyfit(ks[tail], np.log(norms[tail]), 1)
    return float(np.exp(intercept)), float(-slope)


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


def analyze_stability(model, P0=1.0, k_max=40, z0=None, report=None):
    """Assemble a StabilityReport from the deterministic covariance run.

    P0 may be a scalar p (meaning p * I); it is checked as ``estimator.init``
    checks it.  The Lyapunov trace follows
    z(k) = Psi_k z(k-1) from z0 (default: the normalized all-ones vector);
    by the covariance-inverse identity z(k) = P_k P0^-1 z0, so it is read
    off the covariance stack without factorizing any P_k.
    Classification is attempted for observable LTI models and left None
    otherwise; ``report`` is passed to ``classify``.
    """
    covs = estimator.covariance_sequence(model, P0, k_max)
    p0_inv = spd_inverse(covs[0], "P0")
    # ||P_k|| = max |eig(P_k)|, ||Psi(k,0)|| = sqrt(lambda_max(Psi^T Psi)) with
    # Psi(k,0) = P_k P0^-1, in chunks: one (k_max+1, d, d) product stack would
    # add its size (3.3 MB at d = 64, k_max = 100) to the peak memory.
    p_norms, psi_norms = [], []
    for c in np.split(covs, range(_PSI_CHUNK, len(covs), _PSI_CHUNK)):
        psi = c @ p0_inv
        p_norms.append(np.abs(np.linalg.eigvalsh(c)).max(axis=1))
        psi_norms.append(np.linalg.eigvalsh(psi.swapaxes(1, 2) @ psi)[:, -1])
    p_norm_trace, psi_norms = np.concatenate(p_norms), np.sqrt(np.concatenate(psi_norms))

    if z0 is None:
        z0 = np.ones(model.d) / np.sqrt(model.d)
    # z(k) = Psi(k,0) z0 = P_k u with u = P0^-1 z0, so V(k, z(k)) = u^T P_k u.
    u = p0_inv @ np.asarray(z0, dtype=float)
    v_trace = np.einsum("i,kij,j->k", u, covs, u)
    monotone = bool(np.max(np.diff(v_trace)) <= 1e-12 * v_trace[0]) if k_max >= 1 else True

    classification = None
    eigs = np.zeros(0)
    lam_min = lam_max = float("nan")
    hint = False
    if model.is_lti:
        eigs = eig_abs_sorted(model.A_at(1))
        lam_min, lam_max = float(eigs[-1]), float(eigs[0])
        hint = lam_max < 1.0
        try:
            classification = classify(model, report=report)
        except UnobservableModelError:
            classification = None

    exp_fit = None
    fit_window = None
    try:
        alpha, beta = exponential_fit(psi_norms)
        exp_fit = (alpha, beta)
        fit_window = (len(psi_norms) // 2, len(psi_norms) - 1)
    except ValueError:
        pass

    return StabilityReport(
        eigenvalues_A=eigs, lambda_min_A=lam_min, lambda_max_A=lam_max,
        classification=classification, exp_fit=exp_fit,
        lyapunov_trace=v_trace, lyapunov_monotone=monotone,
        covariance_norm_trace=p_norm_trace, uniformly_stable_hint=hint,
        fit_window=fit_window,
    )
