"""Observability Gramians and uniform-observability certification.

The windowed Gramian

    O(k0+L, k0) = sum_{j=k0}^{k0+L-1} A(j,k0)^T H_j^T R_j^-1 H_j A(j,k0)

is positive definite exactly when the initial state is recoverable from the
window's observations.  A system is uniformly observable when one window
length L and bound rho > 0 work for every anchor k0; for LTI systems this
reduces to observability of a single window anchored at 0.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from ._linalg import eig_abs_sorted, spd_factor, symmetrize
from .model import observed_evolution_sequence

#: Half-width of the |lambda| = 1 band inside which the growth of
#: lambda_min(O(k,0)) is not classified.
SPECTRAL_BAND_TOL = 1e-9

#: Relative tolerance certifying that consecutive lambda_min values have
#: converged.  Meaningful only while cond(O) stays well under 1/eps.
CONVERGENCE_RTOL = 1e-9


class UnobservableModelError(ValueError):
    """An operation that requires observability got an unobservable model."""


@dataclass
class ObservabilityReport:
    """Outcome of a (uniform) observability check.

    verdict is "Observable" (with window length L and bound rho) or
    "NotObservableUpTo" (no window length up to L carried a Gramian bounded
    below by rho_tol).  lambda_min_trace holds lambda_min(O(k,0)) for
    k = 1..len(gramians).
    """

    verdict: str
    L: int
    rho: float | None
    gramians: list = field(repr=False, default_factory=list)
    lambda_min_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    growth_class: str | None = None
    growth_limit: float | None = None
    beta_fit: float | None = None

    @property
    def observable(self):
        return self.verdict == "Observable"

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "L": self.L,
            "rho": self.rho,
            "lambda_min_trace": [float(v) for v in self.lambda_min_trace],
            "growth_class": self.growth_class,
            "growth_limit": self.growth_limit,
            "beta_fit": self.beta_fit,
        }


@dataclass
class GramianGrowth:
    """Large-k behaviour of lambda_min(O(k,0)) for an observable LTI system."""

    growth_class: str
    lambda_min_trace: np.ndarray
    limit: float | None = None
    converged: bool = False
    beta: float | None = None
    log_intercept: float | None = None


def information_prefixes(model, count, start=0, observations=None):
    """Yield the running information of a window anchored at ``start``.

    Item k (k = 1..count) is (O(start+k, start), b_k) with
    b_k = sum_{j=start}^{start+k-1} H~_j^T R_j^-1 y(j), H~_j = H_j A(j,start),
    and y(j) row j - start of ``observations``; b_k is None without
    observations.  Each term weights the evolved observer by an SPD solve
    against R_j, and the Gramian is symmetrized after every term.  The items
    are new arrays, so a caller may keep them.
    """
    info = np.zeros((model.d, model.d))
    score = None if observations is None else np.zeros(model.d)
    for i, h_tilde in enumerate(observed_evolution_sequence(model, count, start)):
        weighted = cho_solve(spd_factor(model.R_at(start + i), f"R_{start + i}"), h_tilde)
        info = symmetrize(info + h_tilde.T @ weighted)
        if observations is not None:
            score = score + weighted.T @ observations[i]
        yield info, score


def gramian(model, k0, L):
    """Windowed observability Gramian O(k0+L, k0).

    The last item of ``information_prefixes``; L = 0 returns the zero
    matrix (empty sum).
    """
    if L < 0:
        raise ValueError(f"window length must be non-negative, got {L}")
    info = np.zeros((model.d, model.d))
    for info, _ in information_prefixes(model, L, start=k0):
        pass
    return info


def _lambda_min(info):
    return float(np.linalg.eigvalsh(info)[0])


def check_observability(model, L_max, rho_tol=1e-9):
    """Find the smallest window length certifying (uniform) observability.

    LTI systems need a single window anchored at 0.  For LTV models every
    anchor inside the finite data horizon is verified; nothing is
    extrapolated beyond the data.  Not finding a window is a verdict
    ("NotObservableUpTo"), not an error.
    """
    if L_max < 1:
        raise ValueError(f"L_max must be >= 1, got {L_max}")
    horizon = model.horizon
    k_max = L_max if horizon is None else min(L_max, horizon)
    gramians = [info for info, _ in information_prefixes(model, k_max)]
    trace = np.array([_lambda_min(info) for info in gramians])

    if model.is_lti and model.isotropic:
        for L in range(1, k_max + 1):
            if trace[L - 1] >= rho_tol:
                return ObservabilityReport(verdict="Observable", L=L,
                                           rho=trace[L - 1], gramians=gramians,
                                           lambda_min_trace=trace)
        return ObservabilityReport(verdict="NotObservableUpTo", L=k_max, rho=None,
                                   gramians=gramians, lambda_min_trace=trace)

    # Time-varying (a finite horizon): certify every window of length L
    # inside the horizon.  Anchor k0's windows grow by one term per L.
    windows = [information_prefixes(model, min(k_max, horizon - k0), start=k0)
               for k0 in range(horizon)]
    for L in range(1, k_max + 1):
        window_min = min(_lambda_min(next(w)[0]) for w in windows[:horizon - L + 1])
        if window_min >= rho_tol:
            return ObservabilityReport(verdict="Observable", L=L, rho=window_min,
                                       gramians=gramians, lambda_min_trace=trace)
    return ObservabilityReport(verdict="NotObservableUpTo", L=k_max, rho=None,
                               gramians=gramians, lambda_min_trace=trace)


def lambda_min_asymptotics(model, K, rho_tol=1e-9):
    """Classify the growth of lambda_min(O(k,0)) for k = 1..K (LTI only).

    Unbounded when min |eig(A)| > 1, with a log-linear fit of the trace's
    tail half (supporting a lower bound rho * exp(beta k)); convergent to a
    positive limit when min |eig(A)| < 1.  Within the 1e-9 band around 1 the
    class is Undetermined.
    """
    if not model.is_lti:
        raise ValueError("growth classification is defined for LTI models only")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    report = check_observability(model, L_max=model.d, rho_tol=rho_tol)
    if not report.observable:
        raise UnobservableModelError(
            f"model is not observable up to window length {model.d}")

    trace = np.array([_lambda_min(info) for info, _ in information_prefixes(model, K)])
    lam_min = float(eig_abs_sorted(model.A_at(1))[-1])

    if lam_min > 1.0 + SPECTRAL_BAND_TOL:
        ks = np.arange(1, K + 1)
        tail = slice(K // 2, K)
        slope, intercept = np.polyfit(ks[tail], np.log(trace[tail]), 1)
        return GramianGrowth(growth_class="Unbounded", lambda_min_trace=trace,
                             beta=float(slope), log_intercept=float(intercept))
    if lam_min < 1.0 - SPECTRAL_BAND_TOL:
        converged = abs(trace[-1] - trace[-2]) <= CONVERGENCE_RTOL * trace[-1]
        return GramianGrowth(growth_class="BoundedLimit", lambda_min_trace=trace,
                             limit=float(trace[-1]), converged=bool(converged))
    return GramianGrowth(growth_class="Undetermined", lambda_min_trace=trace)
