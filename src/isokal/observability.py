"""Observability Gramians and uniform-observability certification.

The windowed Gramian

    O(k0+L, k0) = sum_{j=k0}^{k0+L-1} A(j,k0)^T H_j^T R_j^-1 H_j A(j,k0)

is positive definite exactly when the initial state is recoverable from the
window's observations.  A system is uniformly observable when one window
length L and bound rho > 0 work for every anchor k0; for LTI systems this
reduces to observability of a single window anchored at 0.  Every Gramian
here is a sum of ``information_prefixes``, the one accumulator of them.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._linalg import symmetrize
from .model import NonFiniteError, advance_observed_evolution

#: Half-width of the |lambda| = 1 band inside which min |eig(A)| alone
#: classifies neither the growth of lambda_min(O(k,0)) nor the error dynamics.
SPECTRAL_BAND_TOL = 1e-9

#: Relative tolerance certifying that consecutive lambda_min values have
#: converged.  Meaningful only while cond(O) stays well under 1/eps.
CONVERGENCE_RTOL = 1e-9


class UnobservableModelError(ValueError):
    """An operation that requires observability got an unobservable model."""


class _Accumulator(NamedTuple):
    """The information accumulator after ``terms`` terms (see ``information_prefixes``).

    ``info`` stacks the Gramians of the windows still inside the horizon;
    ``h_tilde`` and ``phi`` are the observers and transitions of the last
    term, from which the next term advances.
    """

    terms: int
    info: np.ndarray
    h_tilde: np.ndarray
    phi: np.ndarray


@dataclass
class ObservabilityReport:
    """Outcome of a (uniform) observability check.

    verdict is "Observable" (with window length L and bound rho) or
    "NotObservableUpTo" (no window length up to L carried a Gramian bounded
    below by rho_tol).  lambda_min_trace holds lambda_min(O(k,0)) for
    k = 1..min(L_max, horizon).  L_max and rho_tol record the search that
    was made; they are not part of the JSON form.  The private
    ``_accumulator`` is the state of the anchor-0 information accumulator
    after the trace's last term, from which ``lambda_min_asymptotics``
    continues the trace; it is an init field, so ``dataclasses.replace``
    keeps it, and it takes no part in comparisons.
    """

    verdict: str
    L: int
    rho: float | None
    L_max: int
    rho_tol: float
    lambda_min_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _accumulator: _Accumulator | None = field(default=None, repr=False, compare=False)

    @property
    def observable(self):
        return self.verdict == "Observable"

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "L": self.L,
            "rho": self.rho,
            "lambda_min_trace": [float(v) for v in self.lambda_min_trace],
        }


@dataclass
class GramianGrowth:
    """Large-k behaviour of lambda_min(O(k,0)) for an observable LTI system."""

    growth_class: str
    lambda_min_trace: np.ndarray
    limit: float | None = None
    converged: bool = False
    beta: float | None = None


def information_prefixes(model, count, start=0, anchors=1):
    """Yield the Gramians of windows anchored at start, start+1, ..., one term at a time.

    Item k (k = 1..count) stacks O(a+k, a) over the anchors
    a = start..start+anchors-1 whose window still ends inside the horizon:
    anchors drop off the end of the stack as the windows grow, and row 0 is
    the window anchored at ``start``.

    With the model's Cholesky factors R_j = C_j C_j^T, every term adds the
    Gram product W^T W of the whitened observer W = C_j^-1 H~_j
    (``model.whiten``; no inverse is formed).  The Gramians are symmetrized
    after every term.  Only the current stack is held; the items are new
    arrays, so a caller may keep them.  Information that overflows float64
    raises NonFiniteError naming the step, and no numpy warning.
    """
    for acc in _accumulate(model, count, start, anchors):
        yield acc.info


def _accumulate(model, count, start=0, anchors=1, state=None):
    """Yield the ``_Accumulator`` after each of ``count`` more terms.

    The accumulation of ``information_prefixes``, continued from ``state``
    (an item of an earlier call with the same ``start``, or its leading
    rows, which then go on alone) or begun at term 0 when it is None.  Each
    row's terms are added in the same order with the same operations either
    way, so a continued accumulation carries the bits of one uninterrupted
    pass.
    """
    if count < 0 or anchors < 1:
        raise ValueError(f"need count >= 0 and anchors >= 1, got {count} and {anchors}")
    d, horizon = model.d, model.horizon
    done, n = 0, anchors
    if state is not None:
        done, info, h_tilde, phi = state
        n = info.shape[0]
    for j in range(done, done + count):
        k = start + j
        # Row 0's window must fit; anchors whose window would not fit drop off.
        model._check_horizon(k)
        if horizon is not None:
            n = min(n, horizon - k)
        # Overflow is reported by the check below, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            if j == 0:
                h_tilde = (np.broadcast_to(model.H_at(k), (n, model.m, d))
                           if model.lti_observation else model.H_seq[k:k + n])
                phi = np.broadcast_to(np.eye(d), (n, d, d))
                info = np.zeros((n, d, d))
            else:
                h_tilde, phi = advance_observed_evolution(model, k, h_tilde[:n], phi[:n])
            whitened = model.whiten(h_tilde, k)
            info = symmetrize(info[:n] + np.swapaxes(whitened, 1, 2) @ whitened)
            # A PSD Gram sum has |info_ij| <= sqrt(info_ii info_jj), so finite
            # diagonals bound every entry, and one scalar screens the stack.
            total = info.reshape(n, -1)[:, ::d + 1].sum()
        if not math.isfinite(total):
            _raise_overflow(info, k, start)
        yield _Accumulator(j + 1, info, h_tilde, phi)


def _raise_overflow(info, k, start):
    """NonFiniteError naming the first window whose information left float64 at step k.

    Nothing is raised when every window is finite: the screen's sum of
    finite entries can overflow on its own.
    """
    bad = np.flatnonzero(~np.isfinite(info).all(axis=(1, 2)))
    if bad.size:
        raise NonFiniteError(f"information of the window anchored at {start + bad[0]} is not "
                             f"finite at step {k + bad[0]}: the Gramian overflowed float64")


def gramian(model, k0, L):
    """Windowed observability Gramian O(k0+L, k0).

    Row 0 of the last item of ``information_prefixes``; L = 0 returns the
    zero matrix (empty sum).
    """
    if L < 0:
        raise ValueError(f"window length must be non-negative, got {L}")
    info = np.zeros((1, model.d, model.d))
    for info in information_prefixes(model, L, start=k0):
        pass
    return info[0]


def _lambda_min(gramians):
    """Smallest eigenvalue of a Gramian, or of each Gramian in a stack."""
    return np.linalg.eigvalsh(gramians)[..., 0]


def check_observability(model, L_max, rho_tol=1e-9):
    """Find the smallest window length certifying (uniform) observability.

    An LTI model with constant noise needs the single window anchored at 0;
    otherwise every anchor inside the finite data horizon is verified, the
    windows of all anchors growing together, and nothing is extrapolated
    beyond the data.  Row 0 of that stack is the anchor-0 window, whose
    lambda_min is the trace entry, so a window length it fails is not
    decomposed; past the certifying window the trace continues from row 0
    alone.  Not finding a window is a verdict ("NotObservableUpTo"), not an
    error.  ``rho_tol`` must be finite and positive.
    """
    if L_max < 1:
        raise ValueError(f"L_max must be >= 1, got {L_max}")
    if not (np.isfinite(rho_tol) and rho_tol > 0.0):
        raise ValueError(f"rho_tol must be finite and > 0, got {rho_tol!r}")
    horizon = model.horizon
    k_max = L_max if horizon is None else min(L_max, horizon)
    anchors = 1 if model.is_lti and model.isotropic else horizon
    trace, L, rho = [], k_max, None
    for acc in _accumulate(model, k_max, anchors=anchors):
        trace.append(_lambda_min(acc.info[0]))
        if trace[-1] >= rho_tol:
            window_min = trace[-1] if anchors == 1 else _lambda_min(acc.info).min()
            if window_min >= rho_tol:
                L, rho = acc.terms, float(window_min)
                break
    acc = acc._replace(info=acc.info[:1], h_tilde=acc.h_tilde[:1], phi=acc.phi[:1])
    for acc in _accumulate(model, k_max - L, state=acc):
        trace.append(_lambda_min(acc.info[0]))
    return ObservabilityReport(verdict="NotObservableUpTo" if rho is None else "Observable",
                               L=L, rho=rho, L_max=L_max, rho_tol=rho_tol,
                               lambda_min_trace=np.array(trace), _accumulator=acc)


def _require_observable(model, report=None):
    """The certifying report; UnobservableModelError unless the LTI model is observable.

    ``report``, a ``check_observability`` result for the model, is the
    certificate when its search covered L_max >= d: by Cayley-Hamilton the
    kernel of O(k,0) is fixed from k = d on, so a window of any length that
    meets rho_tol certifies the same rank condition.  Otherwise
    ``check_observability`` certifies the model afresh up to d at the
    report's rho_tol (1e-9 without a report), and that report is returned.
    """
    d = model.d
    if report is None or report.L_max < d:
        rho_tol = 1e-9 if report is None else report.rho_tol
        report = check_observability(model, L_max=d, rho_tol=rho_tol)
    if not report.observable:
        raise UnobservableModelError(f"model is not observable up to window length {d}")
    return report


def _tail_fit(values, what, first=0):
    """Slope and intercept of the line through log(values[i]) vs k = first + i, tail half.

    The tail half, entries len // 2 on, skips the transient; its entries must
    be positive.  A line through fewer than 3 points is no fit, so a shorter
    tail raises ValueError naming ``what``.
    """
    n = len(values)
    if n - n // 2 < 3:
        raise ValueError(f"the tail half of {what} holds {n - n // 2} point(s): "
                         f"a fitted rate needs at least 3")
    ks = np.arange(first + n // 2, first + n)
    slope, intercept = np.polyfit(ks, np.log(values[n // 2:]), 1)
    return float(slope), float(intercept)


def lambda_min_asymptotics(model, K, report=None):
    """Classify the growth of lambda_min(O(k,0)) for k = 1..K (LTI only).

    Unbounded when min |eig(A)| > 1, with a log-linear fit of the trace's
    tail half (supporting a lower bound rho * exp(beta k)); a tail entry
    that is not positive, where float64 no longer resolves lambda_min,
    raises ValueError naming its k instead of a fit.  So does K < 5, whose
    tail half holds fewer than 3 points.  Convergent to a
    positive limit when min |eig(A)| < 1.  Within the SPECTRAL_BAND_TOL band
    around 1 the class is Undetermined.  A ``check_observability``
    ``report`` of the model certifies it as ``_require_observable`` says.
    The certifying report's ``lambda_min_trace`` is the head of the trace,
    and the trace continues from the accumulator the report ends in: every
    information term is added once, and only Gramians past the head are
    decomposed.  min |eig(A)| is the model's ``eigs_abs``.
    """
    if not model.is_lti:
        raise ValueError("growth classification is defined for LTI models only")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    report = _require_observable(model, report)

    # The report's trace is row 0 of the same accumulator through the same
    # _lambda_min, and the accumulation continues where it stopped, so every
    # entry carries the bits of one pass from step 0.
    head = list(report.lambda_min_trace[:K])
    more = _accumulate(model, K - len(head), state=report._accumulator) if len(head) < K else ()
    trace = np.array(head + [_lambda_min(acc.info[0]) for acc in more])
    lam_min = float(model.eigs_abs[-1])

    if lam_min > 1.0 + SPECTRAL_BAND_TOL:
        unresolved = np.flatnonzero(~(trace[K // 2:] > 0.0))
        if unresolved.size:
            k = K // 2 + int(unresolved[0]) + 1
            raise ValueError(f"lambda_min(O(k,0)) = {trace[k - 1]:.3e} at k = {k} is not "
                             f"positive: float64 no longer resolves it, so no growth rate "
                             f"is fitted")
        slope, _ = _tail_fit(trace, f"lambda_min(O(k,0)), k = 1..{K},", first=1)
        return GramianGrowth(growth_class="Unbounded", lambda_min_trace=trace, beta=slope)
    if lam_min < 1.0 - SPECTRAL_BAND_TOL:
        converged = abs(trace[-1] - trace[-2]) <= CONVERGENCE_RTOL * trace[-1]
        return GramianGrowth(growth_class="BoundedLimit", lambda_min_trace=trace,
                             limit=float(trace[-1]), converged=bool(converged))
    return GramianGrowth(growth_class="Undetermined", lambda_min_trace=trace)
