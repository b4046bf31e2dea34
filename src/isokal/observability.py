"""Observability Gramians and uniform-observability certification.

The windowed Gramian

    O(k0+L, k0) = sum_{j=k0}^{k0+L-1} A(j,k0)^T H_j^T R_j^-1 H_j A(j,k0)

is positive definite exactly when the initial state is recoverable from the
window's observations.  A system is uniformly observable when one window
length L and bound rho > 0 work for every anchor k0; for LTI systems this
reduces to observability of a single window anchored at 0.  The windows of
one anchor are one stack, ``_anchored``; those of many anchors grow together
in ``information_prefixes``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import extreme_eigenvalues
from .model import NonFiniteError, advance_observed_evolution, observed_evolution_sequence

#: Half-width of the |lambda| = 1 band inside which min |eig(A)| alone
#: classifies neither the growth of lambda_min(O(k,0)) nor the error dynamics.
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
    k = 1..min(L_max, horizon).  L_max and rho_tol record the search that
    was made; they are not part of the JSON form, and neither is ``_end``,
    the last Gramian and observer of the anchor-0 stack behind the trace,
    from which ``lambda_min_asymptotics`` carries the stack on.
    """

    verdict: str
    L: int
    rho: float | None
    L_max: int
    rho_tol: float
    lambda_min_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _end: tuple | None = field(default=None, repr=False, compare=False)

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


def _anchored(model, count, start=0, after=None):
    """The Gramians O(start+k, start), k = 1..count, as one (count, d, d) stack, and the observers.

    One observer walk, one ``model.whiten``, one batched Gram product
    W_j^T W_j and one running sum.  numpy forms x^T x by syrk and mirrors
    its triangle, so every term and every sum is exactly symmetric.  Row
    k-1 has the bits of row 0 of item k of ``information_prefixes``.
    ``after``, the last Gramian and observer of an LTI model's anchor-0
    stack of ``start`` rows, carries that walk and sum on instead: the
    observers advance by H~_j = H~_j-1 A, and the rows are O(start+k, 0),
    with the bits of the last ``count`` rows of one stack of start + count.
    Overflow raises NonFiniteError naming the step, and no numpy warning.
    """
    model._check_horizon(start + count - 1)
    # Overflow is reported by the check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if after is None:
            h_tilde = observed_evolution_sequence(model, count, start)[0]
        else:
            h_tilde, observer, a = np.empty((count, model.m, model.d)), after[1], model.A_at(1)
            for row in h_tilde:
                observer = np.matmul(observer, a, out=row)
        whitened = model.whiten(h_tilde, start)
        info = np.swapaxes(whitened, 1, 2) @ whitened
        if after is not None:
            np.add(after[0], info[0], out=info[0])
        for k in range(1, count):
            np.add(info[k - 1], info[k], out=info[k])
        # Diagonals only grow along the sum, so the last one screens the stack.
        total = np.trace(info[-1])
    if not math.isfinite(total):
        anchor = start if after is None else 0
        _raise_overflow(info, [anchor] * count, range(start, start + count))
    return info, h_tilde


def information_prefixes(model, count, start=0, anchors=1):
    """Yield the Gramians of windows anchored at start, start+1, ..., one term at a time.

    Item k (k = 1..count) stacks O(a+k, a) over the anchors
    a = start..start+anchors-1 whose window still ends inside the horizon:
    anchors drop off the end of the stack as the windows grow, and row 0 is
    the window anchored at ``start``.

    With the model's Cholesky factors R_j = C_j C_j^T, every term adds the
    Gram product W^T W of the whitened observer W = C_j^-1 H~_j
    (``model.whiten``; no inverse is formed), exactly symmetric as in
    ``_anchored``.  Only the current stack is held; the items are new
    arrays, so a caller may keep them.  Information that overflows float64
    raises NonFiniteError naming the step, and no numpy warning.
    """
    if count < 0 or anchors < 1:
        raise ValueError(f"need count >= 0 and anchors >= 1, got {count} and {anchors}")
    d, horizon, n = model.d, model.horizon, anchors
    for j in range(count):
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
            info = info[:n] + np.swapaxes(whitened, 1, 2) @ whitened
            # A PSD Gram sum has |info_ij| <= sqrt(info_ii info_jj), so finite
            # diagonals bound every entry, and one scalar screens the stack.
            total = info.reshape(n, -1)[:, ::d + 1].sum()
        if not math.isfinite(total):
            _raise_overflow(info, range(start, start + n), range(k, k + n))
        yield info


def _raise_overflow(info, anchors, steps):
    """NonFiniteError naming the first non-finite row i: window anchors[i] at step steps[i].

    None when every row is finite (the screen's sum can overflow on its own).
    """
    bad = np.flatnonzero(~np.isfinite(info).all(axis=(1, 2)))
    if bad.size:
        raise NonFiniteError(f"information of the window anchored at {anchors[bad[0]]} is not "
                             f"finite at step {steps[bad[0]]}: the Gramian overflowed float64")


def gramian(model, k0, L):
    """Windowed observability Gramian O(k0+L, k0): the last row of ``_anchored``, 0 for L = 0."""
    if L < 0:
        raise ValueError(f"window length must be non-negative, got {L}")
    return _anchored(model, L, k0)[0][-1].copy() if L else np.zeros((model.d, model.d))


def _lambda_min(gramians):
    """Smallest eigenvalue of a Gramian, or of each Gramian in a stack.

    ``extreme_eigenvalues``: eigvalsh's first entry below d = 32, one
    bisection per Gramian from there on.
    """
    return extreme_eigenvalues(gramians)


def check_observability(model, L_max, rho_tol=1e-9):
    """Find the smallest window length certifying (uniform) observability.

    The trace is one ``_lambda_min`` of the ``_anchored`` stack, whose
    last Gramian and observer the report keeps (``_end``).  An LTI
    model with constant noise needs the window anchored at 0 alone;
    otherwise every anchor inside the finite data horizon is verified, and
    nothing is extrapolated beyond the data.  The other anchors' windows of
    a length are screened only where anchor 0's passes, whose value is
    the trace's.  Not finding a window is a verdict ("NotObservableUpTo"),
    not an error.  ``rho_tol`` must be finite and positive.
    """
    if L_max < 1:
        raise ValueError(f"L_max must be >= 1, got {L_max}")
    if not (np.isfinite(rho_tol) and rho_tol > 0.0):
        raise ValueError(f"rho_tol must be finite and > 0, got {rho_tol!r}")
    horizon = model.horizon
    k_max = L_max if horizon is None else min(L_max, horizon)
    info, h_tilde = _anchored(model, k_max)
    trace, end = _lambda_min(info), (info[-1].copy(), h_tilde[-1].copy())
    L, rho = k_max, None
    if model.is_lti and model.isotropic:
        passing = np.flatnonzero(trace >= rho_tol)
        if passing.size:
            L, rho = int(passing[0]) + 1, float(trace[passing[0]])
    else:
        for length, info in enumerate(information_prefixes(model, k_max, anchors=horizon), 1):
            if trace[length - 1] >= rho_tol:
                window_min = _lambda_min(info[1:]).min(initial=trace[length - 1])
                if window_min >= rho_tol:
                    L, rho = length, float(window_min)
                    break
    return ObservabilityReport(verdict="NotObservableUpTo" if rho is None else "Observable",
                               L=L, rho=rho, L_max=L_max, rho_tol=rho_tol,
                               lambda_min_trace=trace, _end=end)


def _require_observable(model, report=None):
    """The certifying report; UnobservableModelError unless the LTI model is observable.

    ``report``, a ``check_observability`` result for the model, is the
    certificate when its search covered L_max >= d: by Cayley-Hamilton the
    kernel of O(k,0) is fixed from k = d on, so a window of any length that
    meets rho_tol certifies the same rank condition.  Otherwise, or when the
    report holds no anchor-0 stack end (it was not made by
    ``check_observability``), ``check_observability`` certifies the model
    afresh up to d at the report's rho_tol (1e-9 without a report), and
    that report is returned.
    """
    d = model.d
    if report is None or report.L_max < d or report._end is None:
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
    ``report`` of the model certifies it as ``_require_observable`` says;
    its ``lambda_min_trace`` holds the leading rows, and the rows past it
    carry the report's stack on from its last Gramian and observer, so no
    Gramian is built or decomposed twice.  min |eig(A)| is ``eigs_abs``.
    """
    if not model.is_lti:
        raise ValueError("growth classification is defined for LTI models only")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    report = _require_observable(model, report)

    head = report.lambda_min_trace[:K]
    tail = (_lambda_min(_anchored(model, K - len(head), len(head), after=report._end)[0])
            if len(head) < K else ())
    trace = np.concatenate([head, tail])
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
