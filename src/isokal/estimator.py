"""Recursive minimum-variance estimation of the initial state.

Each new observation y(k-1) refines the running estimate of x0:

    K_k    = P_{k-1} H~_{k-1}^* (H~_{k-1} P_{k-1} H~_{k-1}^* + R_{k-1})^-1
    x^_k   = x^_{k-1} + K_k (y(k-1) - H~_{k-1} x^_{k-1})
    P_k    = (I - K_k H~_{k-1}) P_{k-1} (I - K_k H~_{k-1})^* + K_k R_{k-1} K_k^*

where H~_k = H_k A(k,0) observes the evolved initial state.  The covariance
is propagated in the Joseph form above (PSD-preserving under rounding); the
algebraically equal short form (I - K H~) P is checked against it at every
update.  P_k, K_k and H~_k never depend on the observed values, so
``gain_schedule`` computes them once for any number of observation streams.
``wls_prefixes`` solves the same weighted least-squares problem from the
normal equations and serves as an independent cross-check.

Adjoints are written as transposes: all data is real, and a complex
extension would only swap in conjugate transposes.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

from ._linalg import asymmetry, readonly, spd_factor, spd_inverse, spectral_norm, symmetrize
from .model import (_SYMMETRY_RTOL, HorizonError, advance_observed_evolution,
                    observed_evolution_sequence)
from .observability import information_prefixes

# Stored covariances may carry rounding-level negative eigenvalues; anything
# below -PSD_SLACK * trace(P) signals a genuinely corrupted state.
PSD_SLACK = 1e-12

#: Mixed absolute/relative bound on the spectral-norm gap between the
#: Joseph and short-form covariance updates.
JOSEPH_TOL = 1e-8


@dataclass(frozen=True)
class EstimatorState:
    """Filter state after consuming ``step`` observations.

    x_hat is the current estimate of the initial state, P its error
    covariance, and H_tilde_next the observer H~_step that applies to the
    next observation y(step).  phi is the transition A(step,0) for
    time-varying models; fully LTI models never advance it from I.
    """

    step: int
    x_hat: np.ndarray
    P: np.ndarray
    # None once the model's finite data horizon is exhausted.
    H_tilde_next: np.ndarray | None
    phi: np.ndarray


@dataclass(frozen=True)
class GainSchedule:
    """Read-only observation-independent part of a T-step filter pass."""

    h_tilde: np.ndarray       # (T, m, d): H~_k, k = 0..T-1
    gain: np.ndarray          # (T, d, m): K_k+1, applied to y(k)
    P: np.ndarray             # (T+1, d, d): P_k, k = 0..T


def _state_vector(value, d, name):
    """``value`` as a finite d-vector; ValueError naming ``name`` otherwise."""
    value = np.asarray(value, dtype=float).reshape(-1)
    if value.shape != (d,):
        raise ValueError(f"{name} has length {value.shape[0]}, model state dimension is {d}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _prior(model, x_hat0, P0):
    """The prior (x_hat0, P0), checked; the one place its contract is enforced.

    x_hat0=None means the zero vector and a scalar p means p * I.  x_hat0
    must be a finite d-vector and P0 a finite (d, d) matrix (ValueError
    otherwise), symmetric to within 1e-12 of its largest entry and positive
    definite (LinAlgError otherwise).  Returns x_hat0 and the symmetric
    part of P0.
    """
    d = model.d
    x_hat0 = np.zeros(d) if x_hat0 is None else _state_vector(x_hat0, d, "x_hat0")
    if np.isscalar(P0):
        P0 = np.diag(np.full(d, float(P0)))
    P0 = np.asarray(P0, dtype=float)
    if P0.shape != (d, d):
        raise ValueError(f"P0 has shape {P0.shape}, expected ({d}, {d})")
    if not np.all(np.isfinite(P0)):
        raise ValueError("P0 must be finite")
    if asymmetry(P0) > _SYMMETRY_RTOL:
        raise np.linalg.LinAlgError("P0 is not symmetric")
    P0 = symmetrize(P0)
    lam_min = np.linalg.eigvalsh(P0)[0]
    if lam_min <= 0.0:
        raise np.linalg.LinAlgError(f"P0 is not positive definite (lambda_min={lam_min:.3e})")
    return x_hat0, P0


def init(model, x_hat0, P0):
    """Initial filter state from prior guesses for x0 and its covariance.

    P0 must be symmetric positive definite; a scalar p is shorthand for
    p * I, and x_hat0=None for the zero vector.
    """
    x_hat0, P0 = _prior(model, x_hat0, P0)
    return EstimatorState(step=0, x_hat=readonly(x_hat0), P=readonly(P0),
                          H_tilde_next=readonly(model.H_at(0)), phi=readonly(np.eye(model.d)))


def _psd_split(P):
    """Eigendecomposition-based PSD factor F with P = F F^T (up to clipping).

    The fallback of ``_gain_pieces`` for a P that Cholesky cannot factor:
    zero, rank-deficient or rounding-level indefinite.  Rounding can leave
    slightly negative eigenvalues in a propagated covariance; they are
    clipped to zero.  Eigenvalues below the PSD_SLACK budget mean the state
    is corrupted and raise instead.
    """
    w, u = np.linalg.eigh(symmetrize(P))
    scale = max(float(P.trace()), 1e-300)
    if w[0] < -PSD_SLACK * scale:
        raise np.linalg.LinAlgError(
            f"covariance lost positive semidefiniteness "
            f"(lambda_min={w[0]:.3e}, trace={scale:.3e})")
    np.maximum(w, 0.0, out=w)
    return w, u, u * np.sqrt(w)


def _indefinite_innovation(hf, R, k):
    """Message for an innovation covariance (H~ F)(H~ F)^T + R that Cholesky rejects.

    When the rounding of the Gram product, eps ||H~ F||_F^2, reaches
    lambda_min(R) > 0, the sum cannot resolve R any more: the covariance of
    the x0 parameterization has outgrown float64, and the message says so.
    """
    message = "innovation covariance is not positive definite"
    if k is not None:
        message += f" at step {k}"
    rounding = np.finfo(float).eps * float(np.vdot(hf, hf))
    lam_r = float(np.linalg.eigvalsh(symmetrize(R))[0])
    if 0.0 < lam_r <= rounding:
        message += (f": float64 precision is exhausted (eps ||H~ F||_F^2 = {rounding:.3e}"
                    f" >= lambda_min(R) = {lam_r:.3e})")
    return message


def _gain_pieces(P, h_tilde, R, k=None):
    """Gain, innovation covariance and the PSD factor F of P used to build them.

    F is the Cholesky factor L of P (LAPACK ``dpotrf``), and P H~^T is
    taken from the stored P.  A successful factorization means P is
    numerically positive definite: Cholesky is backward stable, so L L^T is
    P plus a perturbation of order d eps ||P||, and lambda_min(P) >=
    -O(d eps ||P||), far inside the PSD_SLACK * trace(P) budget.  No P that
    the eigenvalue test would reject therefore passes here.  Only when the
    factorization fails (P zero, rank-deficient, rounding-level indefinite
    or corrupted) or its factor is not finite does the eigen-split of
    ``_psd_split`` take over, with its clipping and its PSD_SLACK error;
    a P that is not finite raises ValueError first.

    The innovation covariance is assembled as a Gram product
    (H~ F)(H~ F)^T + R so it cannot drop below R through cancellation, and
    is then factorized (Cholesky, straight through LAPACK); its explicit
    inverse is never formed.  ``k``, the index of the observation, only
    labels that factorization's failure.
    """
    R = np.asarray(R, dtype=float)
    m = h_tilde.shape[0]
    if R.shape != (m, m):
        raise ValueError(f"noise covariance has shape {R.shape}, expected ({m}, {m})")
    f, info = dpotrf(P, lower=1, clean=1)
    if info == 0 and np.isfinite(f).all():
        p_ht = P @ h_tilde.T
    else:
        if not np.isfinite(P).all():
            raise ValueError("covariance is not finite")
        w, u, f = _psd_split(P)
        # P H~^T of the clipped P from the eigenpairs: (U W)(H~ U)^T skips
        # the square roots that F (H~ F)^T would multiply back together.
        p_ht = (u * w) @ (h_tilde @ u).T
    hf = h_tilde @ f
    sigma = symmetrize(hf @ hf.T + R)
    if not np.isfinite(sigma).all():
        raise ValueError("innovation covariance is not finite")
    factor, info = dpotrf(sigma, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(_indefinite_innovation(hf, R, k))
    gain, _ = dpotrs(factor, p_ht.T, lower=1)
    return gain.T, sigma, f


def _check_joseph(p_joseph, p_short):
    """Raise unless ||P_J - P_S||_2 <= JOSEPH_TOL * (1 + ||P_J||_2).

    ||X||_2 <= ||X||_F and ||P||_2 >= ||P||_F / sqrt(d), so a gap within
    half the Frobenius form of the bound passes the spectral test too (the
    half keeps rounding in either norm from flipping the decision); only
    the remaining cases pay for the two SVDs.  A non-finite form, such as
    one from a NaN that the Cholesky factor of P did not read, raises.
    """
    gap = p_joseph - p_short
    gap_f = math.sqrt(np.vdot(gap, gap))
    p_f = math.sqrt(np.vdot(p_joseph, p_joseph))
    if math.isfinite(p_f) and gap_f <= 0.5 * JOSEPH_TOL * (1.0 + p_f / math.sqrt(len(p_joseph))):
        return
    if not (np.isfinite(p_joseph).all() and np.isfinite(p_short).all()):
        raise np.linalg.LinAlgError("covariance is not finite")
    if spectral_norm(gap) > JOSEPH_TOL * (1.0 + spectral_norm(p_joseph)):
        raise np.linalg.LinAlgError("Joseph and short-form covariance updates disagree")


def _update(P, h_tilde, R, r_factor=None, k=None):
    """Gain K and updated covariance for one observation y(k) through h_tilde.

    The covariance update is the Joseph form, evaluated as a sum of two
    Gram products so the result stays PSD at rounding level even when P
    spans many orders of magnitude.  ``r_factor`` is the lower Cholesky
    factor of R when the caller already holds it; otherwise R is
    factorized here.
    """
    R = np.asarray(R, dtype=float)
    k_gain, _, f = _gain_pieces(P, h_tilde, R, k)
    # I - K H~ without an identity temporary: 0 - x, then 1 + (-x) on the
    # diagonal, carries the same bits as I - K H~.
    kh = k_gain @ h_tilde
    mix = np.subtract(0.0, kh, out=kh)
    mix.reshape(-1)[:: P.shape[0] + 1] += 1.0
    mf = mix @ f
    if r_factor is None:
        r_factor = np.linalg.cholesky(symmetrize(R))
    kl = k_gain @ r_factor
    p_next = symmetrize(mf @ mf.T + kl @ kl.T)
    _check_joseph(p_next, symmetrize(mix @ P))
    return k_gain, p_next


def step(state, y_prev, R_prev, model):
    """Consume observation y(state.step) and return the refined state."""
    return _step(state, y_prev, R_prev, None, model)


def _step(state, y_prev, R_prev, r_factor, model):
    """``step``, given the lower Cholesky factor of R_prev when the caller holds it."""
    if state.H_tilde_next is None:
        raise HorizonError(f"no observation available at step {state.step}")
    y_prev = np.asarray(y_prev, dtype=float).reshape(-1)
    h_tilde = state.H_tilde_next
    if y_prev.shape != (h_tilde.shape[0],):
        raise ValueError(f"observation has length {y_prev.shape[0]}, expected {h_tilde.shape[0]}")

    k_gain, p_next = _update(state.P, h_tilde, R_prev, r_factor, state.step)
    x_next = state.x_hat + k_gain @ (y_prev - h_tilde @ state.x_hat)

    k_next = state.step + 1
    try:
        h_next, phi = advance_observed_evolution(model, k_next, h_tilde, state.phi)
        h_next = readonly(h_next)
    except HorizonError:
        h_next, phi = None, state.phi
    # Frozen in place, not copied: LTI models hand back the previous phi.
    phi.flags.writeable = False
    return EstimatorState(step=k_next, x_hat=readonly(x_next), P=readonly(p_next),
                          H_tilde_next=h_next, phi=phi)


def _as_observations(observations, m):
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        return np.zeros((0, m))
    if obs.ndim == 1:
        obs = obs.reshape(-1, 1) if m == 1 else obs.reshape(1, -1)
    if obs.ndim != 2 or obs.shape[1] != m:
        raise ValueError(f"observations must be rows of length m={m}, got shape {obs.shape}")
    bad = np.flatnonzero(~np.isfinite(obs).all(axis=1))
    if bad.size:
        raise ValueError(f"observations must be finite; row {bad[0]} is not")
    return obs


def run(model, x_hat0, P0, observations):
    """Fold ``step`` over observations y(0), y(1), ...

    Returns the full list of states [state_0, ..., state_N] so every
    intermediate (real-time) estimate is available; an empty observation
    sequence returns just the initial state.  Each step reads the model's
    own factor of R_k instead of factorizing it again.
    """
    observations = _as_observations(observations, model.m)
    states = [init(model, x_hat0, P0)]
    factors = model.noise_factors(len(observations))
    for t, y in enumerate(observations):
        # R_at raises HorizonError past a per-step sequence, before factors[t] is read.
        states.append(_step(states[-1], y, model.R_at(t), factors[t], model))
    return states


def gain_schedule(model, P0, T):
    """Observers, gains and covariances of a T-step filter pass from P0.

    One pass of the same recursion ``step`` runs, with the same checks at
    every step; the result applies to every observation stream of the
    model.  The factors of R_k are the model's own.
    """
    h_tilde = np.empty((T, model.m, model.d))
    gains = np.empty((T, model.d, model.m))
    covs = np.empty((T + 1, model.d, model.d))
    covs[0] = _prior(model, None, P0)[1]
    r_factors = model.noise_factors(T)
    for k, h in enumerate(observed_evolution_sequence(model, T)):
        h_tilde[k] = h
        gains[k], covs[k + 1] = _update(covs[k], h, model.R_at(k), r_factors[k], k)
    for arr in (h_tilde, gains, covs):
        arr.flags.writeable = False
    return GainSchedule(h_tilde=h_tilde, gain=gains, P=covs)


def covariance_sequence(model, P0, k_max):
    """The deterministic covariance trajectory P_0, ..., P_k_max.

    One read-only (k_max+1, d, d) stack, the ``P`` of ``gain_schedule``.
    """
    return gain_schedule(model, P0, k_max).P


def wls_prefixes(model, x_hat0, P0, observations):
    """Yield the weighted least-squares estimate of x0 from y(0..k-1), k = 0..N.

    Prefix k minimizes

        (x - x^_0)^T P0^-1 (x - x^_0)
            + sum_{j<k} (y(j) - H~_j x)^T R_j^-1 (y(j) - H~_j x)

    by factorizing the SPD normal matrix P0^-1 + O(k,0) and solving against
    P0^-1 x^_0 + sum_{j<k} H~_j^T R_j^-1 y(j).  The sums are the running
    information of ``information_prefixes``, consumed one step at a time.
    """
    x_hat0, P0 = _prior(model, x_hat0, P0)
    observations = _as_observations(observations, model.m)
    p0_inv = spd_inverse(P0, "P0")
    p0_x = p0_inv @ x_hat0
    prefixes = ((info[0], score[0]) for info, score in
                information_prefixes(model, observations.shape[0], observations=observations))
    # The prior alone, then one more observation per prefix.
    for info, score in chain([(0.0, 0.0)], prefixes):
        yield cho_solve(spd_factor(p0_inv + info, "normal matrix"), p0_x + score)


def batch_wls(model, x_hat0, P0, observations):
    """Weighted least-squares estimate of x0 from all observations (last ``wls_prefixes`` item)."""
    return deque(wls_prefixes(model, x_hat0, P0, observations), maxlen=1)[0]
