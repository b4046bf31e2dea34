"""Recursive minimum-variance estimation of the initial state.

Each new observation y(k-1) refines the running estimate of x0:

    K_k    = P_{k-1} H~_{k-1}^* (H~_{k-1} P_{k-1} H~_{k-1}^* + R_{k-1})^-1
    x^_k   = x^_{k-1} + K_k (y(k-1) - H~_{k-1} x^_{k-1})
    P_k    = (I - K_k H~_{k-1}) P_{k-1} (I - K_k H~_{k-1})^* + K_k R_{k-1} K_k^*

where H~_k = H_k A(k,0) observes the evolved initial state.  The covariance
is propagated in the Joseph form above (PSD-preserving under rounding); the
algebraically equal short form P - K (H~ P) is checked against it at every
update.  P_k, K_k and H~_k never depend on the observed values, so
``gain_schedule`` computes them once for any number of streams, over one
``observed_evolution_sequence`` walk, and ``run`` folds the estimate update
over it; ``step`` takes one observation at a time.  A pass whitens its
observers once (``SystemModel.whiten``); when the trace of O(T,0) over them
proves every P_k^-1 = P0^-1 + O(k,0) well conditioned, it is the information
form, batched prefix sums and inverses, and otherwise the Joseph recursion.
``wls_prefixes`` solves the same weighted least-squares problem over the
same observers by QR updates of a factor no pass shares, a cross-check.
Those QR updates and the Joseph update call LAPACK directly, through the
f2py wrappers of scipy's extension module that ``_linalg.lapack`` loads
on first use (without the ``scipy.linalg`` package), whose calls cost a
fraction of numpy's on small matrices; the rest of the module runs on
numpy, so a pass in information form never loads those wrappers.

Adjoints are written as transposes: all data is real, and a complex
extension would only swap in conjugate transposes.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _linalg
from ._linalg import asymmetry, readonly, spd_factor, spd_inverse, spectral_norm, symmetrize
from .model import (_SYMMETRY_RTOL, HorizonError, NonFiniteError, advance_observed_evolution,
                    observed_evolution_sequence)

# Stored covariances may carry rounding-level negative eigenvalues; anything
# below -PSD_SLACK * trace(P) signals a genuinely corrupted state.
PSD_SLACK = 1e-12

#: Mixed absolute/relative bound on the spectral-norm gap between the
#: Joseph and short-form covariance updates.  The information form of a
#: pass uses it twice: as the limit on d eps times its condition bound, and
#: as the bound on every residual ||P_k N_k - I||_F.
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
    form: str                 # "information" or "joseph": the recursion that ran
    cond_bound: float         # the bound on cond_2(P_k^-1) that chose it


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
    lapack = _linalg.lapack
    f, info = lapack.dpotrf(P, lower=1, clean=1)
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
    factor, info = lapack.dpotrf(sigma, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(_indefinite_innovation(hf, R, k))
    gain, _ = lapack.dpotrs(factor, p_ht.T, lower=1)
    return gain.T, sigma, f


def _check_joseph(p_joseph, p_short, k=None):
    """Raise unless ||P_J - P_S||_2 <= JOSEPH_TOL * (1 + ||P_J||_2) at the update of step k.

    ||X||_2 <= ||X||_F and ||P||_2 >= ||P||_F / sqrt(d), so a gap within
    half the Frobenius form of the bound passes the spectral test too (the
    half keeps rounding in either norm from flipping the decision); only
    the remaining cases pay for the two SVDs.  A non-finite form, such as
    one from a NaN that the Cholesky factor of P did not read, raises.
    Both messages name step ``k`` when it is given; a disagreement also
    gives the gap and its bound.
    """
    gap = p_joseph - p_short
    gap_f = math.sqrt(np.vdot(gap, gap))
    p_f = math.sqrt(np.vdot(p_joseph, p_joseph))
    if math.isfinite(p_f) and gap_f <= 0.5 * JOSEPH_TOL * (1.0 + p_f / math.sqrt(len(p_joseph))):
        return
    at = "" if k is None else f" at step {k}"
    if not (np.isfinite(p_joseph).all() and np.isfinite(p_short).all()):
        raise np.linalg.LinAlgError(f"covariance is not finite{at}")
    gap_2, bound = spectral_norm(gap), JOSEPH_TOL * (1.0 + spectral_norm(p_joseph))
    if gap_2 > bound:
        raise np.linalg.LinAlgError(f"Joseph and short-form covariance updates disagree{at}: "
                                    f"||P_J - P_S||_2 = {gap_2:.3e} > {bound:.3e}")


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
    # numpy forms x @ x.T by syrk, so the Joseph sum is exactly symmetric.
    p_next = mf @ mf.T + kl @ kl.T
    _check_joseph(p_next, P - k_gain @ (h_tilde @ P), k)
    return k_gain, p_next


def _check_observer(h_tilde, k):
    """Raise NonFiniteError when the observer H~_k of step k is not finite.

    Filter passes run with numpy's overflow warnings off, so an observer
    that left float64 would otherwise surface only as a non-finite
    innovation covariance, with no step named.
    """
    if not np.isfinite(h_tilde).all():
        raise NonFiniteError(f"observer H~ of step {k} is not finite: the dynamics overflowed "
                             "float64, so the innovation covariance is not finite")


def step(state, y_prev, R_prev, model):
    """Consume observation y(state.step) and return the refined state.

    The observation must be finite (ValueError otherwise), and so must the
    state's observer and the new estimate (NonFiniteError naming the step
    otherwise, as ``run`` names it).
    """
    y_prev = np.asarray(y_prev, dtype=float).reshape(-1)
    if not np.isfinite(y_prev).all():
        raise ValueError(f"observation y({state.step}) must be finite")
    h_tilde = state.H_tilde_next
    if h_tilde is None:
        raise HorizonError(f"no observation available at step {state.step}")
    _check_observer(h_tilde, state.step)
    if y_prev.shape != (h_tilde.shape[0],):
        raise ValueError(f"observation has length {y_prev.shape[0]}, expected {h_tilde.shape[0]}")

    k_gain, p_next = _update(state.P, h_tilde, R_prev, k=state.step)
    try:
        # An overflowed estimate is reported below, an overflowed observer by
        # the next step, not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            x_next = state.x_hat + (y_prev - state.x_hat @ h_tilde.T) @ k_gain.T
            h_next, phi = advance_observed_evolution(model, state.step + 1, h_tilde, state.phi)
        # Frozen in place, not copied: LTI models hand back the previous phi.
        h_next.flags.writeable = phi.flags.writeable = False
    except HorizonError:
        h_next, phi = None, state.phi
    if not np.isfinite(x_next).all():
        raise NonFiniteError(f"estimate at step {state.step + 1} is not finite: "
                             "it overflowed float64")
    return EstimatorState(step=state.step + 1, x_hat=readonly(x_next), P=readonly(p_next),
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


def _joseph_schedule(model, P0, h_tilde):
    """Gains and covariances of the Joseph recursion over the observers ``h_tilde``.

    Every update has the checks of ``step``; the factors of R_k are the
    model's own.  Returns the writable (T, d, m) gains and (T+1, d, d)
    covariances, P_0 = P0.
    """
    T = len(h_tilde)
    gains = np.empty((T, model.d, model.m))
    covs = np.empty((T + 1, model.d, model.d))
    covs[0] = P0
    r_factors = model.noise_factors(T)
    # An overflowed observer is reported by _check_observer, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, h in enumerate(h_tilde):
            try:
                gains[k], covs[k + 1] = _update(covs[k], h, model.R_at(k), r_factors[k], k)
            except (ValueError, np.linalg.LinAlgError):
                _check_observer(h, k)
                raise
    return gains, covs


def _information_bound(P0, whitened):
    """A priori bound on cond_2(N_k), N_k = P0^-1 + O(k,0), for every k = 0..T.

    N_0 <= N_k <= N_T bounds cond_2(N_k) by (1 / lambda_min(P0) + trace O(T,0))
    lambda_max(P0), where trace O(T,0) = ||W||_F^2 over the whitened observers
    W_k = C_k^-1 H~_k; inf or NaN when one overflowed.
    """
    w = np.linalg.eigvalsh(P0)
    return float((1.0 / w[0] + np.einsum("kij,kij->", whitened, whitened)) * w[-1])


def _information_schedule(model, P0, whitened):
    """Gains and covariances of the information form over the whitened observers W_k.

    N_k = P0^-1 + sum_{j<k} W_j^T W_j is a prefix sum and P_k = N_k^-1 one
    batched LU inverse, symmetrized, unrefined: the gate admits only
    well-conditioned N_k.  P_0 is P0 itself; the gains are those of ``step``.
    Every P_k must satisfy ||P_k N_k - I||_F <= JOSEPH_TOL (LinAlgError
    naming the first k that does not).  Returns the writable (T, d, m)
    gains and (T+1, d, d) covariances.
    """
    T, d = len(whitened), model.d
    info = np.empty((T + 1, d, d))
    info[0] = spd_inverse(P0, "P0")
    np.cumsum(np.swapaxes(whitened, 1, 2) @ whitened, axis=0, out=info[1:])
    info[1:] += info[0]
    covs = symmetrize(np.linalg.inv(info))
    covs[0] = P0
    residual = covs @ info - np.eye(d)
    gap = np.sqrt(np.einsum("kij,kij->k", residual, residual))
    bad = np.flatnonzero(~(gap <= JOSEPH_TOL))
    if bad.size:
        k = int(bad[0])
        raise np.linalg.LinAlgError(f"information-form covariance P_{k} is not the inverse of "
                                    f"P0^-1 + O({k},0): ||P_k N_k - I||_F = {gap[k]:.3e} "
                                    f"> {JOSEPH_TOL:.0e}")
    # The gain of step, K_k+1 = P_k H~_k^T (H~_k P_k H~_k^T + R_k)^-1, is
    # (C_k^-T S_k^-1 W_k P_k)^T with S_k = W_k P_k W_k^T + I >= I.  The equal
    # P_k+1 H~_k^T R_k^-1 reads P_k+1 along the directions just observed,
    # where it is smallest, and loses up to cond(N_k+1) in relative accuracy.
    wp = whitened @ covs[:-1]
    innovation = wp @ np.swapaxes(whitened, 1, 2) + np.eye(model.m)
    gains = model.whiten(np.linalg.solve(innovation, wp), transpose=True)
    return np.swapaxes(gains, 1, 2), covs


def _walk(model, T):
    """Read-only observers H~_k and transitions A(k,0), k = 0..T, of a T-step pass.

    Past the horizon of a time-varying model there is no H~_T: the walk stops at T-1.
    """
    if model.horizon is not None and T > model.horizon:
        raise HorizonError(f"no observation available at step {model.horizon}")
    return observed_evolution_sequence(
        model, T if T == model.horizon and not model.is_lti else T + 1)


def _pass(model, P0, T):
    """The observation-independent part of a T-step filter pass from a checked P0.

    Returns the GainSchedule and the ``_walk`` it read.  The schedule is the
    information form over the observers, whitened once, when d eps times
    their ``_information_bound`` is at most JOSEPH_TOL, and the Joseph
    recursion of ``step`` otherwise (also for a bound that is not finite).
    """
    observers, transitions = _walk(model, T)
    h_tilde = observers[:T]
    # An overflowed observer makes the bound inf or NaN, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        whitened = model.whiten(h_tilde)
        bound = _information_bound(P0, whitened)
    if model.d * np.finfo(float).eps * bound <= JOSEPH_TOL:
        form, (gains, covs) = "information", _information_schedule(model, P0, whitened)
    else:
        form, (gains, covs) = "joseph", _joseph_schedule(model, P0, h_tilde)
    gains.flags.writeable = covs.flags.writeable = False
    schedule = GainSchedule(h_tilde=h_tilde, gain=gains, P=covs, form=form, cond_bound=bound)
    return schedule, observers, transitions


def _fold(schedule, x_hat0, observations):
    """Estimates x^_0..x^_T of one or more observation streams through ``schedule``.

    x^_k+1 = x^_k + K_k+1 (y(k) - H~_k x^_k), as ``step`` writes it.  A (d,)
    guess with (T, m) observations is one stream; a (n, d) stack of guesses
    takes a (n, T, m) stack or one (T, m) block shared by every stream.
    Returns the read-only (T+1, d) or (n, T+1, d) estimates; raises
    NonFiniteError naming the first step at which any estimate left float64.
    """
    T = observations.shape[-2]
    x_hat = np.empty((*x_hat0.shape[:-1], T + 1, x_hat0.shape[-1]))
    x = x_hat[..., 0, :] = x_hat0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(T):
            y, h, gain = observations[..., k, :], schedule.h_tilde[k], schedule.gain[k]
            x = x_hat[..., k + 1, :] = x + (y - x @ h.T) @ gain.T
    bad = np.flatnonzero(~np.isfinite(x_hat).all(axis=-1).reshape(-1, T + 1).all(axis=0))
    if bad.size:
        raise NonFiniteError(f"estimate at step {bad[0]} is not finite: it overflowed float64")
    x_hat.flags.writeable = False
    return x_hat


def _estimate(model, x_hat0, P0, observations):
    """One filter pass of ``run``: its schedule and read-only (T+1, d) estimates.

    Also returns the observers and transitions of the pass's walk.
    """
    observations = _as_observations(observations, model.m)
    x_hat0, P0 = _prior(model, x_hat0, P0)
    schedule, observers, transitions = _pass(model, P0, len(observations))
    return schedule, _fold(schedule, x_hat0, observations), observers, transitions


def run(model, x_hat0, P0, observations):
    """Filter observations y(0), y(1), ... and return every state.

    One pass computes the ``gain_schedule`` of the observations; the
    estimates are the fold of ``step``'s update over it.  Returns the full
    list of states [state_0, ..., state_N], so every intermediate
    (real-time) estimate is available; on the Joseph form of the schedule
    they equal N calls of ``step`` bit for bit.  An empty observation
    sequence returns just the initial state.
    """
    schedule, x_hat, observers, transitions = _estimate(model, x_hat0, P0, observations)
    # A walk cut short by the horizon leaves the last state no observer and A(T-1,0).
    observers, transitions = chain(observers, [None]), chain(transitions, transitions[-1:])
    return [EstimatorState(step=k, x_hat=x, P=p, H_tilde_next=h, phi=phi)
            for k, (x, p, h, phi) in enumerate(zip(x_hat, schedule.P, observers, transitions))]


def gain_schedule(model, P0, T):
    """Observers, gains and covariances of a T-step filter pass from P0.

    The information form when its a priori condition bound admits it, and
    otherwise one pass of the Joseph recursion ``step`` runs, with the same
    checks at every step (``schedule.form`` says which); the result applies
    to every observation stream of the model.
    """
    return _pass(model, _prior(model, None, P0)[1], T)[0]


def covariance_sequence(model, P0, k_max):
    """The deterministic covariance trajectory P_0, ..., P_k_max.

    One read-only (k_max+1, d, d) stack, the ``P`` of ``gain_schedule``.
    """
    return gain_schedule(model, P0, k_max).P


def _root_information(model, x_hat0, P0, observations, h_tilde):
    """(x_k, S_k) of ``wls_prefixes`` from a checked prior, observations and their observers.

    S_k is a view of the running factor: the next prefix overwrites it.
    """
    T, d = len(h_tilde), model.d
    # Fortran order, so that LAPACK updates the factor [S_k z_k; 0 r_k] in place.
    factor = np.zeros((d + 1, d + 1), order="F")
    factor[:d, :d] = spd_factor(spd_inverse(P0, "P0"), "P0^-1").T
    # Overflow is reported by the check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        factor[:d, d] = factor[:d, :d] @ x_hat0
        rows = model.whiten(np.concatenate([h_tilde, observations.reshape(T, model.m, 1)],
                                           axis=2))
    lapack = _linalg.lapack
    for k in range(T + 1):
        if k:
            factor = lapack.dtpqrt(0, model.m, factor, rows[k - 1], overwrite_a=1)[0]
        if not np.isfinite(factor).all():
            where = f"step {k - 1}" if k else "the prior"
            raise NonFiniteError(f"square-root information of prefix {k} overflowed float64 "
                                 f"at {where}")
        yield lapack.dtrtrs(factor[:, :d], factor[:d, d], lda=d + 1)[0], factor[:d, :d]


def wls_prefixes(model, x_hat0, P0, observations):
    """Yield the weighted least-squares estimate of x0 from y(0..k-1), k = 0..N.

    Prefix k minimizes

        (x - x^_0)^T P0^-1 (x - x^_0)
            + sum_{j<k} (y(j) - H~_j x)^T R_j^-1 (y(j) - H~_j x)

    without forming P0^-1 + O(k,0), which squares the condition number.  The
    upper-triangular factor [S_k z_k; 0 r_k] of the whitened system starts
    from S_0^T S_0 = P0^-1, z_0 = S_0 x^_0; one QR update (LAPACK ``dtpqrt``)
    folds in each row [H~_j | y(j)] of the pass's ``_walk``, whitened by
    R_j's factor, and one ``dtrtrs`` solves S_k x = z_k.  No prefix fails;
    a factor past float64 raises NonFiniteError naming the prefix and step.
    """
    x_hat0, P0 = _prior(model, x_hat0, P0)
    observations = _as_observations(observations, model.m)
    T = len(observations)
    for x, _ in _root_information(model, x_hat0, P0, observations, _walk(model, T)[0][:T]):
        yield x


def batch_wls(model, x_hat0, P0, observations):
    """Weighted least-squares estimate of x0 from all observations (last ``wls_prefixes`` item)."""
    return deque(wls_prefixes(model, x_hat0, P0, observations), maxlen=1)[0]
