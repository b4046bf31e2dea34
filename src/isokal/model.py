"""System descriptions and state-transition algebra.

A system is

    x(k+1) = A_{k+1} x(k),          x(0) = x0,
    y(k)   = H_k x(k) + v_k,        v_k ~ N(0, R_k),

with invertible dynamics A_k (d x d), observation operators H_k (m x d,
m <= d) and SPD noise covariances R_k bounded below by sigma^2 I > 0.
Dynamics/observation/noise may each be constant (LTI) or a finite explicit
sequence (LTV).
"""

# Config values quoted in a message are abbreviated: a deep or long one never recurses.
from reprlib import repr as brief

import numpy as np
from scipy.linalg.lapack import dpotrf

from ._linalg import asymmetry, readonly, symmetrize

# A_k invertibility: smallest singular value must exceed this fraction of the
# largest (condition estimate below 1e12).
_INVERTIBILITY_RTOL = 1e-12
_SYMMETRY_RTOL = 1e-12
DEFAULT_SIGMA2_FLOOR = 1e-15


class ConfigError(ValueError):
    """Invalid system configuration; ``path`` names the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class HorizonError(ValueError):
    """A step index beyond the finite horizon of an LTV sequence."""


class NonFiniteError(ValueError):
    """A quantity overflowed float64; the message names the first step it did."""


def _as_array(value, path):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, f"not a numeric array: {exc}") from None


def _as_stack(value, field, symbol, what):
    """A field given as one matrix or a non-empty sequence of them, as a stack.

    Returns the (n, rows, cols) stack, whether one matrix was given, and a
    function naming entry t's config path: ``field.symbol`` for one matrix,
    ``field.symbol_seq[t]`` for a sequence.
    """
    a = _as_array(value, field)
    if a.ndim == 2:
        return a[None], True, lambda t: f"{field}.{symbol}"
    if a.ndim != 3 or a.shape[0] == 0:
        raise ConfigError(field, f"pass {what} or a non-empty sequence of them")
    return a, False, lambda t: f"{field}.{symbol}_seq[{t}]"


def _reject_first(bad, name, message):
    """Raise ConfigError naming the first stack entry flagged in ``bad``."""
    first = np.flatnonzero(bad)
    if first.size:
        t = int(first[0])
        raise ConfigError(name(t), message(t) if callable(message) else message)


def _check_finite(stack, name):
    _reject_first(~np.isfinite(stack).all(axis=(1, 2)), name, "entries must be finite")


def _check_invertible(stack, name):
    """Reject the first entry whose singular values s_min <= _INVERTIBILITY_RTOL s_max.

    One batched inverse screens the stack first: an entry passes when
    ||A||_F ||A^-1||_F <= 1e-2 / _INVERTIBILITY_RTOL.  That product bounds
    cond_2 from above, and the factor 1e-2 covers the relative rounding of
    the computed inverse, about d eps cond <= d 2.2e-6 at the screen's
    bound, so a passing entry is one the SVD test accepts too.  Only the
    other entries, or all of them when the inverse meets an exactly
    singular entry, pay for the SVD.
    """
    undecided = np.ones(len(stack), dtype=bool)
    try:
        inverse = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        pass
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            cond_f = np.sqrt(np.einsum("nij,nij->n", stack, stack)
                             * np.einsum("nij,nij->n", inverse, inverse))
        undecided = ~(cond_f <= 1e-2 / _INVERTIBILITY_RTOL)
    bad = np.zeros(len(stack), dtype=bool)
    if undecided.any():
        s = np.linalg.svd(stack[undecided], compute_uv=False)
        bad[undecided] = s[:, -1] <= _INVERTIBILITY_RTOL * s[:, 0]
    _reject_first(bad, name, "matrix is numerically singular (condition estimate > 1e12)")


def _noise_factors(stack, name):
    """Lower Cholesky factors of a stack of symmetric noise covariances.

    Raises ConfigError naming the first entry that Cholesky rejects, which
    only an R conditioned past float64 can reach after the eigenvalue floor.
    """
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        _reject_first([dpotrf(r, lower=1)[1] != 0 for r in stack], name,
                      "covariance is not positive definite (Cholesky factorization failed)")
        raise


def _check_noise_cov(stack, m, floor, name):
    """Validate a stack of noise covariances; return their Cholesky factors."""
    if stack.shape[1:] != (m, m):
        raise ConfigError(name(0), f"expected {m}x{m}, got {stack.shape[1]}x{stack.shape[2]}")
    _check_finite(stack, name)
    _reject_first(asymmetry(stack) > _SYMMETRY_RTOL, name, "covariance is not symmetric")
    sym = symmetrize(stack)
    lam_min = np.linalg.eigvalsh(sym)[:, 0]
    _reject_first(lam_min < floor, name,
                  lambda t: f"covariance not positive definite above the floor "
                            f"(lambda_min={lam_min[t]:.3e} < {floor:.1e})")
    return _noise_factors(sym, name)


class SystemModel:
    """Immutable system description (dynamics, observation, noise).

    Parameters
    ----------
    dynamics : (d, d) array or sequence of (d, d) arrays
        A single matrix means LTI; a sequence [A_1, A_2, ...] means LTV,
        where entry t advances step t -> t+1.
    observation : (m, d) array or sequence of (m, d) arrays
        A single matrix means LTI; sequence entry t is H_t.
    noise : float or sequence of (m, m) arrays
        A scalar sigma2 > 0 means isotropic R_k = sigma2 * I for all k;
        a sequence gives per-step covariances [R_0, R_1, ...].
    sigma2_floor : float
        Models whose noise covariances have eigenvalues below this are
        rejected.

    Each sequence is held as one read-only stack, ``A_seq`` (n, d, d),
    ``H_seq`` (n, m, d) and ``R_seq`` (n, m, m); a constant field's stack
    is None.  Every sequence is validated as a whole, and a bad entry is
    reported by the config path of the first one.  The noise covariances
    are Cholesky-factorized here, once; ``noise_factors`` hands the factors
    out.

    ``horizon`` is the number of usable observation steps, or None when
    unlimited: step k is usable when H_k, R_k and the transitions A_1..A_k
    exist.
    """

    def __init__(self, dynamics, observation, noise, sigma2_floor=DEFAULT_SIGMA2_FLOOR):
        a, self.lti_dynamics, name = _as_stack(dynamics, "dynamics", "A", "one d x d matrix")
        if a.shape[1] != a.shape[2]:
            raise ConfigError(name(0), f"expected a square matrix, got shape {a.shape[1:]}")
        _check_finite(a, name)
        _check_invertible(a, name)
        self._a, self.A_seq = (readonly(a[0]), None) if self.lti_dynamics else (None, readonly(a))
        self.d = int(a.shape[1])

        h, self.lti_observation, name = _as_stack(observation, "observation", "H",
                                                  "one m x d matrix")
        m, d = h.shape[1:]
        if d != self.d:
            raise ConfigError(name(0), f"expected {m}x{self.d}, got {m}x{d}")
        if m > d:
            raise ConfigError(name(0), f"observation dimension m={m} exceeds state dimension d={d}")
        _check_finite(h, name)
        self._h, self.H_seq = (readonly(h[0]), None) if self.lti_observation else (None, readonly(h))
        self.m = int(m)

        self.sigma2_floor = float(sigma2_floor)
        self.isotropic = bool(np.isscalar(noise))
        self.sigma2, self.R_seq = None, None
        if self.isotropic:
            sigma2 = float(noise)
            if not np.isfinite(sigma2) or sigma2 < self.sigma2_floor:
                raise ConfigError("noise.sigma2",
                                  f"must be >= {self.sigma2_floor:.1e}, got {sigma2!r}")
            self.sigma2 = sigma2
            self._r_factors = readonly(_noise_factors(self.R_at(0)[None], lambda t: "noise.sigma2"))
        else:
            rs = _as_array(noise, "noise")
            if rs.ndim != 3 or rs.shape[0] == 0:
                raise ConfigError("noise", "pass a scalar sigma2 or a non-empty sequence of R matrices")
            self._r_factors = readonly(_check_noise_cov(rs, self.m, self.sigma2_floor,
                                                        lambda t: f"noise.R_seq[{t}]"))
            self.R_seq = readonly(rs)

        limits = [len(seq) + shift
                  for seq, shift in ((self.A_seq, 1), (self.H_seq, 0), (self.R_seq, 0))
                  if seq is not None]
        self.horizon = min(limits) if limits else None

    @property
    def is_lti(self):
        """Constant dynamics and observation (noise may still vary per step)."""
        return self.lti_dynamics and self.lti_observation

    def _check_horizon(self, k):
        if k < 0:
            raise ValueError(f"step index must be non-negative, got {k}")
        h = self.horizon
        if h is not None and k >= h:
            raise HorizonError(f"step {k} exceeds the model horizon ({h} observation steps)")

    def A_at(self, k):
        """Dynamics matrix advancing step k-1 -> k (k >= 1), read-only."""
        if k < 1:
            raise ValueError(f"dynamics index must be >= 1, got {k}")
        if self.lti_dynamics:
            return self._a
        if k > len(self.A_seq):
            raise HorizonError(f"dynamics step {k} exceeds the LTV horizon ({len(self.A_seq)})")
        return self.A_seq[k - 1]

    def H_at(self, k):
        """Observation operator at step k >= 0, read-only."""
        if k < 0:
            raise ValueError(f"observation index must be non-negative, got {k}")
        if self.lti_observation:
            return self._h
        if k >= len(self.H_seq):
            raise HorizonError(f"observation step {k} exceeds the LTV horizon ({len(self.H_seq)})")
        return self.H_seq[k]

    def R_at(self, k):
        """Noise covariance at step k >= 0."""
        if k < 0:
            raise ValueError(f"noise index must be non-negative, got {k}")
        if self.isotropic:
            return self.sigma2 * np.eye(self.m)
        if k >= len(self.R_seq):
            raise HorizonError(f"noise step {k} exceeds the LTV horizon ({len(self.R_seq)})")
        return self.R_seq[k]

    def noise_factors(self, count, start=0):
        """Lower Cholesky factors C_k, R_k = C_k C_k^T, for k = start..start+count-1.

        A read-only (n, m, m) stack of the factors taken when the model was
        built.  A per-step sequence is cut off at its end, so n falls short
        of ``count`` past it.
        """
        if self.isotropic:
            return np.broadcast_to(self._r_factors[0], (count, self.m, self.m))
        return self._r_factors[start:start + count]

    def __repr__(self):
        kind = "LTI" if self.is_lti else "LTV"
        noise = f"sigma2={self.sigma2}" if self.isotropic else "per-step R"
        return f"SystemModel({kind}, d={self.d}, m={self.m}, {noise})"


def transition(model, k, j):
    """State transition from step j to step k.

    Returns the ordered product A_k A_{k-1} ... A_{j+1} for k > j, the
    identity for k = j, and the inverse transition for k < j (computed by a
    linear solve against the forward product, not an explicit inverse).
    """
    if k < 0 or j < 0:
        raise ValueError("step indices must be non-negative")
    lo, hi = (j, k) if k >= j else (k, j)
    value = np.eye(model.d)
    for i in range(lo + 1, hi + 1):
        value = model.A_at(i) @ value
    if k < j:
        value = np.linalg.solve(value, np.eye(model.d))
    return value


def observed_evolution(model, k):
    """The operator H_k A(k,0) mapping the initial state to observation k."""
    model._check_horizon(k)
    return model.H_at(k) @ transition(model, k, 0)


def observed_evolution_sequence(model, count, start=0):
    """Yield H_j A(j,start) for j = start..start+count-1, one step at a time."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return
    h_tilde, phi = model.H_at(start), np.eye(model.d)
    for j in range(start, start + count):
        yield h_tilde
        if j + 1 < start + count:
            h_tilde, phi = advance_observed_evolution(model, j + 1, h_tilde, phi)


def advance_observed_evolution(model, k, h_tilde, phi):
    """The next observer and transition: (H_k A(k,k0), A(k,k0)) from step k-1's.

    Fully LTI models advance the observer by one right-multiplication and
    leave ``phi`` unused.  Anything time-varying has no right-multiplication
    recurrence (the new dynamics factor enters on the left), so the
    transition is carried forward, phi <- A_k phi, in the product order of
    ``transition``, and applied to H_k.

    ``h_tilde`` (n, m, d) and ``phi`` (n, d, d) may also be stacks of
    consecutive anchors: row i then advances to step k + i.  Each row gets
    the same bits as the one-matrix call would.
    """
    if model.is_lti:
        return h_tilde @ model.A_at(k), phi
    if phi.ndim == 2:
        model._check_horizon(k)
        phi = model.A_at(k) @ phi
        return model.H_at(k) @ phi, phi
    last = k + phi.shape[0] - 1
    model._check_horizon(last)
    a = model.A_at(k) if model.lti_dynamics else model.A_seq[k - 1:last]
    h = model.H_at(k) if model.lti_observation else model.H_seq[k:last + 1]
    phi = a @ phi
    return h @ phi, phi


def _field(doc, path):
    """The value at a dotted config path; ConfigError names its first missing part."""
    cur, parts = doc, path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(".".join(parts[:i + 1]), "missing required field")
        cur = cur[part]
    return cur


# The kinds of each config section: the key that holds the value and its
# form, 2 for one matrix, 3 for a sequence of matrices, 0 for a number.
_SECTIONS = {
    "dynamics": {"lti": ("A", 2), "ltv": ("A_seq", 3)},
    "observation": {"lti": ("H", 2), "ltv": ("H_seq", 3)},
    "noise": {"isotropic": ("sigma2", 0), "per_step": ("R_seq", 3)},
}
_FORMS = {2: "one matrix", 3: "a sequence of matrices"}


def _read_section(doc, section):
    """The value of a config section, in the form its ``kind`` names."""
    kinds = _SECTIONS[section]
    kind = _field(doc, f"{section}.kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{section}.kind",
                          f"must be {' or '.join(map(repr, kinds))}, got {brief(kind)}")
    key, rank = kinds[kind]
    path = f"{section}.{key}"
    value = _field(doc, path)
    if rank == 0:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(path, f"must be a number, got {brief(value)}")
        return float(_as_array(value, path))
    value = _as_array(value, path)
    if value.ndim != rank:
        raise ConfigError(path, f"{kind!r} expects {_FORMS[rank]}, got shape {value.shape}")
    return value


def load_model(doc):
    """Build a validated SystemModel from a parsed JSON config document.

    Expected top-level keys: ``d``, ``m``, ``dynamics``, ``observation``,
    ``noise``; see the README for the full schema.  Each section's ``kind``
    fixes the form of its value (one matrix, a sequence of matrices or a
    number).  Violations raise ConfigError carrying the offending field
    path.
    """
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    d, m = _field(doc, "d"), _field(doc, "m")
    if not isinstance(d, int) or d < 1:
        raise ConfigError("d", f"must be a positive integer, got {brief(d)}")
    if not isinstance(m, int) or m < 1:
        raise ConfigError("m", f"must be a positive integer, got {brief(m)}")
    if m > d:
        raise ConfigError("m", f"observation dimension m={m} exceeds state dimension d={d}")

    model = SystemModel(*(_read_section(doc, section) for section in _SECTIONS))
    if model.d != d:
        raise ConfigError("d", f"declared d={d} but matrices have d={model.d}")
    if model.m != m:
        raise ConfigError("m", f"declared m={m} but matrices have m={model.m}")
    return model
