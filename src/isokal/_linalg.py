"""Small shared linear-algebra helpers (symmetric solves, norms, spectra)."""

import numpy as np
from scipy.linalg import cho_factor, cho_solve


def _transpose(m):
    return np.swapaxes(m, -1, -2)


def symmetrize(m):
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + _transpose(m))


def asymmetry(m):
    """Max asymmetry of each matrix relative to its largest entry (0 if all zero)."""
    scale = np.max(np.abs(m), axis=(-2, -1))
    gap = np.max(np.abs(m - _transpose(m)), axis=(-2, -1))
    return np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0)


def spd_factor(m, what="matrix"):
    """Cholesky factorization of a symmetric positive definite matrix.

    Raises ``numpy.linalg.LinAlgError`` naming ``what`` when the matrix is
    numerically indefinite.
    """
    try:
        return cho_factor(symmetrize(np.asarray(m, dtype=float)), lower=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{what} is not positive definite") from exc


def spd_solve(m, b, what="matrix"):
    """Solve m @ x = b for SPD ``m`` via Cholesky (never forms m^-1)."""
    return cho_solve(spd_factor(m, what), np.asarray(b, dtype=float))


def spd_inverse(m, what="matrix"):
    """m^-1 for SPD ``m``, symmetrized."""
    d = m.shape[0]
    return symmetrize(spd_solve(m, np.eye(d), what))


def spectral_norm(m):
    """Largest singular value."""
    m = np.atleast_2d(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def eig_abs_sorted(a):
    """Eigenvalue magnitudes of a general square matrix, descending."""
    return np.sort(np.abs(np.linalg.eigvals(a)))[::-1]


def readonly(a):
    """Float64 copy with the writeable flag cleared."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out
