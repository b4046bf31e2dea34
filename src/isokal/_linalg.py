"""Small shared linear-algebra helpers (SPD factors, solves and inverses, symmetry, norms, spectra).

The helpers run on numpy alone.  This module is also the one place that
names scipy: ``lapack``, scipy's LAPACK wrappers, is imported on its first
access, and only the per-step kernels read it (the Joseph gain pieces and
the square-root information update of ``estimator``), where an f2py call
costs about 1 us against numpy's 4-5 us per linalg call.  Every other path,
``import isokal`` included, never loads ``scipy.linalg``, whose import is
about two thirds of the CLI's start-up time and half its memory.
"""

import numpy as np


def __getattr__(name):
    # Runs until the first access of ``lapack`` binds it as a module global.
    if name != "lapack":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import lapack
    globals()["lapack"] = lapack
    return lapack


class NonFiniteError(ValueError):
    """A quantity overflowed float64; the message names it, and the first step it did."""


def _transpose(m):
    return np.asarray(m).swapaxes(-1, -2)


def symmetrize(m):
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + _transpose(m))


def asymmetry(m):
    """Max asymmetry of each matrix relative to its largest entry (0 if all zero)."""
    scale = np.max(np.abs(m), axis=(-2, -1))
    gap = np.max(np.abs(m - _transpose(m)), axis=(-2, -1))
    return np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0.0)


def finite(a, what):
    """``a`` as a float array; ValueError naming ``what`` unless every entry is finite."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} is not finite")
    return a


def spd_factor(m, what="matrix"):
    """Lower Cholesky factor L, with L L^T = m, of a symmetric positive definite matrix.

    Raises ValueError naming ``what`` when the matrix is not finite, and
    ``numpy.linalg.LinAlgError`` naming it when it is numerically indefinite.
    """
    try:
        return np.linalg.cholesky(symmetrize(finite(m, what)))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{what} is not positive definite") from exc


def spd_solve(m, b, what="matrix"):
    """m^-1 b for SPD ``m``: L y = b, then L^T x = y, with L its ``spd_factor``."""
    factor = spd_factor(m, what)
    return np.linalg.solve(factor.T, np.linalg.solve(factor, b))


def spd_inverse(m, what="matrix"):
    """m^-1 = L^-T L^-1 for SPD ``m``, L its ``spd_factor``; exactly symmetric (numpy's syrk).

    NonFiniteError naming ``what`` on overflow, not a numpy warning.
    """
    root = np.linalg.inv(spd_factor(m, what))
    with np.errstate(over="ignore"):
        inverse = root.T @ root
    if not np.isfinite(inverse).all():
        raise NonFiniteError(f"the inverse of {what} is not finite: it overflowed float64")
    return inverse


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
