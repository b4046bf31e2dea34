"""Small shared linear-algebra helpers (SPD factors, solves and inverses, symmetry, norms, spectra).

The helpers run on numpy, ``extreme_eigenvalues`` of wide stacks apart.
This module is also the one place that names scipy: ``lapack`` is scipy's
LAPACK extension module ``scipy.linalg._flapack``, the f2py wrappers that
``scipy.linalg.lapack`` re-exports.  It is loaded from its file on its
first access, without running the ``scipy.linalg`` package (about 0.2 s
and 24 MB of a fresh process), so that package is never imported,
``import isokal`` and the per-step kernels included.  Three callers read
``lapack``: the Joseph gain pieces and the square-root information update
of ``estimator``, where an f2py call costs about 1 us against numpy's
4-5 us per linalg call, and ``extreme_eigenvalues`` on stacks of width
BISECTION_MIN_D or more, where one eigenvalue by bisection (``dsyevx``)
is cheaper than the full spectrum.  The first access also sets scipy's
OpenBLAS pool to one thread: the kernels call it on d x d and m x d
operands between numpy's products, and two multi-threaded pools spin
against each other (a d = 128 Joseph step is about 37x slower).  numpy's
own pool is left alone.
"""

import ctypes
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

FLAPACK = "scipy.linalg._flapack"


def __getattr__(name):
    # Runs until the first access of ``lapack`` binds it as a module global.
    if name != "lapack":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()["lapack"] = lapack = _load_flapack()
    return lapack


def _load_flapack():
    """``scipy.linalg._flapack`` from its file, with scipy's OpenBLAS pool set to one thread."""
    scipy_dir = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    finder = importlib.machinery.FileFinder(
        str(scipy_dir / "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(FLAPACK)
    if spec is None:
        raise ImportError(f"no extension module {FLAPACK} in {finder.path}", name=FLAPACK)
    filed = FLAPACK in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not filed:
        # Loading files the module under its name, where a later ``import
        # scipy.linalg`` would take it without binding ``scipy.linalg._flapack``;
        # that import gets the same wrappers from the interpreter's extension cache.
        sys.modules.pop(FLAPACK, None)
    # The extension has mapped scipy's bundled OpenBLAS; another BLAS build has no such file.
    for path in (scipy_dir.parent / "scipy.libs").glob("libscipy_openblas*.so"):
        set_threads = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
    return module


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


#: Width d from which ``extreme_eigenvalues`` takes one eigenvalue of each
#: matrix by bisection instead of numpy's full spectrum.  Microseconds per
#: matrix, stacks of 64 random SPD matrices, one BLAS thread, minimum of 9
#: repeats on a shared 2-core Xeon:
#:
#:     d                 2     4     8    16    24    32    48    64   128
#:     eigvalsh        0.5   2.1   5.7  17.2  34.7  56.7   124   203   599
#:     dsyevx, one     5.8   6.9   9.8  19.0  30.3  45.8    85    92   344
#:
#: The crossing sits near d = 24; 32 leaves every narrower stack its bits.
BISECTION_MIN_D = 32


def extreme_eigenvalues(stack, largest=False):
    """The smallest (or ``largest``) eigenvalue of each symmetric matrix of a (..., d, d) stack.

    Reads the lower triangle, as numpy's eigvalsh does.  Below
    BISECTION_MIN_D it is the first (or last) entry of eigvalsh's spectra,
    bit for bit.  From there on each matrix takes one ``dsyevx`` call: a
    tridiagonal reduction, then Sturm-sequence bisection for that one
    eigenvalue (Golub & Van Loan, *Matrix Computations*, 8.4), within
    about eps ||A|| of the full spectrum's.  Where bisection reports that
    it did not find it (dstebz's Sturm counts are not monotone on some
    clustered spectra, such as I - U S U^T with a low-rank U), that matrix
    alone takes eigvalsh.  A non-finite entry raises ValueError.
    """
    a = finite(stack, "the symmetric matrix stack")
    d = a.shape[-1]
    if d < BISECTION_MIN_D:
        return np.linalg.eigvalsh(a)[..., -1 if largest else 0]
    syevx = sys.modules[__name__].lapack.dsyevx
    k = d if largest else 1
    flat = a.reshape(-1, d, d)
    out = np.empty(len(flat))
    for i, m in enumerate(flat):
        w, _, found, _, info = syevx(m, compute_v=0, range="I", il=k, iu=k, lower=1)
        out[i] = w[0] if info == 0 and found == 1 else np.linalg.eigvalsh(m)[k - 1]
    return out.reshape(a.shape[:-2])[()]


def eig_abs_sorted(a):
    """Eigenvalue magnitudes of a general square matrix, descending."""
    return np.sort(np.abs(np.linalg.eigvals(a)))[::-1]


def readonly(a):
    """Float64 copy with the writeable flag cleared."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out
