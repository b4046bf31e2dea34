"""``isokal._linalg``'s LAPACK loader (scipy's extension alone, its bits, one pool thread) and
``extreme_eigenvalues``."""

import ctypes
import importlib.util
import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import numpy as np

import isokal
from isokal import _linalg, observability, stability
from isokal._linalg import BISECTION_MIN_D, extreme_eigenvalues

from test_stability import rotation_model

SRC = str(Path(isokal.__file__).resolve().parent.parent)


def run_fresh(probe, *args):
    """JSON printed by ``probe`` in a fresh interpreter, with no BLAS thread variable set."""
    proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          timeout=120, env={"PYTHONPATH": SRC, "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


#: One example2 Joseph pass, the four wrappers on seeded inputs through
#: ``_linalg.lapack``, then the same through the scipy.linalg package, and
#: a second pass; every result as the sha256 of its bytes.
BITS_PROBE = textwrap.dedent("""
    import hashlib, json
    import numpy as np
    from isokal import _linalg, estimator, harness

    def digest(*arrays):
        return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()

    def schedule():
        s = estimator.gain_schedule(harness.example_system("example2")[0], 1e-2, 40)
        return [s.form, digest(s.h_tilde, s.gain, s.P)]

    rng = np.random.default_rng(2026)
    d, m = 6, 2
    g = rng.standard_normal((d, d))
    spd = g @ g.T + d * np.eye(d)
    rhs = rng.standard_normal((d, 3))
    upper = np.triu(rng.standard_normal((d, d))) + d * np.eye(d)
    top = np.asfortranarray(np.triu(rng.standard_normal((d + 1, d + 1))))
    rows = rng.standard_normal((m, d + 1))

    def wrappers(lapack):
        factor = lapack.dpotrf(spd, lower=1, clean=1)[0]
        return {"dpotrf": digest(*lapack.dpotrf(spd, lower=1, clean=1)),
                "dpotrs": digest(*lapack.dpotrs(factor, rhs, lower=1)),
                "dtpqrt": digest(*lapack.dtpqrt(0, m, top, rows)),
                "dtrtrs": digest(*lapack.dtrtrs(upper, rhs))}

    first = schedule()
    ours = wrappers(_linalg.lapack)
    import scipy.linalg
    print(json.dumps({"first": first, "ours": ours, "package": wrappers(scipy.linalg.lapack),
                      "second": schedule(), "bound": hasattr(scipy.linalg, "_flapack")}))
""")


def test_the_extension_gives_the_package_wrappers_bits():
    out = run_fresh(BITS_PROBE)
    assert out["first"][0] == "joseph"
    assert set(out["ours"]) == {"dpotrf", "dpotrs", "dtpqrt", "dtrtrs"}
    assert out["package"] == out["ours"]
    assert out["second"] == out["first"]
    # the package imported afterwards still binds its extension module
    assert out["bound"] is True


def test_a_missing_extension_names_the_module_and_the_directory(tmp_path, monkeypatch):
    (tmp_path / "linalg").mkdir()
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: types.SimpleNamespace(submodule_search_locations=[tmp_path]))
    monkeypatch.delitem(vars(_linalg), "lapack", raising=False)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack") as info:
        _linalg.lapack
    assert info.value.name == "scipy.linalg._flapack"
    assert str(tmp_path / "linalg") in str(info.value)


def scipy_openblas_with(symbol):
    """Path of scipy's bundled OpenBLAS if it exports ``symbol``, else None."""
    scipy_dir = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    for path in (scipy_dir.parent / "scipy.libs").glob("libscipy_openblas*.so"):
        if hasattr(ctypes.CDLL(str(path)), symbol):
            return str(path)
    return None


#: One d = 128 Joseph pass, then the size of scipy's OpenBLAS pool.
THREADS_PROBE = textwrap.dedent("""
    import ctypes, json, sys
    import numpy as np
    from isokal import SystemModel, estimator

    rng = np.random.default_rng((2026, 128))
    a = np.linalg.qr(rng.standard_normal((128, 128)))[0]
    model = SystemModel(a, rng.standard_normal((32, 128)), 0.1)
    form = estimator.gain_schedule(model, 1.0, 50).form
    get_threads = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    print(json.dumps([form, get_threads()]))
""")


def test_a_joseph_pass_runs_scipy_openblas_on_one_thread():
    library = scipy_openblas_with("scipy_openblas_get_num_threads")
    if library is None:
        pytest.skip("scipy does not bundle an OpenBLAS with scipy_openblas_get_num_threads")
    assert run_fresh(THREADS_PROBE, library) == ["joseph", 1]


EPS = np.finfo(float).eps


def symmetric_stack(kind, d, n, rng):
    """n symmetric d x d matrices: SPD, PSD of rank d // 2, indefinite or zero."""
    if kind == "zero":
        return np.zeros((n, d, d))
    if kind == "indefinite":
        return _linalg.symmetrize(rng.standard_normal((n, d, d)))
    g = rng.standard_normal((n, d, d if kind == "spd" else max(1, d // 2)))
    return g @ g.swapaxes(1, 2)


def clustered(seed, d=64, rank=8):
    """I - U S U^T: an orthonormal U of ``rank`` columns, S in [0.1, 0.9]; 1 is a cluster."""
    rng = np.random.default_rng((2026, seed))
    u = np.linalg.qr(rng.standard_normal((d, rank)))[0]
    return np.eye(d) - (u * rng.uniform(0.1, 0.9, rank)) @ u.T


def bisection_gives_up(matrix, k):
    """Whether ``dsyevx`` reports that it did not find eigenvalue k (1-based) of ``matrix``."""
    _, _, found, _, info = _linalg.lapack.dsyevx(matrix, compute_v=0, range="I", il=k, iu=k,
                                                 lower=1)
    return info != 0 or found != 1


class TestExtremeEigenvalues:
    """The smallest and largest eigenvalue of each matrix, against numpy's full spectrum."""

    @pytest.mark.parametrize("d", [2, 8, 16, 31, 32, 64, 128])
    @pytest.mark.parametrize("kind", ["spd", "psd", "indefinite", "zero"])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_both_ends_match_eigvalsh(self, d, kind, scale):
        rng = np.random.default_rng((2026, d, len(kind)))
        stack = scale * symmetric_stack(kind, d, 3, rng)
        spectra = np.linalg.eigvalsh(stack)
        bound = 8 * d * EPS * np.abs(spectra).max(axis=1)
        for largest, end in ((False, spectra[:, 0]), (True, spectra[:, -1])):
            got = extreme_eigenvalues(stack, largest=largest)
            assert got.shape == (3,)
            if d < BISECTION_MIN_D:
                # numpy's own route: its bits
                np.testing.assert_array_equal(got, end)
            else:
                assert np.all(np.abs(got - end) <= bound)

    @pytest.mark.parametrize("d", [8, 64])
    def test_shapes(self, d):
        stack = symmetric_stack("spd", d, 4, np.random.default_rng(d))
        one = extreme_eigenvalues(stack[0])
        assert np.ndim(one) == 0 and one == extreme_eigenvalues(stack[:1])[0]
        assert extreme_eigenvalues(stack).shape == (4,)
        assert extreme_eigenvalues(stack.reshape(2, 2, d, d), largest=True).shape == (2, 2)
        assert extreme_eigenvalues(np.zeros((0, d, d))).shape == (0,)

    def test_a_matrix_bisection_gives_up_on_takes_eigvalsh(self, monkeypatch):
        # the top of I - U S U^T is 1, 56-fold: dstebz's Sturm counts are
        # not monotone there, and this draw is one where dsyevx says so
        matrix = clustered(0)
        assert bisection_gives_up(matrix, 64)
        assert not bisection_gives_up(matrix, 1)
        stack = np.stack([clustered(3), matrix, clustered(6)])
        assert not any(bisection_gives_up(m, 64) for m in stack[[0, 2]])
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args: calls.append(np.shape(a)) or real(a, *args))
        top = extreme_eigenvalues(stack, largest=True)
        monkeypatch.undo()
        assert calls == [(64, 64)]
        assert top[1] == np.linalg.eigvalsh(matrix)[-1]
        bound = 8 * 64 * EPS
        assert np.all(np.abs(top - np.linalg.eigvalsh(stack)[:, -1]) <= bound)

    @pytest.mark.parametrize("d", [8, 64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_raises(self, d, bad):
        stack = symmetric_stack("spd", d, 2, np.random.default_rng(d))
        stack[1, 0, 0] = bad
        for largest in (False, True):
            with pytest.raises(ValueError, match="not finite"):
                extreme_eigenvalues(stack, largest=largest)


@pytest.mark.parametrize("seed", [1, 2])
def test_wide_analyses_take_eigvalsh_only_where_bisection_gives_up(seed, monkeypatch):
    # d = 64: the certificate, the growth trace and the stability traces
    # (an isotropic and an SPD prior) take no stacked eigvalsh; each
    # single-matrix call is a Gramian or covariance dsyevx gave up on, or
    # the prior's own check.  Seed 1 gives up on P_1 of the isotropic run.
    model, K = rotation_model(64, 8, seed), 40
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((64, 64))
    priors = [1.0, 1e-2 * (g @ g.T / 64 + np.eye(64))]
    calls, gave_up = [], []
    real_eigvalsh, real_syevx = np.linalg.eigvalsh, _linalg.lapack.dsyevx

    def eigvalsh(a, *args):
        calls.append(a)
        return real_eigvalsh(a, *args)

    def syevx(a, *args, **kwargs):
        out = real_syevx(a, *args, **kwargs)
        if out[4] != 0 or out[2] != 1:
            gave_up.append(a)
        return out

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(_linalg.lapack, "dsyevx", syevx)
    report = observability.check_observability(model, L_max=64)
    observability.lambda_min_asymptotics(model, K, report=report)
    prior_checks = 0
    for p0 in priors:
        before = len(calls)
        stability.analyze_stability(model, P0=p0, k_max=K, report=report)
        prior_checks += sum(np.array_equal(a, p0 * np.eye(64) if np.ndim(p0) == 0 else p0)
                            for a in calls[before:])
    monkeypatch.undo()
    assert all(np.ndim(a) == 2 for a in calls)
    fallbacks = [a for a in calls if any(a is b for b in gave_up)]
    assert len(fallbacks) == len(gave_up) == len(calls) - prior_checks
    assert (len(gave_up) > 0) == (seed == 1)
