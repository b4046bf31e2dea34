"""The LAPACK loader of ``isokal._linalg``: scipy's extension alone, its bits, one pool thread."""

import ctypes
import importlib.util
import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import isokal
from isokal import _linalg

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
