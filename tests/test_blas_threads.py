"""The test suite runs OpenBLAS on one thread.

Records depend on OpenBLAS's thread count (the last bits of a BLAS result
can depend on how many threads compute it), so ``tests/conftest.py`` pins
``OPENBLAS_NUM_THREADS=1`` before numpy is first imported.  This reads the
count back from the OpenBLAS builds bundled with numpy and scipy, so the
suite fails when the pin is not in effect (numpy imported first, or the
variable set to something else).
"""

import ctypes
import glob
import importlib
import os

import pytest

_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_libs(package):
    """Paths of the OpenBLAS shared libraries in ``<package>.libs``."""
    pkg = importlib.import_module(package)
    libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), package + ".libs")
    return sorted(glob.glob(os.path.join(libs, "*openblas*")))


@pytest.mark.parametrize("package", ["numpy", "scipy"])
def test_openblas_runs_one_thread(package):
    importlib.import_module("scipy.linalg")  # loads scipy's own BLAS
    paths = _openblas_libs(package)
    if not paths:
        pytest.skip(f"no OpenBLAS bundled in {package}.libs")
    for path in paths:
        lib = ctypes.CDLL(path)
        names = [s for s in _SYMBOLS if hasattr(lib, s)]
        if not names:
            pytest.skip(f"{os.path.basename(path)} exports no get_num_threads")
        assert getattr(lib, names[0])() == 1, (path, names[0])
