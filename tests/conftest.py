import ctypes
import glob
import os

import numpy as np
import pytest
from hypothesis import settings

# Every run draws the same examples: a seed derived from each test, and no
# replay of examples saved by earlier runs.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def _openblas(what):
    """OpenBLAS's answer to openblas_get_<what>, looked up in the library that
    numpy loaded as benchmarks/bench.py's _blas_threads does."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in map(ctypes.CDLL, libs):
        for name in (f"scipy_openblas_get_{what}64_", f"openblas_get_{what}64_",
                     f"openblas_get_{what}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def pytest_report_header():
    # the byte-pinning tests (test_a_hessian_matrix_in_chunks, test_k_blocks)
    # hold for the kernels they were measured on; this names the ones that ran
    return [f"numpy {np.__version__}",
            f"OpenBLAS config: {_openblas('config')}, core: {_openblas('corename')}"]


# What a refused input must not reach: the flip-flop and the PICSE objective,
# and, unless the check that refuses it decomposes the input itself, any
# decomposition.  Targets are dotted paths for monkeypatch.setattr.
LATE = ("corecov.kcd._flip_flop", "corecov.picse._ParamPoint.nll")
EARLY = LATE + ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.svd")


def refuse(monkeypatch, targets):
    """Make every target raise AssertionError when called."""
    for target in targets:
        def ran(*args, _target=target, **kwargs):
            raise AssertionError(f"{_target} ran before the input was refused")
        monkeypatch.setattr(target, ran)


def rand_spd(q, rng, ridge=0.3):
    """Well-conditioned random SPD matrix."""
    g = rng.standard_normal((q, 2 * q))
    return g @ g.T / (2 * q) + ridge * np.eye(q)


def rand_sym(q, rng):
    m = rng.standard_normal((q, q))
    return (m + m.T) / 2.0


def rand_lower(q, rng):
    return np.tril(rng.standard_normal((q, q)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
