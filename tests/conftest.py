"""Shared fixtures for the test suite.

Every test runs OpenBLAS on one thread, as the end-to-end benchmark's
children do: records depend on the thread count, so the pin is set here,
before numpy is first imported (``tests/test_blas_threads.py`` checks it).
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.core import Integer, Real, Categorical, Space


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def mixed_space():
    """A small mixed-type space with a constraint, used across tests."""
    return Space(
        [
            Real("x", 0.0, 1.0),
            Integer("k", 1, 8),
            Categorical("alg", ["a", "b", "c"]),
        ],
        constraints=["k <= 6 or alg == 'a'"],
    )


@pytest.fixture
def toy_multitask_data(rng):
    """Smooth two-task data the LCM should fit well: y = sin(3x) + offset(t)."""
    X = rng.random((16, 1))
    tidx = np.array([0] * 8 + [1] * 8)
    y = np.sin(3.0 * X[:, 0]) + 0.5 * tidx + 0.02 * rng.normal(size=16)
    return X, y, tidx
