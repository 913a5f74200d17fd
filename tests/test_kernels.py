"""Unit tests for kernels (repro.core.kernels)."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.kernels import (
    exp_inplace,
    gaussian_kernel,
    gaussian_kernel_batch,
    gaussian_kernel_with_grad,
    pairwise_sq_diffs,
)

#: The helper's fast-path floor, numpy's fast-path edge (−708.396…, where
#: exp leaves the normal range), the last argument with a nonzero result
#: (−745.133…) and the helper's zero threshold, plus the IEEE specials.
EXP_EDGES = (
    -700.0, np.nextafter(-700.0, 0.0), np.nextafter(-700.0, -np.inf),
    -708.3964185322641, -745.1332191019412, np.nextafter(-745.1332191019412, 0.0),
    -746.0, np.nextafter(-746.0, 0.0), np.nextafter(-746.0, -np.inf),
    np.inf, -np.inf, np.nan, -0.0, 0.0, 710.0, -1e308,
)


class TestPairwiseSqDiffs:
    def test_shape_and_values(self):
        X1 = np.array([[0.0, 0.0], [1.0, 2.0]])
        X2 = np.array([[1.0, 1.0]])
        D = pairwise_sq_diffs(X1, X2)
        assert D.shape == (2, 1, 2)
        assert D[0, 0].tolist() == [1.0, 1.0]
        assert D[1, 0].tolist() == [0.0, 1.0]

    def test_self_diagonal_zero(self, rng):
        X = rng.random((5, 3))
        D = pairwise_sq_diffs(X)
        assert np.allclose(D[np.arange(5), np.arange(5)], 0.0)


class TestGaussianKernel:
    def test_unit_diagonal(self, rng):
        X = rng.random((6, 2))
        K = gaussian_kernel(pairwise_sq_diffs(X), np.array([0.5, 0.5]))
        assert np.allclose(np.diag(K), 1.0)
        assert np.all((K > 0) & (K <= 1))

    def test_symmetry(self, rng):
        X = rng.random((6, 2))
        K = gaussian_kernel(pairwise_sq_diffs(X), np.array([0.3, 0.7]))
        assert np.allclose(K, K.T)

    def test_positive_definite(self, rng):
        X = rng.random((10, 3))
        K = gaussian_kernel(pairwise_sq_diffs(X), np.full(3, 0.4))
        w = np.linalg.eigvalsh(K + 1e-10 * np.eye(10))
        assert w.min() > 0

    def test_lengthscale_effect(self):
        """Shorter lengthscales decay correlations faster."""
        X = np.array([[0.0], [0.5]])
        D = pairwise_sq_diffs(X)
        near = gaussian_kernel(D, np.array([1.0]))[0, 1]
        far = gaussian_kernel(D, np.array([0.1]))[0, 1]
        assert far < near

    def test_exact_value(self):
        X = np.array([[0.0], [1.0]])
        K = gaussian_kernel(pairwise_sq_diffs(X), np.array([1.0]))
        assert K[0, 1] == pytest.approx(np.exp(-0.5))

    def test_variance_scaling(self):
        X = np.array([[0.0], [1.0]])
        K = gaussian_kernel(pairwise_sq_diffs(X), np.array([1.0]), variance=4.0)
        assert K[0, 0] == pytest.approx(4.0)

    def test_nonpositive_lengthscale_raises(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            gaussian_kernel(pairwise_sq_diffs(X), np.array([0.0]))

    def test_nan_lengthscale_raises(self):
        """``ls <= 0`` is False for NaN, which used to give an all-NaN kernel."""
        sqd = pairwise_sq_diffs(np.array([[0.0, 0.0], [1.0, 0.5]]))
        with pytest.raises(ValueError, match="lengthscales must not be NaN"):
            gaussian_kernel(sqd, np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="lengthscales must not be NaN"):
            gaussian_kernel_batch(sqd, np.array([[0.5, 0.5], [np.nan, 0.5]]))

    def test_infinite_lengthscale_is_a_constant_kernel(self):
        sqd = pairwise_sq_diffs(np.array([[0.0], [1.0]]))
        assert np.array_equal(gaussian_kernel(sqd, np.array([np.inf])), np.ones((2, 2)))
        assert np.array_equal(gaussian_kernel_batch(sqd, np.array([[np.inf]])), np.ones((1, 2, 2)))


class TestKernelGradient:
    def test_gradient_matches_finite_differences(self, rng):
        X = rng.random((5, 3))
        sqd = pairwise_sq_diffs(X)
        ls = np.array([0.3, 0.7, 1.2])
        K, dK = gaussian_kernel_with_grad(sqd, ls)
        assert dK.shape == (3, 5, 5)
        eps = 1e-6
        for j in range(3):
            lp, lm = ls.copy(), ls.copy()
            lp[j] *= np.exp(eps)
            lm[j] *= np.exp(-eps)
            num = (gaussian_kernel(sqd, lp) - gaussian_kernel(sqd, lm)) / (2 * eps)
            assert np.allclose(dK[j], num, atol=1e-6)

    def test_gradient_zero_on_diagonal(self, rng):
        X = rng.random((4, 2))
        _, dK = gaussian_kernel_with_grad(pairwise_sq_diffs(X), np.array([0.5, 0.5]))
        for j in range(2):
            assert np.allclose(np.diag(dK[j]), 0.0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _assert_exp_bitwise(x):
    """``exp_inplace`` and, on its own, the clamped pass it takes when
    that is cheaper (never on a small array) both equal ``np.exp``."""
    got, clamped = x.copy(), x.copy()
    with np.errstate(over="ignore"):
        ref = np.exp(x)
        out = exp_inplace(got)
        below = clamped < -700.0
        assert kernels._exp_clamped(
            clamped, below, int(np.count_nonzero(below & (clamped >= -746.0)))
        ) is clamped
    assert out is got
    assert np.array_equal(_bits(got), _bits(ref))
    assert np.array_equal(_bits(clamped), _bits(ref))


class TestExpInplace:
    """``exp_inplace`` is ``np.exp`` bit for bit, whatever mix of arguments
    sits beside an element and at whatever SIMD lane position it falls."""

    @staticmethod
    def _mixed(rng, n):
        """Fast arguments, the [−746, −700) band and arguments below −746."""
        pools = (
            rng.uniform(-5.0, 0.0, n),
            rng.uniform(-746.0, -700.0, n),
            rng.uniform(-1e6, -746.0, n),
        )
        return np.choose(rng.integers(0, 3, n), pools)

    @pytest.mark.parametrize("n", [1, 7, 13, 31, 67])
    def test_every_edge_at_every_lane_position(self, rng, n):
        for pos in range(n):
            for value in EXP_EDGES:
                x = self._mixed(rng, n)
                x[pos] = value
                _assert_exp_bitwise(x)

    def test_stacked_kernel_shape(self, rng):
        """An ``(R, Q, N, N)`` block like the likelihood's, N = 13."""
        x = self._mixed(rng, 3 * 2 * 13 * 13).reshape(3, 2, 13, 13)
        x[0, 1, 4, :5] = EXP_EDGES[:5]
        x[2, 0, 12, 2:13] = EXP_EDGES[5:]
        _assert_exp_bitwise(x)

    @pytest.mark.parametrize(
        "lo,hi", [(-5.0, 0.0), (-746.0, -700.0), (-1e4, -746.0), (-720.0, 0.0)]
    )
    def test_single_range(self, rng, lo, hi):
        _assert_exp_bitwise(rng.uniform(lo, hi, 1003))

    def test_dense_band_and_empty(self, rng):
        _assert_exp_bitwise(np.linspace(-747.0, -699.0, 20011))
        _assert_exp_bitwise(np.empty(0))

    @pytest.mark.parametrize(
        "n,lo,hi,clamps",
        [
            (98304, -1e4, -746.0, True),  # every result +0.0: the slow path's worst case
            (98304, -708.0, -700.0, False),  # the band: gathering it costs more
            (98304, -5.0, 0.0, False),  # nothing below the floor
            (64, -1e4, -746.0, False),  # too small to repay the extra passes
        ],
    )
    def test_takes_the_cheaper_path(self, rng, monkeypatch, n, lo, hi, clamps):
        calls = []
        clamped = kernels._exp_clamped
        monkeypatch.setattr(
            kernels, "_exp_clamped", lambda *args: calls.append(args[2]) or clamped(*args)
        )
        x = rng.uniform(lo, hi, n)
        got = x.copy()
        exp_inplace(got)
        assert np.array_equal(_bits(got), _bits(np.exp(x)))
        assert calls == ([0] if clamps else [])

    def test_non_contiguous_view_is_written_in_place(self, rng):
        # a small mixed array takes plain np.exp, a large underflowing one
        # the clamped pass
        for flat in (self._mixed(rng, 2 * 41), rng.uniform(-1e4, 0.0, 2 * 4099)):
            base = flat.reshape(-1, 2)
            arg = base.copy()
            view = base[:, 1]
            assert exp_inplace(view) is view
            assert np.array_equal(_bits(base[:, 1]), _bits(np.exp(arg[:, 1])))
            assert np.array_equal(_bits(base[:, 0]), _bits(arg[:, 0]))
