"""Tests for the distributed Cholesky on simulated MPI
(repro.runtime.distributed_linalg)."""

import numpy as np
import pytest

from repro.runtime import Machine, distributed_cholesky

MACH = Machine(nodes=2, cores_per_node=8)


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n))
    return B @ B.T + n * np.eye(n)


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matches_numpy_cholesky(self, p):
        A = _spd(96, seed=1)
        Lref = np.linalg.cholesky(A)
        L, _ = distributed_cholesky(A, p, block=16, machine=MACH)
        assert np.allclose(L, Lref, atol=1e-10)

    @pytest.mark.parametrize("block", [8, 17, 32, 96, 200])
    def test_block_sizes_including_non_dividing(self, block):
        A = _spd(70, seed=2)
        L, _ = distributed_cholesky(A, 2, block=block, machine=MACH)
        assert np.allclose(L @ L.T, A, atol=1e-8)

    def test_lower_triangular(self):
        A = _spd(40, seed=3)
        L, _ = distributed_cholesky(A, 3, block=8, machine=MACH)
        assert np.allclose(np.triu(L, k=1), 0.0)

    def test_single_block(self):
        A = _spd(10, seed=4)
        L, _ = distributed_cholesky(A, 2, block=32, machine=MACH)
        assert np.allclose(L, np.linalg.cholesky(A))

    def test_nonsquare_rejected(self):
        with pytest.raises(Exception):
            distributed_cholesky(np.ones((3, 4)), 2, machine=MACH)


class TestSimulatedTime:
    def test_compute_dominated_regime_speeds_up(self):
        """For a matrix large relative to the network, a few ranks help —
        the Sec. 4.3 level-2 parallelism effect."""
        A = _spd(512, seed=5)
        _, t1 = distributed_cholesky(A, 1, block=64, machine=MACH)
        _, t4 = distributed_cholesky(A, 4, block=64, machine=MACH)
        assert t4 < t1

    def test_latency_dominated_regime_slows_down(self):
        """A tiny matrix on many ranks pays more in collectives than it
        gains in flops — the classic strong-scaling limit."""
        A = _spd(48, seed=6)
        _, t1 = distributed_cholesky(A, 1, block=8, machine=MACH)
        _, t8 = distributed_cholesky(A, 8, block=8, machine=MACH)
        assert t8 > t1

    def test_makespan_positive_and_finite(self):
        A = _spd(64, seed=7)
        _, t = distributed_cholesky(A, 2, block=16, machine=MACH)
        assert 0 < t < 10.0


class TestForwardSolve:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_direct_solve(self, p):
        from repro.runtime import distributed_forward_solve

        A = _spd(60, seed=9)
        L = np.linalg.cholesky(A)
        b = np.arange(60, dtype=float)
        x, t = distributed_forward_solve(L, b, p, block=16, machine=MACH)
        assert np.allclose(L @ x, b, atol=1e-10)
        assert t >= 0

    def test_full_covariance_solve_pipeline(self):
        """L then Lᵀ solves give Σ⁻¹y — the modeling-phase α."""
        from repro.runtime import distributed_cholesky, distributed_forward_solve

        A = _spd(48, seed=10)
        y = np.ones(48)
        L, _ = distributed_cholesky(A, 2, block=16, machine=MACH)
        z, _ = distributed_forward_solve(L, y, 2, block=16, machine=MACH)
        # back substitution via the transposed system (upper): reuse forward
        # solve on flipped ordering, or solve directly here for the check
        from scipy.linalg import solve_triangular

        alpha = solve_triangular(L.T, z, lower=False)
        assert np.allclose(A @ alpha, y, atol=1e-8)

    def test_dimension_mismatch(self):
        from repro.runtime import distributed_forward_solve

        with pytest.raises(Exception):
            distributed_forward_solve(np.eye(4), np.ones(5), 2, machine=MACH)


class TestLCMCovariance:
    """The Sec. 4.3 factorization applied to the tuner's own matrix."""

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_factors_a_fitted_lcm_covariance(self, p):
        # the simulated ScaLAPACK Cholesky of a fitted LCM's Σ + jitter
        # (Eq. 4) equals the serial factor, and so the posterior factor
        # the LCM itself holds
        from scipy.linalg import cholesky

        from repro.core import LCM
        from repro.core.kernels import pairwise_sq_diffs

        rng = np.random.default_rng(0)
        X = rng.random((36, 2))
        tidx = np.repeat(np.arange(3), 12)
        y = np.sin(3.0 * X[:, 0]) + 0.5 * tidx + 0.05 * rng.normal(size=36)
        m = LCM(3, 2, seed=0, n_start=2).fit(X, y, tidx)
        Sigma = m._covariance(m.theta, pairwise_sq_diffs(X), tidx)
        Sigma[np.diag_indices(36)] += m.jitter_used_
        L, makespan = distributed_cholesky(Sigma, p, block=8, machine=MACH)
        assert np.allclose(L, cholesky(Sigma, lower=True), atol=1e-10)
        assert np.allclose(L, m._L, atol=1e-10)
        assert makespan > 0.0
