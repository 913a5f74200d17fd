"""Tests for the vectorized LCM hot path (repro.core.lcm).

Pins the fast likelihood/gradient against the retained reference
implementation and its stacked ``(R, P)`` form against per-row calls,
checks analytic gradients against finite differences across randomized
shapes, and covers the fit-capture, block-extension, jitter-escalation and
predict-cache machinery, the per-call fixed-cost savings (cached LAPACK
handles, the task-layout cache, thread- and process-mapped restart groups
staying bitwise-equal to serial fits) and the ranking of failed restarts.
"""

import numpy as np
import pytest
from scipy import linalg as sla

import repro.core.lcm as lcm_mod
from repro.core import LCM
from repro.core.kernels import gaussian_kernel_batch, gaussian_kernel, pairwise_sq_diffs
from repro.runtime.async_engine import SerialScheduler, ThreadScheduler, make_scheduler


def _case(rng, delta, beta, n):
    X = rng.random((n, beta))
    tidx = rng.integers(0, delta, n)
    y = np.sin(3.0 * X[:, 0]) + 0.3 * tidx + 0.05 * rng.normal(size=n)
    return X, y, tidx


class TestKernelBatch:
    def test_matches_per_latent_kernels(self, rng):
        sqd = pairwise_sq_diffs(rng.random((9, 3)), rng.random((7, 3)))
        ls = np.exp(rng.normal(size=(4, 3)))
        Kall = gaussian_kernel_batch(sqd, ls)
        assert Kall.shape == (4, 9, 7)
        for q in range(4):
            assert np.allclose(Kall[q], gaussian_kernel(sqd, ls[q]))

    def test_out_buffer_reused(self, rng):
        sqd = pairwise_sq_diffs(rng.random((5, 2)))
        ls = np.exp(rng.normal(size=(2, 2)))
        out = np.empty((2, 5, 5))
        got = gaussian_kernel_batch(sqd, ls, out=out)
        assert got is out

    def test_rejects_bad_lengthscales(self, rng):
        sqd = pairwise_sq_diffs(rng.random((4, 2)))
        with pytest.raises(ValueError):
            gaussian_kernel_batch(sqd, np.array([[0.5, -1.0]]))
        with pytest.raises(ValueError):
            gaussian_kernel_batch(sqd, np.ones((1, 3)))  # dim mismatch


class TestEquivalence:
    """The vectorized path must be numerically identical to the reference."""

    @pytest.mark.parametrize(
        "delta,beta,q,n",
        [(2, 2, 2, 24), (3, 4, 2, 30), (4, 6, 3, 40), (1, 3, 1, 16), (5, 5, 3, 36)],
    )
    def test_fast_matches_reference(self, rng, delta, beta, q, n):
        X, y, tidx = _case(rng, delta, beta, n)
        sqd = pairwise_sq_diffs(X)
        m = LCM(delta, beta, n_latent=q, seed=3)
        for restart in range(3):
            theta = m._initial_theta(y, restart=restart)
            f_fast, g_fast = m._nll_and_grad(theta, sqd, y, tidx)
            f_ref, g_ref = m._nll_and_grad_reference(theta, sqd, y, tidx)
            assert abs(f_fast - f_ref) < 1e-8
            assert np.max(np.abs(g_fast - g_ref)) < 1e-6

    def test_workspace_reuse_does_not_corrupt(self, rng):
        """Back-to-back evaluations at different θ reuse buffers safely."""
        X, y, tidx = _case(rng, 3, 2, 20)
        sqd = pairwise_sq_diffs(X)
        m = LCM(3, 2, n_latent=2, seed=0)
        thetas = [m._initial_theta(y, restart=r) for r in range(4)]
        expected = [m._nll_and_grad_reference(t, sqd, y, tidx) for t in thetas]
        for theta, (f_ref, g_ref) in zip(thetas, expected):
            f, g = m._nll_and_grad(theta, sqd, y, tidx)
            assert abs(f - f_ref) < 1e-8
            assert np.max(np.abs(g - g_ref)) < 1e-6

    def test_diverged_theta_returns_sentinel(self, rng):
        """A non-PD covariance reports the divergence sentinel, not a crash."""
        X, y, tidx = _case(rng, 2, 1, 8)
        X[1] = X[0]  # duplicate rows
        tidx[1] = tidx[0]
        m = LCM(2, 1, n_latent=1, seed=0, jitter=0.0)
        theta = m.params.pack(
            np.full((1, 1), 0.3),
            np.ones((2, 1)),
            np.full((2, 1), 1e-18),
            np.full(2, 1e-18),
        )
        f, g = m._nll_and_grad(theta, pairwise_sq_diffs(X), y, tidx)
        assert f >= 1e24 and np.all(g == 0)


def _stacked_cases():
    """(δ, β, Q, R, N) covering δ 1–6, β 1–6, Q 1–3 and R 1–4."""
    cases = []
    for i in range(24):
        delta = 1 + i % 6
        beta = 1 + (5 * i) % 6
        q = 1 + (i // 6) % min(delta, 3)
        cases.append((delta, beta, q, 1 + i % 4, 12 + 3 * i))
    return cases


def _assert_rows_equal_single_calls(m, theta, sqd, y, tidx):
    """A stacked call is bitwise R one-vector calls, captures included."""
    caps = [{} for _ in theta]
    F, G = m._nll_and_grad(theta, sqd, y, tidx, capture=caps)
    assert F.shape == (theta.shape[0],) and G.shape == theta.shape
    for r in range(theta.shape[0]):
        cap: dict = {}
        f, g = m._nll_and_grad(theta[r].copy(), sqd, y, tidx, capture=cap)
        assert np.float64(F[r]).tobytes() == np.float64(f).tobytes()
        assert G[r].tobytes() == g.tobytes()
        assert caps[r].keys() == cap.keys()
        for key in cap:
            assert np.asarray(caps[r][key]).tobytes() == np.asarray(cap[key]).tobytes()
    return F, G


class TestStackedKernel:
    """``_nll_and_grad`` on ``(R, P)`` stacked rows — the lockstep fit's
    objective — is bitwise the per-row one-vector call."""

    @pytest.mark.parametrize("delta,beta,q,R,n", _stacked_cases())
    def test_rows_equal_single_calls_and_reference(self, rng, delta, beta, q, R, n):
        X, y, tidx = _case(rng, delta, beta, n)
        sqd = pairwise_sq_diffs(X)
        m = LCM(delta, beta, n_latent=q, seed=3)
        theta = np.stack([m._initial_theta(y, restart=r) for r in range(R)])
        F, G = _assert_rows_equal_single_calls(m, theta, sqd, y, tidx)
        for r in range(R):
            f_ref, g_ref = m._nll_and_grad_reference(theta[r], sqd, y, tidx)
            assert abs(F[r] - f_ref) < 1e-8
            assert np.max(np.abs(G[r] - g_ref)) < 1e-6

    def test_diverged_row_beside_good_rows(self, rng):
        """A row whose potrf fails returns the sentinel, a zero gradient and
        no capture; the rows around it are untouched."""
        X, y, tidx = _case(rng, 2, 1, 10)
        X[1] = X[0]  # duplicate rows
        tidx[1] = tidx[0]
        sqd = pairwise_sq_diffs(X)
        m = LCM(2, 1, n_latent=1, seed=0, jitter=0.0)
        singular = m.params.pack(
            np.full((1, 1), 0.3), np.ones((2, 1)), np.full((2, 1), 1e-18), np.full(2, 1e-18)
        )
        theta = np.stack([m._initial_theta(y, 0), singular, m._initial_theta(y, 2)])
        F, G = _assert_rows_equal_single_calls(m, theta, sqd, y, tidx)
        assert F[1] >= 1e24 and np.all(G[1] == 0)
        assert np.all(F[[0, 2]] < 1e24)
        all_bad = np.stack([singular, singular])
        F, G = m._nll_and_grad(all_bad, sqd, y, tidx)
        assert np.all(F >= 1e24) and np.all(G == 0)

    def test_potri_failure_falls_back_per_row(self, rng, monkeypatch):
        X, y, tidx = _case(rng, 3, 2, 20)
        sqd = pairwise_sq_diffs(X)
        m = LCM(3, 2, n_latent=2, seed=0)
        theta = np.stack([m._initial_theta(y, r) for r in range(3)])
        F0, G0 = m._nll_and_grad(theta, sqd, y, tidx)
        real, calls = lcm_mod._POTRI, []

        def second_fails(L, **kw):  # every second factor "fails" to invert
            calls.append(1)
            return (np.zeros_like(L), 1) if len(calls) % 2 == 0 else real(L, **kw)

        monkeypatch.setattr(lcm_mod, "_POTRI", second_fails)
        F1, G1 = m._nll_and_grad(theta, sqd, y, tidx)
        assert F1.tobytes() == F0.tobytes()
        assert G1[[0, 2]].tobytes() == G0[[0, 2]].tobytes()
        assert np.allclose(G1[1], G0[1], rtol=1e-8, atol=1e-10)
        # the fallback itself is what a failing one-vector call computes
        calls.clear()
        monkeypatch.setattr(lcm_mod, "_POTRI", lambda L, **kw: (np.zeros_like(L), 1))
        _assert_rows_equal_single_calls(m, theta, sqd, y, tidx)

    def test_single_latent_loadings_gather_contiguously(self, rng):
        """Q = 1: the strided ``a[:, tidx]`` view would move einsum's
        summation order (and ``g_a``) away from the one-vector call."""
        delta, R = 4, 3
        X, y, tidx = _case(rng, delta, 1, 40)
        m = LCM(delta, 1, n_latent=1, seed=1)
        theta = np.stack([m._initial_theta(y, r) for r in range(R)])
        a = theta[:, 1 : 1 + delta].reshape(R, delta, 1)
        assert not a[:, tidx].flags.c_contiguous
        _, G = _assert_rows_equal_single_calls(m, theta, pairwise_sq_diffs(X), y, tidx)
        assert np.any(G[:, 1 : 1 + delta] != 0)

    def test_narrower_call_reuses_the_workspace(self, rng):
        X, y, tidx = _case(rng, 3, 2, 24)
        sqd = pairwise_sq_diffs(X)
        m = LCM(3, 2, n_latent=2, seed=0)
        theta = np.stack([m._initial_theta(y, r) for r in range(4)])
        m._nll_and_grad(theta, sqd, y, tidx)
        ws = m._tls.ws
        for R in (3, 1, 2):
            _assert_rows_equal_single_calls(m, theta[:R], sqd, y, tidx)
        assert m._tls.ws is ws


class TestGradientFiniteDifference:
    @pytest.mark.parametrize("delta,beta,q,n", [(2, 3, 2, 14), (4, 2, 3, 18), (1, 4, 1, 10)])
    def test_fd_matches_randomized_cases(self, rng, delta, beta, q, n):
        X, y, tidx = _case(rng, delta, beta, n)
        sqd = pairwise_sq_diffs(X)
        m = LCM(delta, beta, n_latent=q, seed=11)
        theta = m._initial_theta(y, restart=1)
        _, g = m._nll_and_grad(theta, sqd, y, tidx)
        eps = 1e-6
        num = np.zeros_like(theta)
        for k in range(theta.shape[0]):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            fp, _ = m._nll_and_grad(tp, sqd, y, tidx)
            fm, _ = m._nll_and_grad(tm, sqd, y, tidx)
            num[k] = (fp - fm) / (2 * eps)
        assert np.max(np.abs(g - num) / (1.0 + np.abs(num))) < 1e-5


class TestFitCapture:
    def test_fit_factorization_is_consistent(self, toy_multitask_data):
        """The captured (L, α) equal a from-scratch factorization at θ*."""
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=0, n_start=2).fit(X, y, tidx)
        Sigma = m._covariance(m.theta, pairwise_sq_diffs(X), tidx)
        Sigma[np.diag_indices(X.shape[0])] += m.jitter_used_
        L = sla.cholesky(Sigma, lower=True)
        assert np.allclose(m._L, L, atol=1e-10)
        assert np.allclose(m._alpha, sla.cho_solve((L, True), y), atol=1e-8)
        assert m.jitter_used_ == m.jitter

    def test_log_likelihood_matches_reference_nll(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=0, n_start=2).fit(X, y, tidx)
        f_ref, _ = m._nll_and_grad_reference(m.theta, pairwise_sq_diffs(X), y, tidx)
        assert m.log_likelihood_ == pytest.approx(-f_ref, rel=1e-9)


class TestJitterEscalation:
    def test_refactorize_does_not_compound_jitter(self):
        """Each escalation retries from the base diagonal, and the final
        factorization uses exactly the reported ``jitter_used_``."""
        # two identical points in one task with ~zero noise -> singular Σ
        X = np.array([[0.5], [0.5], [0.1]])
        y = np.array([1.0, 1.0, 0.0])
        tidx = np.array([0, 0, 0])
        m = LCM(1, 1, n_latent=1, seed=0, jitter=1e-300)
        m.X, m.y, m.task_index = X, y, tidx
        m.theta = m.params.pack(
            np.full((1, 1), 0.3), np.ones((1, 1)), np.full((1, 1), 1e-18), np.full(1, 1e-18)
        )
        m._refactorize(pairwise_sq_diffs(X))
        assert np.isfinite(m.jitter_used_) and m.jitter_used_ > m.jitter
        Sigma = m._covariance(m.theta, pairwise_sq_diffs(X), tidx)
        Sigma[np.diag_indices(3)] += m.jitter_used_
        # the known, reported jitter reproduces the factorization exactly
        assert np.allclose(m._L @ m._L.T, Sigma, atol=1e-12)
        assert np.allclose(m._alpha, sla.cho_solve((m._L, True), y))

    def test_refactorize_raises_beyond_cap(self):
        X = np.array([[0.5], [0.5]])
        m = LCM(1, 1, n_latent=1, seed=0, jitter=1e-300)
        m.X, m.y, m.task_index = X, np.array([np.inf, -np.inf]), np.array([0, 0])
        m.theta = m.params.pack(
            np.full((1, 1), 1e6), np.full((1, 1), np.nan), np.full((1, 1), 1.0), np.full(1, 1.0)
        )
        with pytest.raises(Exception):
            m._refactorize(pairwise_sq_diffs(X))


class TestExtend:
    def test_extend_matches_cold_factorization(self, rng):
        delta, beta, n = 3, 2, 30
        X, y, tidx = _case(rng, delta, beta, n)
        m = LCM(delta, beta, n_latent=2, seed=0, n_start=2).fit(X[:22], y[:22], tidx[:22])
        m.extend(X[22:], y[22:], tidx[22:])
        Sigma = m._covariance(m.theta, pairwise_sq_diffs(X), tidx)
        Sigma[np.diag_indices(n)] += m.jitter_used_
        L = sla.cholesky(Sigma, lower=True)
        assert np.allclose(m._L, L, atol=1e-9)
        assert np.allclose(m._alpha, sla.cho_solve((L, True), y), atol=1e-8)
        nll_ref, _ = m._nll_and_grad_reference(m.theta, pairwise_sq_diffs(X), y, tidx)
        assert m.log_likelihood_ == pytest.approx(-nll_ref, rel=1e-9)

    def test_extend_predictions_match_cold_fit_at_same_theta(self, rng):
        delta, beta, n = 2, 2, 24
        X, y, tidx = _case(rng, delta, beta, n)
        warm = LCM(delta, beta, n_latent=2, seed=0, n_start=2).fit(X[:18], y[:18], tidx[:18])
        warm.extend(X[18:], y[18:], tidx[18:])
        # a cold posterior assembled from scratch at the same θ must agree
        cold = LCM(delta, beta, n_latent=2, seed=0)
        cold.X, cold.y, cold.task_index, cold.theta = X, y, tidx, warm.theta
        cold._refactorize(pairwise_sq_diffs(X))
        Xq = rng.random((5, beta))
        mu_w, var_w = warm.predict(0, Xq)
        mu_c, var_c = cold.predict(0, Xq)
        assert np.allclose(mu_w, mu_c, atol=1e-6)
        assert np.allclose(var_w, var_c, atol=1e-6)

    def test_extend_validation(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=1, seed=0, n_start=1)
        with pytest.raises(RuntimeError):
            m.extend(X[:2], y[:2], tidx[:2])
        m.fit(X, y, tidx)
        with pytest.raises(ValueError):
            m.extend(X[:2], y[:1], tidx[:2])
        with pytest.raises(ValueError):
            m.extend(np.zeros((2, 3)), y[:2], tidx[:2])  # wrong dimension
        with pytest.raises(ValueError):
            m.extend(X[:2], y[:2], [0, 9])  # task out of range
        n0 = m.y.shape[0]
        m.extend(np.empty((0, 1)), np.empty(0), np.empty(0, dtype=int))
        assert m.y.shape[0] == n0  # no-op append


class TestPredictCache:
    def test_cached_and_cold_predictions_identical(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=0, n_start=1).fit(X, y, tidx)
        Xq = X[:4] + 0.01
        mu1, var1 = m.predict(0, Xq)
        assert 0 in m._pred_cache
        mu2, var2 = m.predict(0, Xq)
        assert np.array_equal(mu1, mu2) and np.array_equal(var1, var2)
        m._pred_cache.clear()
        mu3, var3 = m.predict(0, Xq)
        assert np.allclose(mu1, mu3) and np.allclose(var1, var3)

    def test_cache_invalidated_by_fit_and_extend(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=0, n_start=1).fit(X, y, tidx)
        m.predict(0, X[:2])
        m.predict(1, X[:2])
        assert len(m._pred_cache) == 2
        m.extend(np.array([[0.35]]), np.array([0.2]), [0])
        assert not m._pred_cache
        assert m._layout_cache is None
        mu, var = m.predict(0, X[:2])
        assert mu.shape == (2,) and np.all(var >= 0)
        m.fit(X, y, tidx)
        assert not m._pred_cache

    def test_pickle_roundtrip_drops_caches(self, toy_multitask_data):
        import pickle

        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=0, n_start=1).fit(X, y, tidx)
        m.predict(0, X[:2])
        assert m._layout_cache is not None
        clone = pickle.loads(pickle.dumps(m))
        assert not clone._pred_cache
        assert clone._layout_cache is None
        mu0, var0 = m.predict(1, X[:3])
        mu1, var1 = clone.predict(1, X[:3])
        assert np.allclose(mu0, mu1) and np.allclose(var0, var1)


class TestLapackHandles:
    """The cached potrf/potrs/potri handles keep the scipy wrappers' results
    and error semantics."""

    def test_captured_factor_matches_scipy_bitwise(self, rng, monkeypatch):
        X, y, tidx = _case(rng, 4, 3, 40)
        sqd = pairwise_sq_diffs(X)
        m = LCM(4, 3, n_latent=3, seed=0)
        seen = []
        real = lcm_mod._POTRF

        def spy(a, **kw):
            seen.append(np.array(a, copy=True))
            return real(a, **kw)

        monkeypatch.setattr(lcm_mod, "_POTRF", spy)
        for restart in range(3):
            cap: dict = {}
            m._nll_and_grad(m._initial_theta(y, restart), sqd, y, tidx, capture=cap)
            L = sla.cholesky(seen[-1], lower=True)
            assert np.array_equal(cap["L"], L)
            assert np.array_equal(cap["alpha"], sla.cho_solve((L, True), y))

    @pytest.mark.parametrize("name", ["_POTRF", "_POTRS"])
    def test_illegal_argument_raises_value_error(self, rng, monkeypatch, name):
        X, y, tidx = _case(rng, 2, 2, 12)
        m = LCM(2, 2, n_latent=2, seed=0)
        real = getattr(lcm_mod, name)
        monkeypatch.setattr(lcm_mod, name, lambda *a, **kw: (real(*a, **kw)[0], -2))
        with pytest.raises(ValueError, match="illegal value"):
            m._nll_and_grad(m._initial_theta(y, 0), pairwise_sq_diffs(X), y, tidx)

    def test_potri_failure_falls_back_to_solve(self, rng, monkeypatch):
        X, y, tidx = _case(rng, 3, 2, 20)
        sqd = pairwise_sq_diffs(X)
        m = LCM(3, 2, n_latent=2, seed=0)
        theta = m._initial_theta(y, 1)
        f0, g0 = m._nll_and_grad(theta, sqd, y, tidx)
        monkeypatch.setattr(lcm_mod, "_POTRI", lambda L, **kw: (np.zeros_like(L), 1))
        f1, g1 = m._nll_and_grad(theta, sqd, y, tidx)
        assert f1 == f0
        assert np.allclose(g1, g0, rtol=1e-8, atol=1e-10)


class TestLayoutCache:
    """The per-layout record is keyed on the ``tidx`` object."""

    def _fresh(self, delta, beta, theta, sqd, y, tidx):
        return LCM(delta, beta, n_latent=2, seed=0)._nll_and_grad(theta, sqd, y, tidx)

    def test_rebuilt_for_permuted_tasks_same_n(self, rng):
        X, y, tidx = _case(rng, 3, 2, 24)
        sqd = pairwise_sq_diffs(X)
        m = LCM(3, 2, n_latent=2, seed=0)
        theta = m._initial_theta(y, 1)
        m._nll_and_grad(theta, sqd, y, tidx)
        first = m._layout_cache
        perm = (tidx + 1) % 3  # same N, every row moved to another task
        f, g = m._nll_and_grad(theta, sqd, y, perm)
        assert m._layout_cache is not first and m._layout_cache.tidx is perm
        f_ref, g_ref = self._fresh(3, 2, theta, sqd, y, perm)
        assert f == f_ref and np.array_equal(g, g_ref)

    def test_rebuilt_when_n_changes(self, rng):
        X, y, tidx = _case(rng, 3, 2, 30)
        m = LCM(3, 2, n_latent=2, seed=0)
        theta = m._initial_theta(y, 1)
        m._nll_and_grad(theta, pairwise_sq_diffs(X), y, tidx)
        sub = tidx[:17]
        sqd = pairwise_sq_diffs(X[:17])
        f, g = m._nll_and_grad(theta, sqd, y[:17], sub)
        assert m._layout_cache.tidx is sub and m._layout_cache.pair.shape == (17 * 17,)
        f_ref, g_ref = self._fresh(3, 2, theta, sqd, y[:17], sub)
        assert f == f_ref and np.array_equal(g, g_ref)


class TestThreadedRestarts:
    """Restart groups mapped over thread or process schedulers (threads share
    one layout record) must fit bitwise-equal to serial restarts."""

    def test_thread_backend_fit_bitwise_equals_serial(self, rng):
        X, y, tidx = _case(rng, 3, 2, 30)
        serial = LCM(3, 2, n_latent=2, seed=5, n_start=4, maxiter=40).fit(X, y, tidx)
        ex = ThreadScheduler(2)
        try:
            par = LCM(3, 2, n_latent=2, seed=5, n_start=4, maxiter=40, executor=ex).fit(
                X, y, tidx
            )
        finally:
            ex.shutdown()
        assert np.array_equal(par.theta, serial.theta)
        assert np.array_equal(par._L, serial._L)
        assert np.array_equal(par._alpha, serial._alpha)
        assert par.log_likelihood_ == serial.log_likelihood_

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_group_mapped_fit_bitwise_equals_serial(self, rng, backend):
        """A scheduler with two workers runs the restarts as two lockstep
        groups; the fit must equal the one-group serial fit bit for bit."""
        X, y, tidx = _case(rng, 4, 1, 36)
        serial = LCM(4, 1, seed=2, n_start=3, maxiter=40).fit(X, y, tidx)
        ex = make_scheduler(backend, 2)
        try:
            par = LCM(4, 1, seed=2, n_start=3, maxiter=40, executor=ex).fit(X, y, tidx)
        finally:
            ex.shutdown()
        assert par.theta.tobytes() == serial.theta.tobytes()
        assert par._L.tobytes() == serial._L.tobytes()
        assert par._alpha.tobytes() == serial._alpha.tobytes()
        assert par.log_likelihood_ == serial.log_likelihood_

    def test_groups_follow_the_worker_count(self, rng):
        """``min(n_start, n_workers)`` contiguous groups, in restart order."""
        sizes = []

        class Recording(SerialScheduler):
            def __init__(self, n_workers):
                super().__init__()
                self.n_workers = n_workers

            def start(self, seq, fn, job, eta=None):
                if seq == 0:
                    sizes.append([])
                sizes[-1].append(len(job[0]))
                super().start(seq, fn, job, eta)

        X, y, tidx = _case(rng, 2, 1, 20)
        fits = [LCM(2, 1, seed=4, n_start=5, maxiter=30, executor=Recording(w)).fit(X, y, tidx)
                for w in (2, 3, 8)]
        assert sizes == [[3, 2], [2, 2, 1], [1, 1, 1, 1, 1]]
        serial = LCM(2, 1, seed=4, n_start=5, maxiter=30).fit(X, y, tidx)
        for fit in fits:
            assert fit.theta.tobytes() == serial.theta.tobytes()


class TestRestartRanking:
    def test_nan_restart_zero_does_not_win(self, toy_multitask_data):
        """A NaN nll in restart 0 must rank last, not win by position."""
        X, y, tidx = toy_multitask_data
        ref = LCM(2, 1, n_latent=2, seed=0, n_start=3).fit(X, y, tidx)
        m = LCM(2, 1, n_latent=2, seed=0, n_start=3)
        real = m._optimize_group
        calls = []

        def first_is_nan(args):
            out = real(args)
            first_group = not calls
            calls.extend(out)
            if first_group:
                out[0] = (float("nan"), out[0][1], None, None)
            return out

        m._optimize_group = first_is_nan
        m.fit(X, y, tidx)
        assert len(calls) == 3
        finite = [r[0] for r in calls[1:]]
        assert np.isfinite(m.log_likelihood_)
        assert m.log_likelihood_ == -min(finite)
        assert m.log_likelihood_ <= ref.log_likelihood_

    def test_all_nan_restarts_keep_first(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=1, seed=0, n_start=2, maxiter=5)
        real = m._optimize_group
        m._optimize_group = lambda args: [
            (float("nan"),) + tuple(r[1:]) for r in real(args)
        ]
        m.fit(X, y, tidx)
        assert np.isnan(m.log_likelihood_)
