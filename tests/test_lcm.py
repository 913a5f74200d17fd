"""Unit tests for the Linear Coregionalization Model (repro.core.lcm)."""

import numpy as np
import pytest

from repro.core import LCM, GaussianProcess, LCMParams
from repro.core.kernels import pairwise_sq_diffs


class TestParams:
    def test_size(self):
        p = LCMParams(n_tasks=3, n_dims=2, n_latent=2)
        # Q*β + δ*Q (a) + δ*Q (b) + δ (d)
        assert p.size == 2 * 2 + 3 * 2 + 3 * 2 + 3

    def test_pack_unpack_roundtrip(self, rng):
        p = LCMParams(2, 3, 2)
        ls = np.exp(rng.normal(size=(2, 3)))
        a = rng.normal(size=(2, 2))
        bw = np.exp(rng.normal(size=(2, 2)))
        dn = np.exp(rng.normal(size=2))
        theta = p.pack(ls, a, bw, dn)
        assert theta.shape == (p.size,)
        ls2, a2, bw2, dn2 = p.unpack(theta)
        assert np.allclose(ls, ls2) and np.allclose(a, a2)
        assert np.allclose(bw, bw2) and np.allclose(dn, dn2)

    def test_stacked_rows_bitwise_equal_row_calls(self, rng):
        p = LCMParams(3, 2, 2)
        thetas = rng.normal(size=(4, p.size))
        blocks = p.unpack(thetas)
        for r, theta in enumerate(thetas):
            for stacked, row in zip(blocks, p.unpack(theta)):
                assert np.array_equal(stacked[r], row)
        packed = p.pack_grad(*blocks)
        assert packed.shape == thetas.shape
        for r in range(thetas.shape[0]):
            assert np.array_equal(packed[r], p.pack_grad(*(b[r] for b in blocks)))

    def test_cov_matches_eq4_double_loop(self, rng):
        p = LCMParams(3, 2, 2)
        theta = rng.normal(scale=0.5, size=p.size)
        ls, a, bw, _ = p.unpack(theta)
        Xa, Xb = rng.random((7, 2)), rng.random((5, 2))
        ta, tb = rng.integers(3, size=7), rng.integers(3, size=5)
        want = np.zeros((7, 5))
        for n in range(7):
            for m in range(5):
                for q in range(p.Q):
                    k = np.exp(-0.5 * np.sum((Xa[n] - Xb[m]) ** 2 / ls[q] ** 2))
                    B = a[ta[n], q] * a[tb[m], q] + (bw[ta[n], q] if ta[n] == tb[m] else 0.0)
                    want[n, m] += B * k
        got = p.cov(theta, pairwise_sq_diffs(Xa, Xb), ta, tb)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_sparse_task_correlation_at_exact_theta(self, toy_multitask_data):
        from repro.core import SparseLCM

        X, y, tidx = toy_multitask_data
        exact = LCM(2, 1, n_latent=2, seed=0, n_start=1).fit(X, y, tidx)
        sparse = SparseLCM(2, 1, n_latent=2)
        sparse.theta = exact.theta
        assert np.array_equal(sparse.task_correlation(), exact.task_correlation())

    @pytest.mark.parametrize(
        "n_dims,n_latent", [(1, 3), (1, 0), (0, None)], ids=["Q>delta", "Q=0", "n_dims=0"]
    )
    def test_backends_share_shape_checks(self, n_dims, n_latent):
        from repro.core import SparseLCM

        messages = []
        for cls in (LCMParams, LCM, SparseLCM):
            with pytest.raises(ValueError) as err:
                cls(2, n_dims, n_latent)
            messages.append(str(err.value))
        assert len(set(messages)) == 1


class TestValidation:
    def test_q_bounds(self):
        with pytest.raises(ValueError):
            LCM(n_tasks=2, n_dims=1, n_latent=3)  # Q > δ
        with pytest.raises(ValueError):
            LCM(n_tasks=2, n_dims=1, n_latent=0)

    @pytest.mark.parametrize(
        "kwargs,named", [({"n_start": 0}, "n_start=0"), ({"n_start": -1}, "n_start=-1"),
                         ({"maxiter": 0}, "maxiter=0")],
    )
    def test_restart_settings_rejected_up_front(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            LCM(2, 1, **kwargs)

    def test_default_q(self):
        assert LCM(n_tasks=5, n_dims=1).params.Q == 3
        assert LCM(n_tasks=2, n_dims=1).params.Q == 2

    def test_fit_validation(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, seed=0)
        with pytest.raises(ValueError):
            m.fit(X, y[:-1], tidx)
        with pytest.raises(ValueError):
            m.fit(X, y, np.full_like(tidx, 5))  # task id out of range

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LCM(1, 1).predict(0, np.zeros((1, 1)))

    def test_predict_bad_task(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, seed=0, n_start=1).fit(X, y, tidx)
        with pytest.raises(ValueError):
            m.predict(7, X[:1])


class TestGradient:
    def test_analytic_gradient_matches_fd(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=1, n_start=1)
        sqd = pairwise_sq_diffs(X)
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

    def test_nll_gradient_matches_fd(self, rng):
        """δ = 1, Q = 1, β = 2: the likelihood of the single-task GP."""
        X = rng.random((8, 2))
        y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=8)
        m = LCM(1, 2, n_latent=1, seed=1)
        sqd = pairwise_sq_diffs(X)
        tidx = np.zeros(8, dtype=int)
        theta = np.array([np.log(0.4), np.log(0.8), 0.9, np.log(0.2), np.log(1e-3)])
        _, g = m._nll_and_grad(theta, sqd, y, tidx)
        eps = 1e-6
        for k in range(theta.shape[0]):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            fp, _ = m._nll_and_grad(tp, sqd, y, tidx)
            fm, _ = m._nll_and_grad(tm, sqd, y, tidx)
            assert g[k] == pytest.approx((fp - fm) / (2 * eps), rel=1e-4, abs=1e-6)


class TestFitPredict:
    def test_fits_related_tasks(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=0, n_start=2).fit(X, y, tidx)
        mu0, var0 = m.predict(0, X[tidx == 0])
        assert np.max(np.abs(mu0 - y[tidx == 0])) < 0.15
        assert np.all(var0 >= 0)

    def test_single_task_matches_gp_quality(self, rng):
        """With δ=1 the LCM reduces to a GP and should fit as well."""
        X = np.linspace(0, 1, 14)[:, None]
        y = np.sin(5 * X[:, 0])
        lcm = LCM(1, 1, seed=0, n_start=2).fit(X, y, np.zeros(14, dtype=int))
        gp = GaussianProcess(seed=0, n_start=2).fit(X, y)
        mu_l, _ = lcm.predict(0, X)
        mu_g, _ = gp.predict(X)
        assert np.max(np.abs(mu_l - y)) < 0.1
        assert np.max(np.abs(mu_g - y)) < 0.1

    def test_transfer_between_identical_tasks(self, rng):
        """A task with few samples borrows from an identical, dense task."""
        f = lambda x: np.sin(6 * x)
        X_dense = np.linspace(0, 1, 20)[:, None]
        X_sparse = np.array([[0.1], [0.9]])
        X = np.vstack([X_dense, X_sparse])
        y = f(X[:, 0])
        tidx = np.array([0] * 20 + [1] * 2)
        m = LCM(2, 1, n_latent=1, seed=0, n_start=3).fit(X, y, tidx)
        Xq = np.array([[0.5]])
        mu, _ = m.predict(1, Xq)
        # a 2-point single-task GP could not know f(0.5); the LCM can
        assert abs(mu[0] - f(0.5)) < 0.35

    def test_task_correlation_matrix(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=0, n_start=1).fit(X, y, tidx)
        C = m.task_correlation()
        assert C.shape == (2, 2)
        assert np.allclose(np.diag(C), 1.0)
        assert np.all(np.abs(C) <= 1.0 + 1e-9)

    def test_executor_restarts_equivalent(self, toy_multitask_data):
        """Serial and scheduler-mapped restarts find the same optimum."""
        from repro.runtime.async_engine import ThreadScheduler

        X, y, tidx = toy_multitask_data
        serial = LCM(2, 1, n_latent=1, seed=7, n_start=3).fit(X, y, tidx)
        ex = ThreadScheduler(2)
        try:
            par = LCM(2, 1, n_latent=1, seed=7, n_start=3, executor=ex).fit(X, y, tidx)
        finally:
            ex.shutdown()
        assert par.log_likelihood_ == pytest.approx(serial.log_likelihood_, rel=1e-6)

    def test_posterior_variance_zero_at_data(self, toy_multitask_data):
        X, y, tidx = toy_multitask_data
        m = LCM(2, 1, n_latent=2, seed=0, n_start=1).fit(X, y, tidx)
        _, var = m.predict(0, X[tidx == 0][:3])
        # small but not exactly zero because of the fitted noise d_i
        assert np.all(var < 0.5)


class TestExtendDrift:
    """Many incremental extends must not drift from a cold refactorization.

    The async driver absorbs streaming results via :meth:`LCM.extend` for up
    to ``refit_interval - 1`` rounds before the next full refit; block
    Cholesky updates that accumulated error would silently corrupt every
    acquisition decision in between.
    """

    def test_many_extends_match_cold_refactorize(self, rng):
        n_total, n0 = 60, 12
        X = rng.random((n_total, 2))
        tidx = rng.integers(0, 3, size=n_total)
        tidx[:3] = [0, 1, 2]  # every task observed in the seed block
        y = (
            np.sin(3 * X[:, 0])
            + 0.4 * np.cos(2 * X[:, 1])
            + 0.3 * tidx
            + 0.05 * rng.normal(size=n_total)
        )

        def pinned(n):
            """Model over X[:n] at a fixed θ with a healthy noise term.

            The seed fit's θ interpolates its 12 points (d_i ≈ 0), which
            makes the extended system ill-conditioned and would measure
            jitter-escalation differences, not block-update drift.
            """
            m = LCM(3, 2, seed=0, n_start=1).fit(X[:n0], y[:n0], tidx[:n0])
            ls, a, bw, dn = m.params.unpack(m.theta)
            theta = m.params.pack(ls, a, bw, np.maximum(dn, 1e-2))
            return m.refit_at(X[:n].copy(), y[:n].copy(), tidx[:n].copy(), theta)

        inc = pinned(n0)
        for i in range(n0, n_total):  # one observation at a time: worst case
            inc.extend(X[i : i + 1], y[i : i + 1], tidx[i : i + 1])

        cold = pinned(n_total)
        assert np.array_equal(cold.theta, inc.theta)

        # the log likelihood the cold factor itself gives
        cold_ll = -(
            0.5 * float(cold.y @ cold._alpha)
            + float(np.log(np.diag(cold._L)).sum())
            + 0.5 * n_total * np.log(2 * np.pi)
        )
        assert inc.log_likelihood_ == pytest.approx(cold_ll, abs=1e-8)
        Xs = rng.random((20, 2))
        for t in range(3):
            mu_i, var_i = inc.predict(t, Xs)
            mu_c, var_c = cold.predict(t, Xs)
            assert np.allclose(mu_i, mu_c, atol=1e-8)
            assert np.allclose(var_i, var_c, atol=1e-8)

    def test_batched_extend_matches_one_shot(self, rng):
        """Extending in chunks equals extending everything at once."""
        X = rng.random((40, 1))
        tidx = np.array([0, 1] * 20)
        y = np.sin(5 * X[:, 0]) + 0.2 * tidx

        a = LCM(2, 1, seed=0, n_start=1).fit(X[:10], y[:10], tidx[:10])
        b = LCM(2, 1, seed=0, n_start=1).fit(X[:10], y[:10], tidx[:10])
        a.extend(X[10:], y[10:], tidx[10:])
        for lo in range(10, 40, 5):
            b.extend(X[lo : lo + 5], y[lo : lo + 5], tidx[lo : lo + 5])

        Xs = rng.random((10, 1))
        for t in range(2):
            mu_a, var_a = a.predict(t, Xs)
            mu_b, var_b = b.predict(t, Xs)
            assert np.allclose(mu_a, mu_b, atol=1e-8)
            assert np.allclose(var_a, var_b, atol=1e-8)
