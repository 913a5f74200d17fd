"""Tests for LOO cross-validation diagnostics (repro.core.validation)."""

import numpy as np
import pytest

from repro.core import LCM, loo_diagnostics, loo_residuals


def _fit(noise=0.0, seed=0, n=14):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.random(n))[:, None]
    y = np.sin(3 * X[:, 0]) + noise * rng.normal(size=n)
    return LCM(1, 1, seed=seed, n_start=2).fit(X, y, np.zeros(n, dtype=int)), X, y


class TestLOOResiduals:
    def test_matches_explicit_refits(self):
        """The closed-form LOO residual equals actually leaving one out
        (with hyperparameters held fixed, which is the standard definition)."""
        lcm, X, y = _fit(noise=0.05, seed=1)
        r = loo_residuals(lcm)
        # explicit check for a few points: refit the *posterior* (same θ)
        from scipy import linalg as sla

        from repro.core.kernels import pairwise_sq_diffs

        for n in (0, 5, 11):
            keep = np.arange(len(y)) != n
            Sigma = lcm._covariance(lcm.theta, pairwise_sq_diffs(X), lcm.task_index)
            Sigma[np.diag_indices(len(y))] += lcm.jitter
            S_kk = Sigma[np.ix_(keep, keep)]
            S_nk = Sigma[n, keep]
            mu_loo = S_nk @ sla.solve(S_kk, y[keep])
            assert r["residual"][n] == pytest.approx(mu_loo - y[n], rel=1e-6, abs=1e-8)

    def test_variances_positive(self):
        lcm, _, _ = _fit(noise=0.1, seed=2)
        r = loo_residuals(lcm)
        assert np.all(r["variance"] > 0)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            loo_residuals(LCM(1, 1))


class TestDiagnostics:
    def test_good_model_small_rmse(self):
        lcm, _, y = _fit(noise=0.0, seed=3)
        d = loo_diagnostics(lcm)
        assert d["rmse"] < 0.3 * np.std(y)

    def test_noisier_data_worse_loo(self):
        clean = loo_diagnostics(_fit(noise=0.0, seed=4)[0])
        noisy = loo_diagnostics(_fit(noise=0.5, seed=4)[0])
        assert noisy["rmse"] > clean["rmse"]

    def test_per_task_keys(self):
        rng = np.random.default_rng(5)
        X = rng.random((12, 1))
        y = np.sin(3 * X[:, 0]) + (np.arange(12) >= 6) * 0.5
        tidx = np.array([0] * 6 + [1] * 6)
        lcm = LCM(2, 1, seed=5, n_start=1).fit(X, y, tidx)
        d = loo_diagnostics(lcm)
        assert "rmse_task_0" in d and "rmse_task_1" in d

    def test_calibration_moments_reasonable(self):
        lcm, _, _ = _fit(noise=0.1, seed=6, n=20)
        d = loo_diagnostics(lcm)
        assert abs(d["mean_std_resid"]) < 1.0
        assert 0.1 < d["std_std_resid"] < 5.0
