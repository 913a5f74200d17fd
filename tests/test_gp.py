"""Unit tests for the single-task GP (repro.core.gp)."""

import numpy as np
import pytest

from repro.core import GaussianProcess
from repro.core.kernels import pairwise_sq_diffs


class TestFit:
    def test_interpolates_smooth_function(self, rng):
        X = np.linspace(0, 1, 12)[:, None]
        y = np.sin(4 * X[:, 0])
        gp = GaussianProcess(seed=0, n_start=2).fit(X, y)
        mu, var = gp.predict(X)
        assert np.max(np.abs(mu - y)) < 0.05
        assert np.all(var >= 0)

    def test_prediction_between_points(self, rng):
        X = np.linspace(0, 1, 15)[:, None]
        y = np.sin(4 * X[:, 0])
        gp = GaussianProcess(seed=0, n_start=2).fit(X, y)
        Xq = np.array([[0.33], [0.66]])
        mu, _ = gp.predict(Xq)
        assert np.allclose(mu, np.sin(4 * Xq[:, 0]), atol=0.1)

    def test_variance_grows_away_from_data(self):
        X = np.array([[0.4], [0.5], [0.6]])
        y = np.array([0.0, 0.1, 0.0])
        gp = GaussianProcess(seed=0, n_start=2).fit(X, y)
        _, var_near = gp.predict(np.array([[0.5]]))
        _, var_far = gp.predict(np.array([[0.0]]))
        assert var_far[0] > var_near[0]

    def test_shape_validation(self):
        gp = GaussianProcess()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_lengthscales_property(self, rng):
        X = rng.random((10, 2))
        y = X[:, 0]
        gp = GaussianProcess(seed=0, n_start=1).fit(X, y)
        assert gp.lengthscales.shape == (2,)
        with pytest.raises(RuntimeError):
            GaussianProcess().lengthscales

    def test_ard_discovers_irrelevant_dimension(self, rng):
        """The lengthscale of a dimension y ignores should grow large."""
        X = rng.random((30, 2))
        y = np.sin(5 * X[:, 0])  # dimension 1 is irrelevant
        gp = GaussianProcess(seed=0, n_start=3).fit(X, y)
        ls = gp.lengthscales
        assert ls[1] > ls[0]


class TestGradients:
    def test_nll_gradient_matches_fd(self, rng):
        X = rng.random((8, 2))
        y = np.sin(3 * X[:, 0]) + 0.1 * rng.normal(size=8)
        gp = GaussianProcess(seed=1)
        sqd = pairwise_sq_diffs(X)
        theta = np.array([0.1, np.log(0.4), np.log(0.8), np.log(1e-3)])
        _, g = gp._nll_and_grad(theta, sqd, y)
        eps = 1e-6
        for k in range(theta.shape[0]):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += eps
            tm[k] -= eps
            fp, _ = gp._nll_and_grad(tp, sqd, y)
            fm, _ = gp._nll_and_grad(tm, sqd, y)
            assert g[k] == pytest.approx((fp - fm) / (2 * eps), rel=1e-4, abs=1e-6)

    def test_loglikelihood_improves_with_restarts(self, rng):
        X = rng.random((12, 1))
        y = np.sin(6 * X[:, 0])
        ll1 = GaussianProcess(seed=3, n_start=1).fit(X, y).log_likelihood_
        ll5 = GaussianProcess(seed=3, n_start=5).fit(X, y).log_likelihood_
        assert ll5 >= ll1 - 1e-6


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,named", [({"n_start": 0}, "n_start=0"), ({"maxiter": 0}, "maxiter=0")],
    )
    def test_restart_settings_rejected_up_front(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            GaussianProcess(**kwargs)
