"""Unit tests for Expected Improvement (repro.core.acquisition)."""

import numpy as np
import pytest
from scipy import stats

from repro.core import EIAcquisition, expected_improvement


class TestExpectedImprovement:
    def test_closed_form_value(self):
        mu, var, best = np.array([0.0]), np.array([1.0]), 1.0
        z = (best - mu[0]) / 1.0
        expected = (best - mu[0]) * stats.norm.cdf(z) + 1.0 * stats.norm.pdf(z)
        assert expected_improvement(mu, var, best)[0] == pytest.approx(expected)

    def test_zero_variance_deterministic(self):
        ei = expected_improvement(np.array([0.5, 2.0]), np.array([0.0, 0.0]), 1.0)
        assert ei[0] == pytest.approx(0.5)
        assert ei[1] == 0.0

    def test_nonnegative(self, rng):
        mu = rng.normal(size=50)
        var = rng.random(50)
        assert np.all(expected_improvement(mu, var, 0.0) >= 0)

    def test_monotone_in_mean(self):
        """Lower predicted mean (better) gives higher EI at equal variance."""
        ei = expected_improvement(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 1.0)
        assert ei[0] > ei[1]

    def test_monotone_in_variance_when_worse_than_best(self):
        """More uncertainty helps when the mean is unpromising."""
        ei = expected_improvement(np.array([2.0, 2.0]), np.array([0.01, 1.0]), 1.0)
        assert ei[1] > ei[0]

    def test_bit_identical_to_stats_norm_formula(self):
        """ndtr + the explicit pdf reproduce stats.norm.cdf/pdf to the bit."""
        rng = np.random.default_rng(7)
        mu = rng.normal(scale=3.0, size=(4, 500))
        var = rng.lognormal(sigma=3.0, size=mu.shape)
        var[:, ::7] = 0.0
        var[:, 3::11] = -rng.random(var[:, 3::11].shape)  # round-off negatives
        var[:, 5::13] = 1e-25  # sigma below the 1e-12 cutoff
        y_best = rng.normal(size=(4, 1))

        sigma = np.sqrt(np.maximum(var, 0.0))
        imp = y_best - mu
        want = np.maximum(imp, 0.0)
        pos = sigma > 1e-12
        z = imp[pos] / sigma[pos]
        want[pos] = imp[pos] * stats.norm.cdf(z) + sigma[pos] * stats.norm.pdf(z)
        want = np.maximum(want, 0.0)

        got = expected_improvement(mu, var, y_best)
        assert got.tobytes() == want.tobytes()
        for t in range(4):
            row = expected_improvement(mu[t], var[t], float(y_best[t, 0]))
            assert row.tobytes() == want[t].tobytes()


class TestEIAcquisition:
    def _predict(self, X):
        X = np.atleast_2d(X)
        return X[:, 0], 0.1 * np.ones(X.shape[0])

    def test_call_shape(self):
        acq = EIAcquisition(self._predict, y_best=0.5)
        vals = acq(np.array([[0.1], [0.9]]))
        assert vals.shape == (2,)
        assert vals[0] > vals[1]  # lower predicted mean wins

    def test_feasibility_masks_to_minus_inf(self):
        acq = EIAcquisition(
            self._predict,
            y_best=0.5,
            feasibility=lambda X: np.atleast_2d(X)[:, 0] < 0.5,
        )
        vals = acq(np.array([[0.1], [0.9]]))
        assert np.isfinite(vals[0])
        assert vals[1] == -np.inf


class TestExpectedImprovementShapes:
    """Dtype/shape contract after the astype-copy removal."""

    def test_float64_output_from_integer_inputs(self):
        ei = expected_improvement(np.array([0, 1]), np.array([1, 1]), 2)
        assert ei.dtype == np.float64
        assert ei.shape == (2,)

    def test_2d_task_axis_with_broadcast_y_best(self):
        mu = np.array([[0.0, 1.0], [2.0, 3.0]])
        var = np.full((2, 2), 0.5)
        y_best = np.array([[1.0], [4.0]])
        ei = expected_improvement(mu, var, y_best)
        assert ei.shape == (2, 2)
        # each row must equal the scalar-incumbent result for that row
        for t in range(2):
            row = expected_improvement(mu[t], var[t], float(y_best[t, 0]))
            assert np.allclose(ei[t], row)

    def test_all_zero_variance_fast_return(self):
        mu = np.array([[0.5, 2.0], [1.0, 0.0]])
        var = np.zeros((2, 2))
        ei = expected_improvement(mu, var, 1.0)
        assert ei.dtype == np.float64
        assert np.allclose(ei, np.maximum(1.0 - mu, 0.0))

    def test_mixed_zero_variance_matches_elementwise(self):
        mu = np.array([0.5, 0.5])
        var = np.array([0.0, 0.3])
        ei = expected_improvement(mu, var, 1.0)
        assert ei[0] == pytest.approx(0.5)
        assert ei[1] > ei[0]  # uncertainty adds exploration value
