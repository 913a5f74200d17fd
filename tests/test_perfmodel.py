"""Unit tests for performance-model incorporation (repro.core.perfmodel)."""

import json

import numpy as np
import pytest

from repro.core import CallableModel, LinearPerformanceModel, ModelFeaturizer
from repro.core.perfmodel import PerformanceModel


class TestCallableModel:
    def test_predict(self):
        m = CallableModel(lambda task, cfg: task["m"] * cfg["x"])
        assert m.predict({"m": 3}, {"x": 2.0}) == 6.0

    def test_update_is_noop(self):
        m = CallableModel(lambda task, cfg: 1.0)
        m.update([], [], np.array([]))  # must not raise


class TestLinearPerformanceModel:
    def test_initial_coefficients(self):
        m = LinearPerformanceModel([lambda t, c: 2.0], initial_coefficients=[3.0])
        assert m.predict({}, {}) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearPerformanceModel([])
        with pytest.raises(ValueError):
            LinearPerformanceModel([lambda t, c: 1.0], initial_coefficients=[1.0, 2.0])

    def test_nnls_recovers_coefficients(self, rng):
        """With y = 2·φ1 + 5·φ2 the update recovers (2, 5)."""
        feats = [lambda t, c: c["a"], lambda t, c: c["b"]]
        m = LinearPerformanceModel(feats)
        cfgs = [{"a": float(a), "b": float(b)} for a, b in rng.random((20, 2)) * 10]
        y = np.array([2.0 * c["a"] + 5.0 * c["b"] for c in cfgs])
        m.update([{}] * len(cfgs), cfgs, y)
        assert m.coefficients == pytest.approx([2.0, 5.0], rel=1e-6)
        assert m.n_updates == 1

    def test_nonnegativity_enforced(self, rng):
        feats = [lambda t, c: c["a"]]
        m = LinearPerformanceModel(feats)
        cfgs = [{"a": float(a)} for a in rng.random(10) + 0.1]
        y = -np.array([c["a"] for c in cfgs])  # negative target
        m.update([{}] * 10, cfgs, y)
        assert m.coefficients[0] >= 0.0

    def test_underdetermined_keeps_estimate(self):
        m = LinearPerformanceModel([lambda t, c: 1.0, lambda t, c: 2.0])
        before = m.coefficients.copy()
        m.update([{}], [{}], np.array([1.0]))  # 1 sample < 2 features
        assert np.allclose(m.coefficients, before)
        assert m.n_updates == 0


class TestModelFeaturizer:
    def test_wraps_plain_callables(self):
        f = ModelFeaturizer([lambda t, c: 1.0])
        assert f.n_features == 1
        assert f.raw({}, {}).tolist() == [1.0]

    def test_enrich_appends_columns(self, rng):
        f = ModelFeaturizer([lambda t, c: c["x"], lambda t, c: 2 * c["x"]])
        cfgs = [{"x": 0.2}, {"x": 0.8}]
        X = rng.random((2, 3))
        Xe = f.enrich({}, cfgs, X, observe=True)
        assert Xe.shape == (2, 5)
        # scaled to [0, 1] over the observed range
        assert Xe[:, 3].min() == pytest.approx(0.0)
        assert Xe[:, 3].max() == pytest.approx(1.0)

    def test_scaling_consistent_for_candidates(self, rng):
        f = ModelFeaturizer([lambda t, c: c["x"]])
        train = [{"x": 0.0}, {"x": 1.0}]
        f.enrich({}, train, rng.random((2, 1)), observe=True)
        cand = f.enrich({}, [{"x": 0.5}], rng.random((1, 1)), observe=False)
        assert cand[0, 1] == pytest.approx(0.5)

    def test_out_of_range_candidates_clipped(self, rng):
        f = ModelFeaturizer([lambda t, c: c["x"]])
        f.enrich({}, [{"x": 0.0}, {"x": 1.0}], rng.random((2, 1)), observe=True)
        cand = f.enrich({}, [{"x": 100.0}], rng.random((1, 1)), observe=False)
        assert cand[0, 1] <= 2.0

    def test_update_hyperparameters_delegates(self, rng):
        lin = LinearPerformanceModel([lambda t, c: c["a"]])
        f = ModelFeaturizer([lin])
        cfgs = [{"a": float(a)} for a in rng.random(5) + 0.5]
        y = np.array([3.0 * c["a"] for c in cfgs])
        f.update_hyperparameters([{}] * 5, cfgs, y)
        assert lin.coefficients[0] == pytest.approx(3.0, rel=1e-6)


class TestModelState:
    def test_callable_token_constant(self):
        m = CallableModel(lambda t, c: c["x"])
        assert m.state_token() == m.state_token() is not None

    def test_linear_token_tracks_coefficients_only(self):
        lin = LinearPerformanceModel([lambda t, c: c["a"]])
        t0 = lin.state_token()
        cfgs = [{"a": float(a)} for a in (0.5, 1.0, 1.5)]
        lin.update([{}] * 3, cfgs, np.array([1.0, 2.0, 3.0]))
        assert lin.state_token() != t0
        # an update converging to identical coefficients keeps the token
        lin.update([{}] * 3, cfgs, np.array([1.0, 2.0, 3.0]))
        n = lin.n_updates
        lin.update([{}] * 3, cfgs, np.array([1.0, 2.0, 3.0]))
        assert lin.n_updates == n + 1
        assert lin.state_token() == lin.state_token()

    def test_linear_state_roundtrip(self):
        lin = LinearPerformanceModel([lambda t, c: c["a"], lambda t, c: 1.0])
        cfgs = [{"a": float(a)} for a in (0.2, 0.7, 1.3, 2.0)]
        lin.update([{}] * 4, cfgs, np.array([0.5, 1.6, 2.7, 4.1]))
        st = lin.get_state()
        other = LinearPerformanceModel([lambda t, c: c["a"], lambda t, c: 1.0])
        other.set_state(st)
        np.testing.assert_array_equal(other.coefficients, lin.coefficients)
        assert other.n_updates == lin.n_updates

    def test_featurizer_state_roundtrip(self):
        lin = LinearPerformanceModel([lambda t, c: c["x"]])
        f = ModelFeaturizer([lin])
        f.enrich({}, [{"x": 0.1}, {"x": 0.9}], np.zeros((2, 1)), observe=True)
        st = f.get_state()
        g = ModelFeaturizer([LinearPerformanceModel([lambda t, c: c["x"]])])
        g.set_state(st)
        np.testing.assert_array_equal(g._lo, f._lo)
        np.testing.assert_array_equal(g._hi, f._hi)
        X = np.array([[0.5]])
        np.testing.assert_array_equal(
            g.enrich({}, [{"x": 0.5}], X, observe=False),
            f.enrich({}, [{"x": 0.5}], X, observe=False),
        )

    def test_featurizer_token_ignores_normalization_range(self):
        f = ModelFeaturizer([CallableModel(lambda t, c: c["x"])])
        t0 = f.state_token()
        f.observe(np.array([[0.3], [0.9]]))
        # raw rows don't depend on the running range, only on model state
        assert f.state_token() == t0

    def test_featurizer_snapshot_of_stateless_models(self):
        """The base ``PerformanceModel`` state methods, through a snapshot."""

        class BareModel(PerformanceModel):
            def predict(self, task, config):
                return 2.0 * config["x"]

        bare = BareModel()
        f = ModelFeaturizer([lambda t, c: c["x"], bare])
        f.enrich({}, [{"x": 0.2}, {"x": 0.8}], np.zeros((2, 1)), observe=True)
        # the plain callable vouches for its predictions; the bare model cannot
        assert ModelFeaturizer([lambda t, c: c["x"]]).state_token() == ((),)
        assert bare.state_token() is None and f.state_token() is None
        st = json.loads(json.dumps(f.get_state()))
        assert st["models"] == [None, None]
        g = ModelFeaturizer([lambda t, c: c["x"], BareModel()])
        g.set_state(st)
        X = np.array([[0.5]])
        np.testing.assert_array_equal(
            g.enrich({}, [{"x": 0.5}], X, observe=False),
            f.enrich({}, [{"x": 0.5}], X, observe=False),
        )
        bare.set_state({"ignored": 1})  # stateless: restoring is a no-op
        assert bare.predict({}, {"x": 0.5}) == 1.0


class TestIncrementalFeatRows:
    """The fitter's `_feat_rows` cache must equal a from-scratch rebuild."""

    def _setup(self):
        from repro.core import GPTune, Integer, Options, Real, Space, TuningProblem
        from repro.core.data import TuningData

        lin = LinearPerformanceModel([lambda t, c: float(c["x"]), lambda t, c: 1.0])
        problem = TuningProblem(
            Space([Integer("t", 0, 5)]),
            Space([Real("x", 0.0, 1.0)]),
            lambda t, c: (c["x"] - 0.4) ** 2,
            models=[lin],
        )
        tuner = GPTune(problem, Options(seed=7))
        data = TuningData(
            problem.task_space, problem.tuning_space, [{"t": 1}, {"t": 3}]
        )
        featurizer = ModelFeaturizer(problem.models)
        return tuner, data, featurizer, lin

    @staticmethod
    def _scratch(data, featurizer):
        rows = [
            featurizer.raw(data.tasks[i], data.X[i][k])
            for i in range(data.n_tasks)
            for k in range(data.n_samples(i))
        ]
        return np.vstack(rows) if rows else np.empty((0, featurizer.n_features))

    def test_incremental_matches_from_scratch(self, rng):
        tuner, data, featurizer, lin = self._setup()
        for step in range(4):
            for i in range(data.n_tasks):
                for x in rng.random(3):
                    data.add(i, {"x": float(x)}, float(x))
            got = tuner.fitter._feat_rows(data, featurizer)
            np.testing.assert_array_equal(got, self._scratch(data, featurizer))
            # second call with no new data returns identical rows
            np.testing.assert_array_equal(
                tuner.fitter._feat_rows(data, featurizer), got
            )

    def test_cache_invalidated_on_model_update(self, rng):
        tuner, data, featurizer, lin = self._setup()
        for i in range(data.n_tasks):
            for x in rng.random(4):
                data.add(i, {"x": float(x)}, float(x))
        tuner.fitter._feat_rows(data, featurizer)
        cfgs = [x for xs in data.X for x in xs]
        tasks = [data.tasks[i] for i in range(data.n_tasks) for _ in data.X[i]]
        y = np.array([y[0] for ys in data.Y for y in ys])
        featurizer.update_hyperparameters(tasks, cfgs, y)
        got = tuner.fitter._feat_rows(data, featurizer)
        np.testing.assert_array_equal(got, self._scratch(data, featurizer))

    def test_cache_reset_on_new_campaign_data(self, rng):
        tuner, data, featurizer, lin = self._setup()
        for x in rng.random(3):
            data.add(0, {"x": float(x)}, float(x))
        tuner.fitter._feat_rows(data, featurizer)
        _, data2, _, _ = self._setup()
        data2.add(0, {"x": 0.5}, 0.5)
        got = tuner.fitter._feat_rows(data2, featurizer)
        np.testing.assert_array_equal(got, self._scratch(data2, featurizer))
