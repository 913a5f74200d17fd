"""Unit tests for TuningData (repro.core.data)."""

import numpy as np
import pytest

from repro.core import Integer, Real, Space, TuningData


@pytest.fixture
def data():
    ts = Space([Integer("m", 1, 100)])
    ps = Space([Real("x", 0.0, 1.0), Integer("k", 1, 4)])
    return TuningData(ts, ps, tasks=[{"m": 10}, {"m": 50}], n_objectives=1)


class TestRecording:
    def test_counts(self, data):
        assert data.n_tasks == 2
        assert data.n_samples() == 0
        data.add(0, {"x": 0.5, "k": 2}, 3.0)
        assert data.n_samples(0) == 1 and data.n_samples(1) == 0
        assert len(data) == 1

    def test_add_scalar_and_vector(self, data):
        data.add(0, {"x": 0.1, "k": 1}, 2.0)
        data.add(0, {"x": 0.2, "k": 1}, [4.0])
        assert data.n_samples(0) == 2

    def test_wrong_objective_count(self, data):
        with pytest.raises(ValueError):
            data.add(0, {"x": 0.1, "k": 1}, [1.0, 2.0])

    def test_extend(self, data):
        data.extend(1, [{"x": 0.1, "k": 1}, {"x": 0.9, "k": 4}], [5.0, 1.0])
        assert data.n_samples(1) == 2
        with pytest.raises(ValueError):
            data.extend(1, [{"x": 0.1, "k": 1}], [1.0, 2.0])


class TestBest:
    def test_best(self, data):
        data.add(0, {"x": 0.1, "k": 1}, 5.0)
        data.add(0, {"x": 0.7, "k": 2}, 2.0)
        data.add(0, {"x": 0.9, "k": 3}, 4.0)
        cfg, val = data.best(0)
        assert val == 2.0 and cfg["k"] == 2

    def test_best_empty_raises(self, data):
        with pytest.raises(ValueError):
            data.best(0)

    def test_trajectory_monotone(self, data):
        for y in [5.0, 7.0, 3.0, 4.0, 1.0]:
            data.add(0, {"x": 0.5, "k": 1}, y)
        traj = data.best_trajectory(0)
        assert traj.tolist() == [5.0, 5.0, 3.0, 3.0, 1.0]


class TestStacked:
    def test_stacked_shapes(self, data):
        data.add(0, {"x": 0.1, "k": 1}, 1.0)
        data.add(1, {"x": 0.9, "k": 4}, 2.0)
        data.add(1, {"x": 0.5, "k": 2}, 3.0)
        X, y, tidx = data.stacked()
        assert X.shape == (3, 2)
        assert y.tolist() == [1.0, 2.0, 3.0]
        assert tidx.tolist() == [0, 1, 1]
        assert np.all((0 <= X) & (X <= 1))

    def test_stacked_empty(self, data):
        X, y, tidx = data.stacked()
        assert X.shape == (0, 2) and y.size == 0 and tidx.size == 0

    def test_cached_rows_match_fresh_normalization(self, data):
        """stacked()/unit_rows() reuse add()'s rows; they must equal normalize()."""
        rng = np.random.default_rng(3)
        for _ in range(12):
            task = int(rng.integers(2))
            data.add(task, {"x": float(rng.random()), "k": int(rng.integers(1, 5))}, 1.0)
        space = data.tuning_space
        X, _, tidx = data.stacked()
        want = np.vstack([space.normalize(x) for xs in data.X for x in xs])
        assert X.tobytes() == want.tobytes()
        assert tidx.dtype == np.asarray([0]).dtype
        for i in range(2):
            n = data.n_samples(i)
            assert np.array_equal(data.unit_rows(i, 0, n), X[tidx == i])
            assert np.array_equal(data.unit_rows(i, 1, n - 1), X[tidx == i][1:-1])
        assert data.unit_rows(0, 3, 3).shape == (0, 2)

    def test_normalized_tasks(self, data):
        T = data.normalized_tasks()
        assert T.shape == (2, 1)


class TestMultiObjective:
    def test_pareto_front(self):
        ts = Space([Integer("m", 1, 10)])
        ps = Space([Real("x", 0, 1)])
        d = TuningData(ts, ps, tasks=[{"m": 1}], n_objectives=2)
        d.add(0, {"x": 0.1}, [1.0, 5.0])
        d.add(0, {"x": 0.2}, [2.0, 2.0])
        d.add(0, {"x": 0.3}, [5.0, 1.0])
        d.add(0, {"x": 0.4}, [3.0, 3.0])  # dominated by (2,2)
        cfgs, front = d.pareto_front(0)
        assert len(cfgs) == 3
        assert front.shape == (3, 2)
        assert not any(c["x"] == 0.4 for c in cfgs)

    def test_pareto_front_empty(self):
        ts = Space([Integer("m", 1, 10)])
        ps = Space([Real("x", 0, 1)])
        d = TuningData(ts, ps, tasks=[{"m": 1}], n_objectives=2)
        cfgs, front = d.pareto_front(0)
        assert cfgs == [] and front.shape == (0, 2)


class TestRecords:
    def test_roundtrip(self, data):
        data.add(0, {"x": 0.25, "k": 3}, 1.5)
        data.add(1, {"x": 0.75, "k": 1}, 2.5)
        recs = data.to_records()
        assert len(recs) == 2

        ts = Space([Integer("m", 1, 100)])
        ps = Space([Real("x", 0.0, 1.0), Integer("k", 1, 4)])
        fresh = TuningData(ts, ps, tasks=[{"m": 10}, {"m": 50}])
        n = fresh.load_records(recs)
        assert n == 2
        assert fresh.best(0)[1] == 1.5

    def test_foreign_tasks_ignored(self, data):
        recs = [{"task": {"m": 99}, "x": {"x": 0.5, "k": 2}, "y": [1.0]}]
        assert data.load_records(recs) == 0
