"""Failure-injection tests: crashing/NaN objectives under tuning."""

import numpy as np
import pytest

from repro.core import GPTune, Integer, Options, Real, Space, TuningProblem

FAST = Options(seed=0, n_start=1, pso_iters=8, ei_candidates=12, lbfgs_maxiter=50)


def _spaces():
    return Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)])


class TestFailureValue:
    def test_exception_becomes_penalty(self):
        ts, ps = _spaces()

        def obj(t, c):
            if c["x"] > 0.8:
                raise RuntimeError("application crashed")
            return c["x"]

        prob = TuningProblem(ts, ps, obj, failure_value=100.0)
        assert prob.evaluate({"t": 1}, {"x": 0.9})[0] == 100.0
        assert prob.evaluate({"t": 1}, {"x": 0.2})[0] == pytest.approx(0.2)
        assert prob.evaluate_outcome({"t": 1}, {"x": 0.9}).failed
        assert not prob.evaluate_outcome({"t": 1}, {"x": 0.2}).failed

    def test_nan_becomes_penalty(self):
        ts, ps = _spaces()
        prob = TuningProblem(
            ts, ps, lambda t, c: float("nan") if c["x"] > 0.5 else 1.0, failure_value=50.0
        )
        assert prob.evaluate({"t": 1}, {"x": 0.9})[0] == 50.0

    def test_without_failure_value_reraises(self):
        ts, ps = _spaces()

        def obj(t, c):
            raise RuntimeError("boom")

        prob = TuningProblem(ts, ps, obj)
        with pytest.raises(RuntimeError):
            prob.evaluate({"t": 1}, {"x": 0.5})

    def test_failure_value_validation(self):
        ts, ps = _spaces()
        with pytest.raises(ValueError):
            TuningProblem(ts, ps, lambda t, c: 0.0, failure_value=float("inf"))
        with pytest.raises(ValueError):
            TuningProblem(
                ts, ps, lambda t, c: [0.0, 0.0], n_objectives=2, failure_value=[1.0, 2.0, 3.0]
            )

    def test_scalar_broadcast_multiobjective(self):
        ts, ps = _spaces()
        prob = TuningProblem(
            ts, ps, lambda t, c: 1 / 0, n_objectives=2, failure_value=9.0
        )
        y = prob.evaluate({"t": 1}, {"x": 0.5})
        assert y.tolist() == [9.0, 9.0]


class TestTuningThroughFailures:
    def test_mla_survives_crashing_region(self):
        """A third of the space crashes; the tuner still finds the optimum
        in the surviving region and steers away from the penalty zone."""
        ts, ps = _spaces()

        def obj(t, c):
            if c["x"] > 0.66:
                raise RuntimeError("segfault")
            return (c["x"] - 0.4) ** 2 + 0.01

        prob = TuningProblem(ts, ps, obj, failure_value=10.0)
        res = GPTune(prob, FAST).tune([{"t": 1}], 14)
        cfg, val = res.best(0)
        assert cfg["x"] <= 0.66
        assert abs(cfg["x"] - 0.4) < 0.15
        assert val < 0.05
        assert res.stats["n_eval_failures"] >= 1  # it did touch the bad region

    def test_failures_recorded_in_data(self):
        ts, ps = _spaces()
        prob = TuningProblem(
            ts, ps, lambda t, c: 1 / 0 if c["x"] > 0.5 else 1.0, failure_value=5.0
        )
        res = GPTune(prob, FAST).tune([{"t": 1}], 6)
        ys = [y[0] for y in res.data.Y[0]]
        assert all(y in (1.0, 5.0) for y in ys)
