"""Unit tests for TuningProblem (repro.core.problem) and Options."""

import numpy as np
import pytest

from repro.core import Integer, Options, Real, Space, TuningProblem


@pytest.fixture
def problem():
    ts = Space([Integer("m", 1, 100)])
    ps = Space([Real("x", 0.0, 1.0), Integer("p", 1, 16)], constraints=["p <= m"])
    return TuningProblem(ts, ps, lambda t, c: t["m"] * c["x"] + c["p"], name="toy")


class TestEvaluate:
    def test_repr(self, problem):
        assert repr(problem) == "TuningProblem('toy', α=1, β=2, γ=1, γ̃=0)"

    def test_scalar_objective(self, problem):
        y = problem.evaluate({"m": 10}, {"x": 0.5, "p": 2})
        assert y.shape == (1,)
        assert y[0] == pytest.approx(7.0)

    def test_round_trip_before_eval(self, problem):
        """Fractional integer settings are snapped before evaluation."""
        y = problem.evaluate({"m": 10}, {"x": 0.5, "p": 2.4})
        assert y[0] == pytest.approx(7.0)

    def test_nonfinite_rejected(self):
        ts = Space([Integer("m", 1, 10)])
        ps = Space([Real("x", 0, 1)])
        p = TuningProblem(ts, ps, lambda t, c: float("nan"))
        with pytest.raises(ValueError):
            p.evaluate({"m": 1}, {"x": 0.5})

    def test_wrong_shape_rejected(self):
        ts = Space([Integer("m", 1, 10)])
        ps = Space([Real("x", 0, 1)])
        p = TuningProblem(ts, ps, lambda t, c: [1.0, 2.0], n_objectives=1)
        with pytest.raises(ValueError):
            p.evaluate({"m": 1}, {"x": 0.5})

    def test_multi_objective(self):
        ts = Space([Integer("m", 1, 10)])
        ps = Space([Real("x", 0, 1)])
        p = TuningProblem(ts, ps, lambda t, c: [c["x"], 1 - c["x"]], n_objectives=2)
        y = p.evaluate({"m": 1}, {"x": 0.3})
        assert y.tolist() == pytest.approx([0.3, 0.7])


class TestFeasibility:
    def test_task_bound_constraint(self, problem):
        assert problem.is_feasible({"m": 10}, {"x": 0.1, "p": 5})
        assert not problem.is_feasible({"m": 3}, {"x": 0.1, "p": 5})

    def test_feasibility_on_unit(self, problem):
        check = problem.feasibility_on_unit({"m": 4})
        U = np.array([[0.5, 0.0], [0.5, 1.0]])  # p=1 feasible, p=16 not
        mask = check(U)
        assert mask.tolist() == [True, False]


class TestMeta:
    def test_objective_names_default(self, problem):
        assert problem.objective_names == ["y0"]

    def test_objective_names_validation(self):
        ts = Space([Integer("m", 1, 10)])
        ps = Space([Real("x", 0, 1)])
        with pytest.raises(ValueError):
            TuningProblem(ts, ps, lambda t, c: 0.0, objective_names=["a", "b"])

    def test_has_models(self, problem):
        assert not problem.has_models

    def test_n_objectives_validation(self):
        ts = Space([Integer("m", 1, 10)])
        ps = Space([Real("x", 0, 1)])
        with pytest.raises(ValueError):
            TuningProblem(ts, ps, lambda t, c: 0.0, n_objectives=0)


class TestOptions:
    def test_defaults_valid(self):
        Options()

    def test_replace(self):
        o = Options(seed=1)
        o2 = o.replace(n_start=7)
        assert o2.n_start == 7 and o2.seed == 1 and o.n_start != 7

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_latent": 0},
            {"n_start": 0},
            {"initial_fraction": 0.0},
            {"initial_fraction": 1.0},
            {"y_transform": "boxcox"},
            {"backend": "gpu"},
            {"pareto_batch": 0},
            {"pending_penalty": "cl"},
        ],
    )
    def test_invalid_options(self, kw):
        with pytest.raises(ValueError):
            Options(**kw)
