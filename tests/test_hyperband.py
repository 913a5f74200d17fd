"""Tests for hyperband / successive halving (repro.tuners.hpbandster.hyperband)."""

import numpy as np
import pytest

from repro.core import Integer, Real, Space, TuningData, TuningProblem
from repro.tuners.hpbandster import HyperbandTuner, SuccessiveHalvingTuner


def fidelity_problem():
    """y(t, x) = (x − 0.3)² + noise/steps: low fidelity = noisy estimate.

    Task 'steps' is the fidelity axis, as for the paper's fusion codes.
    """
    ts = Space([Integer("steps", 1, 27)])
    ps = Space([Real("x", 0.0, 1.0)])

    def obj(t, c):
        base = (c["x"] - 0.3) ** 2 + 0.01
        # deterministic pseudo-noise shrinking with fidelity
        wobble = 0.3 * np.sin(37.0 * c["x"]) / t["steps"]
        return base + abs(wobble)

    return TuningProblem(ts, ps, obj, name="fid")


def with_fidelity(task, budget):
    return {"steps": max(1, int(round(task["steps"] * budget)))}


class TestSuccessiveHalving:
    def test_rung_ladder(self):
        sh = SuccessiveHalvingTuner(with_fidelity, eta=3.0, min_budget=1 / 9)
        assert sh.rungs() == pytest.approx([1 / 9, 1 / 3, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SuccessiveHalvingTuner(with_fidelity, eta=1.0)
        with pytest.raises(ValueError):
            SuccessiveHalvingTuner(with_fidelity, min_budget=0.0)

    def test_bracket_keeps_best(self):
        prob = fidelity_problem()
        sh = SuccessiveHalvingTuner(with_fidelity, eta=2.0, min_budget=0.25)
        configs = [{"x": v} for v in (0.05, 0.3, 0.6, 0.95)]
        data = TuningData(prob.task_space, prob.tuning_space, [{"steps": 27}])

        def evaluate(cfg, task=None, add=True):
            return float(prob.evaluate(task, cfg)[0])

        survivors, cost = sh.run_bracket(data, configs, evaluate)
        # the config nearest the optimum survives to full fidelity
        assert any(abs(c["x"] - 0.3) < 0.01 for c in survivors)
        assert cost > 0
        # cost in fidelity units is below evaluating all at full budget ×rungs
        assert cost < len(configs) * len(sh.rungs())

    def test_tune_budget_and_quality(self):
        prob = fidelity_problem()
        sh = SuccessiveHalvingTuner(with_fidelity, eta=3.0, min_budget=1 / 9)
        rec = sh.tune(prob, {"steps": 27}, n_samples=14, seed=0)
        assert rec.data.n_samples(0) >= 1  # full-fidelity evaluations recorded
        assert rec.best(0)[1] < 0.2

    def test_cheaper_than_full_fidelity_grid(self):
        """SH evaluates many configs for the cost of a few full runs."""
        prob = fidelity_problem()
        evals = {"n": 0}
        orig = prob.objective

        def counting(t, c):
            evals["n"] += 1
            return orig(t, c)

        prob2 = TuningProblem(prob.task_space, prob.tuning_space, counting, name="fid")
        sh = SuccessiveHalvingTuner(with_fidelity, eta=3.0, min_budget=1 / 9)
        rec = sh.tune(prob2, {"steps": 27}, n_samples=9, seed=1)
        assert evals["n"] > 9  # more configs touched than full-fidelity budget


class TestHyperband:
    def test_tune_runs_and_finds_optimum_region(self):
        prob = fidelity_problem()
        hb = HyperbandTuner(with_fidelity, eta=3.0, min_budget=1 / 9, model=False)
        rec = hb.tune(prob, {"steps": 27}, n_samples=20, seed=2)
        assert rec.best(0)[1] < 0.15

    def test_bohb_mode_at_least_as_good_on_average(self):
        prob = fidelity_problem()
        plain, bohb = [], []
        for seed in range(3):
            plain.append(
                HyperbandTuner(with_fidelity, model=False)
                .tune(prob, {"steps": 27}, 18, seed=seed)
                .best(0)[1]
            )
            bohb.append(
                HyperbandTuner(with_fidelity, model=True)
                .tune(prob, {"steps": 27}, 18, seed=seed)
                .best(0)[1]
            )
        assert np.mean(bohb) <= np.mean(plain) + 0.05

    def test_fusion_fidelity_integration(self):
        """The paper's actual fidelity axis: fusion time steps."""
        from repro.apps.fusion import M3DC1
        from repro.runtime import cori_haswell

        app = M3DC1(machine=cori_haswell(1), plane_size=150, seed=0)
        hb = HyperbandTuner(
            lambda task, b: {"t": max(1, int(round(task["t"] * b)))},
            eta=3.0,
            min_budget=1 / 9,
        )
        rec = hb.tune(app.problem(), {"t": 9}, n_samples=12, seed=3)
        default = app.objective({"t": 9}, app.default_config({"t": 9}))
        assert rec.best(0)[1] <= default * 1.1
