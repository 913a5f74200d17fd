"""Edge-case coverage for the MLA driver's feature combinations."""

import numpy as np
import pytest

from repro.core import (
    GPTune,
    HistoryDB,
    Integer,
    LinearPerformanceModel,
    Options,
    Real,
    Space,
    TuningProblem,
)

FAST = Options(
    seed=0, n_start=1, pso_iters=6, ei_candidates=10, lbfgs_maxiter=40,
    nsga_pop=12, nsga_gens=5, pareto_batch=2,
)


def _mo_problem_with_models():
    ts = Space([Integer("t", 1, 4)])
    ps = Space([Real("x", 0.0, 1.0)])
    return TuningProblem(
        ts,
        ps,
        lambda t, c: [c["x"] ** 2 + 0.01, (c["x"] - 1.0) ** 2 + 0.01],
        n_objectives=2,
        models=[lambda t, c: c["x"]],  # a perfect feature for both objectives
        name="mo-models",
    )


class TestMultiObjectiveCombos:
    def test_models_with_multiobjective(self):
        """Sec. 3.3 enrichment must compose with Algorithm 2."""
        res = GPTune(_mo_problem_with_models(), FAST).tune([{"t": 1}], 12)
        _, front = res.pareto_front(0)
        assert front.shape[0] >= 1
        assert len(res.models) == 2

    def test_multiobjective_with_history(self, tmp_path):
        db = HistoryDB(str(tmp_path / "mo.json"))
        prob = _mo_problem_with_models()
        GPTune(prob, FAST, history=db).tune([{"t": 1}], 8)
        assert db.count("mo-models") == 8
        assert all(len(r["y"]) == 2 for r in db.records("mo-models"))
        # a rerun absorbs the two-objective records without error
        res = GPTune(prob, FAST, history=db).tune([{"t": 1}], 10)
        assert res.data.n_samples(0) >= 10

    def test_multiobjective_multitask(self):
        res = GPTune(_mo_problem_with_models(), FAST).tune([{"t": 1}, {"t": 3}], 10)
        for i in range(2):
            _, front = res.pareto_front(i)
            assert front.shape[0] >= 1


class TestOptionCombos:
    def test_none_y_transform(self):
        ts = Space([Integer("t", 1, 2)])
        ps = Space([Real("x", 0.0, 1.0)])
        prob = TuningProblem(ts, ps, lambda t, c: (c["x"] - 0.5) ** 2 + 0.01)
        res = GPTune(prob, FAST.replace(y_transform="none")).tune([{"t": 1}], 10)
        assert res.best(0)[1] < 0.1

    def test_large_initial_fraction(self):
        ts = Space([Integer("t", 1, 2)])
        ps = Space([Real("x", 0.0, 1.0)])
        prob = TuningProblem(ts, ps, lambda t, c: c["x"] + 0.01)
        res = GPTune(prob, FAST.replace(initial_fraction=0.9)).tune([{"t": 1}], 10)
        assert res.data.n_samples(0) == 10

    def test_explicit_q_latent(self):
        ts = Space([Integer("t", 1, 9)])
        ps = Space([Real("x", 0.0, 1.0)])
        prob = TuningProblem(ts, ps, lambda t, c: (c["x"] - t["t"] / 10) ** 2 + 0.01)
        res = GPTune(prob, FAST.replace(n_latent=1)).tune([{"t": 2}, {"t": 8}], 8)
        assert res.models[0].params.Q == 1

    def test_q_exceeding_delta_fails_cleanly(self):
        ts = Space([Integer("t", 1, 9)])
        ps = Space([Real("x", 0.0, 1.0)])
        prob = TuningProblem(ts, ps, lambda t, c: c["x"] + 0.01)
        with pytest.raises(ValueError):
            GPTune(prob, FAST.replace(n_latent=5)).tune([{"t": 1}], 6)


class TestNSGAOptionValidation:
    """NSGA settings are checked when Options is built, not mid-campaign."""

    @pytest.mark.parametrize("field,bad", [("nsga_pop", 0), ("nsga_pop", -2),
                                           ("nsga_gens", 0), ("nsga_gens", -3)])
    def test_rejected_up_front(self, field, bad):
        with pytest.raises(ValueError, match=rf"{field} must be >= 1, got {bad}"):
            Options(**{field: bad})
        with pytest.raises(ValueError, match=rf"{field} must be >= 1, got {bad}"):
            FAST.replace(**{field: bad})

    def test_smallest_settings_run_a_campaign(self):
        opts = FAST.replace(nsga_pop=1, nsga_gens=1, pareto_batch=1)
        res = GPTune(_mo_problem_with_models(), opts).tune([{"t": 1}], 6)
        assert res.data.n_samples(0) == 6


class TestNonFiniteOptionValidation:
    """A NaN or infinite float option is refused up front, naming the field:
    a NaN timeout failed every evaluation, an infinite one overflowed every
    attempt, and a NaN ``max_seconds`` silently disabled the cap."""

    @pytest.mark.parametrize("field", [
        "jitter", "initial_fraction", "async_refit_secs", "penalty_radius",
        "max_seconds", "retry_backoff", "retry_backoff_factor", "retry_jitter",
        "eval_timeout",
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejected_up_front(self, field, bad):
        extra = {"async_eval": True} if field == "async_refit_secs" else {}
        with pytest.raises(ValueError, match=rf"{field} must be finite"):
            Options(**{field: bad}, **extra)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter must be >= 0"):
            Options(jitter=-1.0)
        Options(jitter=0.0)


class TestTinyDiscreteSpaces:
    def test_exhaustible_space_allows_reevaluation(self):
        """A 3-point space with budget 6 cannot avoid duplicates; the
        driver must finish rather than loop forever."""
        ts = Space([Integer("t", 1, 2)])
        ps = Space([Integer("k", 1, 3)])
        prob = TuningProblem(ts, ps, lambda t, c: float(c["k"]))
        res = GPTune(prob, FAST).tune([{"t": 1}], 6)
        assert res.data.n_samples(0) == 6
        assert res.best(0)[1] == 1.0

    def test_single_feasible_point(self):
        ts = Space([Integer("t", 1, 2)])
        ps = Space([Integer("k", 1, 5)], constraints=["k == 3"])
        prob = TuningProblem(ts, ps, lambda t, c: float(c["k"]))
        res = GPTune(prob, FAST).tune([{"t": 1}], 3)
        assert all(c["k"] == 3 for c in res.data.X[0])


class TestStatsAccounting:
    def test_objective_time_is_sum_of_outputs(self):
        ts = Space([Integer("t", 1, 2)])
        ps = Space([Real("x", 0.0, 1.0)])
        prob = TuningProblem(ts, ps, lambda t, c: 2.5)
        res = GPTune(prob, FAST).tune([{"t": 1}], 4)
        assert res.stats["objective_time"] == pytest.approx(4 * 2.5)

    def test_total_is_component_sum(self):
        ts = Space([Integer("t", 1, 2)])
        ps = Space([Real("x", 0.0, 1.0)])
        prob = TuningProblem(ts, ps, lambda t, c: c["x"] + 0.01)
        res = GPTune(prob, FAST).tune([{"t": 1}], 6)
        s = res.stats
        assert s["total_time"] == pytest.approx(
            s["objective_time"] + s["modeling_time"] + s["search_time"]
        )
