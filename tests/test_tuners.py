"""Tests for the baseline tuners (OpenTuner-style, HpBandSter-style, etc.)."""

import hashlib
import json

import numpy as np
import pytest

from repro.core import Categorical, Integer, Options, Real, Space, TuningProblem
from repro.tuners import (
    GPTuneTuner,
    GridSearchTuner,
    HpBandSterTuner,
    OpenTunerTuner,
    RandomSearchTuner,
    make_tuner,
)
from repro.tuners.hpbandster import HyperbandTuner, ProductKDE, SuccessiveHalvingTuner
from repro.tuners.opentuner import (
    DifferentialEvolutionTechnique,
    GeneticAlgorithmTechnique,
    NelderMeadTechnique,
    PatternSearchTechnique,
    SimulatedAnnealingTechnique,
)


def smooth_problem():
    ts = Space([Integer("t", 0, 10)])
    ps = Space([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)])
    return TuningProblem(
        ts,
        ps,
        lambda t, c: (c["x"] - 0.3) ** 2 + (c["y"] - 0.7) ** 2 + 0.001,
        name="bowl",
    )


ALL_TUNERS = [
    RandomSearchTuner(),
    GridSearchTuner(),
    OpenTunerTuner(),
    HpBandSterTuner(),
]


class TestBudgets:
    @pytest.mark.parametrize("tuner", ALL_TUNERS, ids=lambda t: t.name)
    def test_exact_budget(self, tuner):
        rec = tuner.tune(smooth_problem(), {"t": 1}, 17, seed=0)
        assert rec.data.n_samples(0) == 17

    @pytest.mark.parametrize("tuner", ALL_TUNERS, ids=lambda t: t.name)
    def test_reproducible(self, tuner):
        a = tuner.tune(smooth_problem(), {"t": 1}, 10, seed=3).best(0)[1]
        b = tuner.tune(smooth_problem(), {"t": 1}, 10, seed=3).best(0)[1]
        assert a == b

    @pytest.mark.parametrize("tuner", ALL_TUNERS, ids=lambda t: t.name)
    def test_beats_worst_case(self, tuner):
        """Every tuner finds something decent on a smooth bowl in 30 evals."""
        rec = tuner.tune(smooth_problem(), {"t": 1}, 30, seed=0)
        assert rec.best(0)[1] < 0.3

    def test_constraints_respected(self):
        ts = Space([Integer("t", 0, 10)])
        ps = Space([Integer("p", 1, 16), Integer("q", 1, 16)], constraints=["q <= p"])
        prob = TuningProblem(ts, ps, lambda t, c: c["p"] / c["q"], name="c")
        for tuner in ALL_TUNERS:
            rec = tuner.tune(prob, {"t": 1}, 12, seed=1)
            assert all(c["q"] <= c["p"] for c in rec.data.X[0])


def _grid_spaces():
    """Small constrained spaces: vectorizable, row-wise-only, callable, task-bound."""
    return [
        (Space([Integer("p", 1, 16), Integer("q", 1, 16)], constraints=["q <= p"]), {}),
        (
            Space(
                [Real("x", 0.0, 1.0), Integer("k", 1, 8), Categorical("alg", ["a", "b", "c"])],
                constraints=["k <= 6 or alg == 'a'"],
            ),
            {},
        ),
        (
            Space(
                [Integer("p", 2, 64, transform="log"), Integer("p_r", 1, 64, transform="log"),
                 Categorical("shape", [(1, 2), (2, 1), (3, 3)])],
                constraints=["p_r <= p", lambda p, shape: p >= shape[0] * shape[1]],
            ),
            {},
        ),
        (
            Space([Integer("m", 1, 32), Real("r", 0.1, 10.0, transform="log")],
                  constraints=["m <= t * 4", "r * m < 40"]),
            {"t": 3},
        ),
        (Space([Integer("a", 0, 3), Categorical("b", ["u", "v"])], constraints=["a > 9"]), {}),
    ]


class TestGridSearchFeasibility:
    """The column-wise grid filter against the row-wise ``is_feasible`` one."""

    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("per_dim", [2, 3, 5])
    def test_feasible_points_match_rowwise_filter(self, case, per_dim):
        from repro.tuners.grid_search import _feasible_points

        space, extra = _grid_spaces()[case]
        axes = [p.grid(per_dim) for p in space.parameters]
        shape = tuple(len(a) for a in axes)
        got = [
            {p.name: axis[c] for p, axis, c in zip(space.parameters, axes, coords)}
            for coords in zip(*np.unravel_index(_feasible_points(space, axes, extra), shape))
        ]
        want = [cfg for cfg in space.grid(per_dim) if space.is_feasible(cfg, extra=extra)]
        assert got == want
        assert [list(map(type, c.values())) for c in got] == [list(map(type, c.values())) for c in want]

    @pytest.mark.parametrize("case", range(4))  # case 4 has no feasible point
    def test_tuner_evaluates_the_rowwise_selection(self, case):
        """Same configurations, in the same order, as filtering every grid dict."""
        space, extra = _grid_spaces()[case]
        task = {"t": extra.get("t", 0)}
        prob = TuningProblem(Space([Integer("t", 0, 10)]), space, lambda t, c: 1.0, name="g")
        n = 9
        got = GridSearchTuner().tune(prob, task, n, seed=5).data.X[0]
        rng = np.random.default_rng(5)
        per_dim = max(2, int(np.floor(n ** (1.0 / space.dimension))))
        grid = [cfg for cfg in space.grid(per_dim) if space.is_feasible(cfg, extra=task)]
        if len(grid) > n:
            grid = [grid[i] for i in sorted(rng.choice(len(grid), size=n, replace=False))]
        assert got[: len(grid)] == grid


class TestGridSearchHighDimension:
    def test_grid_over_the_cap_spends_budget_on_random_points(self):
        """At β = 20 even a 2-point grid has 2^20 > 10^6 configurations."""
        ts = Space([Integer("t", 0, 10)])
        ps = Space([Real(f"x{i}", 0.0, 1.0) for i in range(20)], constraints=["x0 <= x1 + 0.5"])
        prob = TuningProblem(ts, ps, lambda t, c: sum(v * v for v in c.values()), name="wide")
        grid = GridSearchTuner().tune(prob, {"t": 1}, 10, seed=4)
        assert grid.data.n_samples(0) == 10
        assert all(c["x0"] <= c["x1"] + 0.5 for c in grid.data.X[0])
        # no grid is drawn from the generator: the records are random search's
        rand = RandomSearchTuner().tune(prob, {"t": 1}, 10, seed=4)
        assert grid.data.X[0] == rand.data.X[0]


class TestOpenTunerEnsemble:
    def test_all_arms_get_played(self):
        tuner = OpenTunerTuner()
        rec = tuner.tune(smooth_problem(), {"t": 1}, 12, seed=0)
        assert rec.data.n_samples(0) == 12  # ≥ number of techniques, each played once

    def test_single_technique_subset(self):
        tuner = OpenTunerTuner(techniques=[GeneticAlgorithmTechnique])
        rec = tuner.tune(smooth_problem(), {"t": 1}, 15, seed=0)
        assert rec.best(0)[1] < 0.5

    def test_empty_techniques_rejected(self):
        with pytest.raises(ValueError):
            OpenTunerTuner(techniques=[])

    @pytest.mark.parametrize(
        "cls",
        [
            GeneticAlgorithmTechnique,
            DifferentialEvolutionTechnique,
            SimulatedAnnealingTechnique,
            NelderMeadTechnique,
            PatternSearchTechnique,
        ],
    )
    def test_each_technique_solo_improves_over_start(self, cls):
        prob = smooth_problem()
        space, task = prob.tuning_space, {"t": 1}
        tech = cls(space, task, np.random.default_rng(0))
        best = np.inf
        first = None
        for _ in range(25):
            cfg = tech.ask()
            val = prob.evaluate(task, cfg)[0]
            tech.tell(cfg, val, mine=True)
            best = min(best, val)
            first = val if first is None else first
        assert best <= first
        assert best < 0.6


class TestTPE:
    def test_kde_pdf_positive_and_normalized_shape(self, rng):
        data = rng.random((20, 2))
        kde = ProductKDE(data)
        q = rng.random((10, 2))
        p = kde.pdf(q)
        assert p.shape == (10,) and np.all(p > 0)

    def test_kde_peaks_at_data(self, rng):
        data = np.full((10, 1), 0.5) + 0.01 * rng.normal(size=(10, 1))
        kde = ProductKDE(data)
        assert kde.pdf(np.array([[0.5]]))[0] > kde.pdf(np.array([[0.05]]))[0]

    def test_kde_sampling_stays_in_cube(self, rng):
        data = rng.random((15, 3))
        s = ProductKDE(data).sample(200, rng)
        assert s.shape == (200, 3)
        assert np.all((0 <= s) & (s <= 1))

    def test_kde_categorical_kernel(self, rng):
        # one categorical dim with 3 choices, all data in category 0
        data = np.full((10, 1), 1.0 / 6.0)  # centre of cell 0
        kde = ProductKDE(data, categorical_mask=np.array([True]), cardinalities=np.array([3.0]))
        p_same = kde.pdf(np.array([[1.0 / 6.0]]))[0]
        p_other = kde.pdf(np.array([[5.0 / 6.0]]))[0]
        assert p_same > p_other

    def test_kde_empty_rejected(self):
        with pytest.raises(ValueError):
            ProductKDE(np.empty((0, 2)))

    def test_tpe_validation(self):
        with pytest.raises(ValueError):
            HpBandSterTuner(gamma=1.5)

    def test_tpe_model_phase_reached(self):
        """After min_points the tuner must use the KDE path without error."""
        tuner = HpBandSterTuner(min_points=4, random_fraction=0.0)
        rec = tuner.tune(smooth_problem(), {"t": 1}, 20, seed=0)
        assert rec.data.n_samples(0) == 20


class TestGPTuneAdapter:
    def test_single_task_mode(self):
        opts = Options(seed=0, n_start=1, pso_iters=5, ei_candidates=10)
        rec = GPTuneTuner(opts).tune(smooth_problem(), {"t": 1}, 8, seed=0)
        assert rec.data.n_samples(0) == 8

    def test_multitask_mode_reports_requested_task(self):
        opts = Options(seed=0, n_start=1, pso_iters=5, ei_candidates=10)
        tuner = GPTuneTuner(opts, tasks=[{"t": 2}, {"t": 8}])
        rec = tuner.tune(smooth_problem(), {"t": 2}, 6, seed=0)
        assert rec.data.tasks[0] == {"t": 2}
        assert rec.data.n_samples(0) == 6


class TestPSOTechnique:
    def test_solo_improves(self):
        from repro.tuners.opentuner import PSOTechnique

        prob = smooth_problem()
        tech = PSOTechnique(prob.tuning_space, {"t": 1}, np.random.default_rng(0),
                            swarm_size=4)
        best = np.inf
        for _ in range(30):
            cfg = tech.ask()
            val = prob.evaluate({"t": 1}, cfg)[0]
            tech.tell(cfg, val, mine=True)
            best = min(best, val)
        assert best < 0.3

    def test_in_default_ensemble(self):
        from repro.tuners.opentuner import DEFAULT_TECHNIQUES, PSOTechnique

        assert PSOTechnique in DEFAULT_TECHNIQUES

    def test_absorbs_foreign_results(self):
        from repro.tuners.opentuner import PSOTechnique

        prob = smooth_problem()
        tech = PSOTechnique(prob.tuning_space, {"t": 1}, np.random.default_rng(1))
        tech.tell({"x": 0.3, "y": 0.7}, 0.001, mine=False)
        assert tech.gbest_f == 0.001


# -- pinned baseline records ----------------------------------------------


def digest_problem():
    """Three-parameter problem with an Integer, a Categorical and a constraint."""
    ts = Space([Integer("t", 1, 9)])
    ps = Space(
        [Real("x", 0.0, 1.0), Integer("n", 1, 8), Categorical("alg", ["a", "b", "c"])],
        constraints=["n <= 6 or alg != 'c'"],
    )

    def objective(t, c):
        cost = {"a": 0.0, "b": 0.1, "c": 0.05}[c["alg"]]
        return (c["x"] - 0.3) ** 2 + 0.04 * abs(c["n"] - 3) + cost + 0.01 * t["t"]

    return TuningProblem(ts, ps, objective, name="digest")


def steps_fidelity(task, budget):
    return {"t": max(1, int(round(task["t"] * budget)))}


DIGEST_TUNERS = {
    "random": lambda: make_tuner("random"),
    "grid": lambda: make_tuner("grid"),
    "opentuner": lambda: make_tuner("opentuner"),
    "hpbandster": lambda: make_tuner("hpbandster"),
    "ytopt": lambda: make_tuner("ytopt"),
    "hyperband": lambda: HyperbandTuner(steps_fidelity),
    "successive-halving": lambda: SuccessiveHalvingTuner(steps_fidelity),
}


def baseline_records(result):
    """``(configs, values)`` of one baseline run, in evaluation order."""
    return result.data.X[0], result.data.Y[0]


def baseline_digest(name: str) -> str:
    result = DIGEST_TUNERS[name]().tune(digest_problem(), {"t": 9}, 14, seed=5)
    configs, values = baseline_records(result)
    blob = json.dumps(
        [[dict(c) for c in configs], np.asarray(values, dtype=float).tolist()],
        sort_keys=True,
        separators=(",", ":"),
        default=lambda v: v.item(),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class TestRecordDigests:
    """Each baseline's records on a fixed seed, hashed.

    A change to the tuners' evaluation or recording path that claims to keep
    behaviour must keep every digest (first 16 hex digits of the sha256 of
    the configurations and objective values, in evaluation order).  Print
    them with ``PYTHONPATH=src python tests/test_tuners.py``.
    """

    DIGESTS = {
        "grid": "a69ac9fa53142c2c",
        "hpbandster": "c82141e715d85376",
        "hyperband": "f0ec12bee7fd57e0",
        "opentuner": "42dd4b3eaf7066a9",
        "random": "33f0b5efd72d8084",
        "successive-halving": "3a0c264e5066e7ec",
        "ytopt": "7f2ce26a80eea279",
    }

    @pytest.mark.parametrize("name", sorted(DIGEST_TUNERS))
    def test_records_unchanged(self, name):
        assert baseline_digest(name) == self.DIGESTS[name]


class TestBaselineFailures:
    """A baseline reports penalized evaluations as a GPTune campaign does."""

    @staticmethod
    def crashing_problem():
        base = digest_problem()

        def objective(t, c):
            if c["x"] > 0.5:
                raise RuntimeError("solver diverged")
            return base.objective(t, c)

        return TuningProblem(
            base.task_space, base.tuning_space, objective, name="crashy", failure_value=10.0
        )

    @pytest.mark.parametrize("name", sorted(DIGEST_TUNERS))
    def test_failures_counted_and_logged(self, name):
        result = DIGEST_TUNERS[name]().tune(self.crashing_problem(), {"t": 9}, 14, seed=5)
        n_failed = result.stats["n_eval_failures"]
        assert n_failed >= 1
        assert result.events.count("eval-failure") == n_failed
        failures = result.metrics.counter_value("repro_eval_failures_total", kind="exception")
        assert failures == n_failed
        penalized = sum(float(y[0]) == 10.0 for y in result.data.Y[0])
        if name in ("hyperband", "successive-halving"):
            # lower-rung evaluations count but are not recorded
            assert penalized <= n_failed
        else:
            assert penalized == n_failed


if __name__ == "__main__":
    for name in sorted(DIGEST_TUNERS):
        print(f'        "{name}": "{baseline_digest(name)}",')
