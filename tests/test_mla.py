"""Integration-level tests for the MLA driver (repro.core.mla)."""

import numpy as np
import pytest

from repro.core import GPTune, HistoryDB, Integer, Options, Real, Space, TuningProblem

FAST = Options(seed=0, n_start=1, pso_iters=8, ei_candidates=12, lbfgs_maxiter=50)


def quadratic_problem():
    """y(t, x) = (x − t/10)², minimum 0 at x = t/10 — easy and smooth."""
    ts = Space([Integer("t", 0, 10)])
    ps = Space([Real("x", 0.0, 1.0)])
    return TuningProblem(ts, ps, lambda t, c: (c["x"] - t["t"] / 10.0) ** 2 + 0.01, name="quad")


class TestSingleObjective:
    def test_budget_respected(self):
        res = GPTune(quadratic_problem(), FAST).tune([{"t": 5}], n_samples=8)
        assert res.data.n_samples(0) == 8

    def test_finds_smooth_minimum(self):
        res = GPTune(quadratic_problem(), FAST).tune([{"t": 5}], n_samples=14)
        cfg, val = res.best(0)
        assert abs(cfg["x"] - 0.5) < 0.1
        assert val < 0.02

    def test_multitask_all_tasks_tuned(self):
        tasks = [{"t": 2}, {"t": 5}, {"t": 8}]
        res = GPTune(quadratic_problem(), FAST).tune(tasks, n_samples=10)
        for i, t in enumerate(tasks):
            assert res.data.n_samples(i) == 10
            cfg, val = res.best(i)
            assert abs(cfg["x"] - t["t"] / 10.0) < 0.15

    def test_outperforms_or_matches_initial_design(self):
        """BO iterations must never lose to the LHS half (monotone best)."""
        res = GPTune(quadratic_problem(), FAST).tune([{"t": 3}], n_samples=12)
        traj = res.trajectory(0)
        assert traj[-1] <= traj[5]

    def test_stats_populated(self):
        res = GPTune(quadratic_problem(), FAST).tune([{"t": 5}], n_samples=6)
        for key in ("objective_time", "modeling_time", "search_time", "total_time"):
            assert res.stats[key] >= 0.0
        assert res.stats["modeling_time"] > 0.0

    def test_best_values_vector(self):
        res = GPTune(quadratic_problem(), FAST).tune([{"t": 2}, {"t": 8}], n_samples=6)
        assert res.best_values().shape == (2,)

    def test_reproducible_with_seed(self):
        r1 = GPTune(quadratic_problem(), FAST).tune([{"t": 4}], n_samples=8)
        r2 = GPTune(quadratic_problem(), FAST).tune([{"t": 4}], n_samples=8)
        assert r1.best(0)[1] == r2.best(0)[1]

    def test_minimum_budget_validation(self):
        with pytest.raises(ValueError):
            GPTune(quadratic_problem(), FAST).tune([{"t": 1}], n_samples=1)

    def test_constraint_respected_throughout(self):
        ts = Space([Integer("m", 4, 32)])
        ps = Space(
            [Integer("p", 1, 32), Integer("p_r", 1, 32)], constraints=["p_r <= p", "p <= m"]
        )
        prob = TuningProblem(
            ts, ps, lambda t, c: 1.0 / c["p"] + abs(c["p_r"] - 2) * 0.01 + 0.001, name="cons"
        )
        res = GPTune(prob, FAST).tune([{"m": 16}], n_samples=10)
        for cfg in res.data.X[0]:
            assert cfg["p_r"] <= cfg["p"] <= 16

    def test_no_duplicate_evaluations_in_continuous_space(self):
        res = GPTune(quadratic_problem(), FAST).tune([{"t": 5}], n_samples=10)
        keys = {tuple(np.round(res.data.tuning_space.normalize(x), 9)) for x in res.data.X[0]}
        assert len(keys) == 10

    def test_log_transform_handles_runtime_scales(self):
        """Objectives spanning decades fit fine with y_transform='log'."""
        ts = Space([Integer("t", 1, 3)])
        ps = Space([Real("x", 0.0, 1.0)])
        prob = TuningProblem(
            ts, ps, lambda t, c: 10.0 ** (3 * c["x"]) * t["t"], name="scales"
        )
        opts = FAST.replace(y_transform="log")
        res = GPTune(prob, opts).tune([{"t": 1}, {"t": 3}], n_samples=10)
        assert res.best(0)[0]["x"] < 0.3


class TestPerformanceModels:
    def test_model_enrichment_runs_and_helps_shape(self):
        """With a perfect model feature the tuner solves the task quickly."""
        ts = Space([Integer("t", 0, 10)])
        ps = Space([Real("x", 0.0, 1.0)])
        truth = lambda t, c: (c["x"] - t["t"] / 10.0) ** 2 + 0.01
        prob = TuningProblem(ts, ps, truth, models=[truth], name="modeled")
        res = GPTune(prob, FAST).tune([{"t": 6}], n_samples=10)
        assert res.best(0)[1] < 0.05


class TestHistory:
    def test_history_archives_and_reuses(self, tmp_path):
        db = HistoryDB(str(tmp_path / "h.json"))
        prob = quadratic_problem()
        GPTune(prob, FAST, history=db).tune([{"t": 5}], n_samples=6)
        assert db.count("quad") == 6
        # a second run reuses the archive: only the missing budget is spent
        evals = {"n": 0}
        orig = prob.objective

        def counting(t, c):
            evals["n"] += 1
            return orig(t, c)

        prob2 = TuningProblem(
            prob.task_space, prob.tuning_space, counting, name="quad"
        )
        res = GPTune(prob2, FAST, history=db).tune([{"t": 5}], n_samples=8)
        assert res.data.n_samples(0) >= 8
        assert evals["n"] <= 4  # 6 came from the archive


class TestMultiObjective:
    def _mo_problem(self):
        ts = Space([Integer("t", 1, 4)])
        ps = Space([Real("x", 0.0, 1.0)])
        return TuningProblem(
            ts,
            ps,
            lambda t, c: [c["x"] ** 2 + 0.01, (c["x"] - 1.0) ** 2 + 0.01],
            n_objectives=2,
            name="mo",
        )

    def test_pareto_front_returned(self):
        opts = FAST.replace(nsga_pop=16, nsga_gens=8, pareto_batch=2)
        res = GPTune(self._mo_problem(), opts).tune([{"t": 1}], n_samples=14)
        cfgs, front = res.pareto_front(0)
        assert len(cfgs) >= 3
        assert front.shape[1] == 2
        # the front should span the tradeoff, not collapse to one end
        assert front[:, 0].max() - front[:, 0].min() > 0.1

    def test_batchsize_k_respected(self):
        opts = FAST.replace(nsga_pop=12, nsga_gens=5, pareto_batch=3)
        res = GPTune(self._mo_problem(), opts).tune([{"t": 1}], n_samples=10)
        assert res.data.n_samples(0) == 10  # 5 design + 3 + 2: capped at the budget
        assert len(res.models) == 2


class TestAnytime:
    def test_callback_stops_early(self):
        calls = []

        def cb(iteration, data, stats):
            calls.append(iteration)
            return iteration >= 2

        res = GPTune(quadratic_problem(), FAST).tune([{"t": 5}], 40, callback=cb)
        assert calls == [1, 2]
        # budget not exhausted: initial design (20) + 2 BO iterations
        assert res.data.n_samples(0) == 22

    def test_callback_continue_runs_to_budget(self):
        res = GPTune(quadratic_problem(), FAST).tune(
            [{"t": 5}], 8, callback=lambda i, d, s: False
        )
        assert res.data.n_samples(0) == 8

    def test_max_seconds_caps_runtime(self):
        import time

        opts = FAST.replace(max_seconds=1e-9)  # expires after iteration 1
        t0 = time.perf_counter()
        res = GPTune(quadratic_problem(), opts).tune([{"t": 5}], 200)
        assert time.perf_counter() - t0 < 30
        assert res.data.n_samples(0) < 200

    def test_max_seconds_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            Options(max_seconds=0.0)


class TestBatchEvaluations:
    def test_batch_evals_counted_and_diverse(self):
        opts = FAST.replace(batch_evals=3)
        res = GPTune(quadratic_problem(), opts).tune([{"t": 5}], 12)
        assert res.data.n_samples(0) == 12
        keys = {tuple(np.round(res.data.tuning_space.normalize(x), 9))
                for x in res.data.X[0]}
        assert len(keys) == res.data.n_samples(0)  # no duplicates

    def test_rounds_stop_at_each_tasks_budget(self):
        """A task that reaches ε_tot first gets no more proposals while the
        other catches up (task 0 starts with 6 archived evaluations)."""
        problem = quadratic_problem()
        preload = [
            {"task": {"t": 2}, "x": {"x": x}, "y": [problem.objective({"t": 2}, {"x": x})]}
            for x in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8)
        ]
        for opts in (FAST, FAST.replace(batch_evals=3)):
            res = GPTune(problem, opts).tune([{"t": 2}, {"t": 7}], 8, preload=preload)
            assert [res.data.n_samples(i) for i in range(2)] == [8, 8]

    def test_batch_with_thread_executor_matches_quality(self):
        serial = GPTune(quadratic_problem(), FAST.replace(batch_evals=2)).tune(
            [{"t": 4}], 10
        )
        threaded = GPTune(
            quadratic_problem(),
            FAST.replace(batch_evals=2, backend="thread", n_workers=2),
        ).tune([{"t": 4}], 10)
        # same final quality ballpark; counts identical
        assert threaded.data.n_samples(0) == serial.data.n_samples(0)
        assert threaded.best(0)[1] < 0.05 and serial.best(0)[1] < 0.05

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            Options(batch_evals=0)

    def test_pso_top_batch_diverse(self):
        from repro.core import ParticleSwarm

        f = lambda X: -np.sum((X - 0.5) ** 2, axis=1)
        pso = ParticleSwarm(dim=2, n_particles=20, iterations=15, seed=0)
        pso.maximize(f)
        batch = pso.top_batch(4, min_dist=0.05)
        assert 1 <= batch.shape[0] <= 4
        for a in range(batch.shape[0]):
            for b in range(a + 1, batch.shape[0]):
                assert np.linalg.norm(batch[a] - batch[b]) >= 0.05

    def test_top_batch_before_maximize(self):
        from repro.core import ParticleSwarm

        with pytest.raises(RuntimeError):
            ParticleSwarm(dim=2).top_batch(2)


class TestOptionsReachTheCampaign:
    """Options that only a campaign reads, each set through ``Options`` and
    seen in what the campaign does."""

    @pytest.mark.parametrize("n_objectives", [1, 2])
    def test_penalty_radius_moves_streaming_proposals(self, n_objectives):
        # the in-flight points' penalty (EI for γ = 1, each objective's LCB
        # for γ = 2) has the radius it is given: two radii propose apart
        from repro.runtime.async_engine import SimScheduler
        from repro.runtime.simclock import SimClock

        def objective(t, c):
            y = (c["x"] - t["t"] / 10.0) ** 2 + 0.01
            return [y, (c["x"] - 0.9) ** 2] if n_objectives == 2 else y

        problem = TuningProblem(
            Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)]), objective,
            n_objectives=n_objectives,
        )
        records = []
        for radius in (0.02, 0.4):
            scheduler = SimScheduler(
                lambda task, cfg: 1.0 + 3.0 * float(cfg["x"]), clock=SimClock()
            )
            opts = FAST.replace(
                async_eval=True, max_inflight=3, penalty_radius=radius,
                nsga_pop=12, nsga_gens=5,
            )
            res = GPTune(problem, opts, scheduler=scheduler).tune([{"t": 3}, {"t": 6}], 8)
            records.append(res.data.to_records())
        assert records[0] != records[1]

    def test_retry_events_carry_the_backoff_schedule(self):
        from repro.core import RetryPolicy

        calls = {}

        def flaky(t, c):  # the first two calls per configuration crash
            key = round(float(c["x"]), 9)
            calls[key] = calls.get(key, 0) + 1
            if calls[key] <= 2:
                raise RuntimeError("transient crash")
            return (c["x"] - 0.4) ** 2

        problem = TuningProblem(
            Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)]), flaky
        )
        opts = FAST.replace(
            seed=7, retry_attempts=3, retry_backoff=1e-3, retry_backoff_factor=3.0,
            retry_jitter=0.5,
        )
        res = GPTune(problem, opts).tune([{"t": 4}], 4)
        expected = RetryPolicy(backoff=1e-3, backoff_factor=3.0, jitter=0.5, seed=7).schedule(2)
        retries = [e.detail for e in res.events.of_kind("retry")]
        assert len(retries) == 2 * len(calls)
        for attempt, delay in enumerate(expected, start=1):
            tag = f"attempt {attempt} failed (exception); backoff {delay:.3g}s"
            assert retries.count(tag) == len(calls)

    def test_eval_timeout_abandons_a_hung_objective(self):
        import time

        hung = []

        def objective(t, c):  # the first evaluation hangs
            if not hung:
                hung.append(c["x"])
                time.sleep(1.0)
            return (c["x"] - 0.4) ** 2

        problem = TuningProblem(
            Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)]), objective,
            failure_value=50.0,
        )
        res = GPTune(problem, FAST.replace(eval_timeout=0.2)).tune([{"t": 4}], 4)
        assert res.events.count("timeout") == 1
        assert res.events.count("eval-failure") == 1
        assert [y[0] for y in res.data.Y[0]].count(50.0) == 1
        assert res.data.n_samples(0) == 4
