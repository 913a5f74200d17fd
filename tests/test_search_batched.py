"""Lockstep batched search phase: cross-task posterior for every surrogate,
batched EI/PSO and NSGA-II campaigns, and within-round proposal dedup."""

import numpy as np
import pytest

from repro.core import (
    BatchedEIAcquisition,
    BatchedParticleSwarm,
    EIAcquisition,
    GPTune,
    Integer,
    Options,
    ParticleSwarm,
    PerTaskGP,
    Real,
    Space,
    TuningProblem,
)
from repro.core.lcm import LCM
from tests.posterior_reference import lcm_posterior


def _fit_data(rng, n, delta, beta):
    X = rng.random((n, beta))
    tidx = np.arange(n) % delta  # every task observed (PerTaskGP needs it)
    y = np.sin(3.0 * X[:, 0]) + 0.3 * tidx + 0.05 * rng.normal(size=n)
    return X, y, tidx


def _fitted_lcm(rng, n=50, delta=3, beta=2, q=2):
    return LCM(delta, beta, n_latent=q, seed=0, n_start=1, maxiter=30).fit(
        *_fit_data(rng, n, delta, beta)
    )


def _fitted_models(rng, n=50, delta=3, beta=2, q=2):
    """An exact LCM and a per-task GP backend fitted on the same data."""
    data = _fit_data(rng, n, delta, beta)
    return (
        LCM(delta, beta, n_latent=q, seed=0, n_start=1, maxiter=30).fit(*data),
        PerTaskGP(delta, beta, n_start=1, maxiter=30, seed=0).fit(*data),
    )


def _reference(m, task, X):
    """The independent posterior of one task: the dense Eqs. 5–6 for the
    LCM, the task's own GP (its primitive ``predict``) for PerTaskGP."""
    return lcm_posterior(m, task, X) if isinstance(m, LCM) else m.predict(task, X)


class TestPredictTasks:
    """predict_tasks ≡ an independent posterior to 1e-10 on random fits:
    the dense Eqs. 5–6 for the exact LCM, the per-task GPs for the per-task
    GP backend."""

    @pytest.mark.parametrize("delta,beta,q,n", [(2, 2, 1, 24), (3, 2, 2, 40), (4, 3, 3, 60)])
    def test_shared_block_equivalence(self, rng, delta, beta, q, n):
        Xs = rng.random((17, beta))
        tasks = list(range(delta))
        for m in _fitted_models(rng, n=n, delta=delta, beta=beta, q=q):
            mu_b, var_b = m.predict_tasks(tasks, Xs)
            assert mu_b.shape == var_b.shape == (delta, 17)
            for t in tasks:
                mu, var = _reference(m, t, Xs)
                assert np.allclose(mu_b[t], mu, rtol=0, atol=1e-10)
                assert np.allclose(var_b[t], var, rtol=0, atol=1e-10)

    def test_per_task_blocks_equivalence(self, rng):
        blocks = rng.random((3, 11, 2))
        for m in _fitted_models(rng, delta=3):
            mu_b, var_b = m.predict_tasks([0, 1, 2], blocks)
            assert mu_b.shape == var_b.shape == (3, 11)
            for t in range(3):
                mu, var = _reference(m, t, blocks[t])
                assert np.allclose(mu_b[t], mu, rtol=0, atol=1e-10)
                assert np.allclose(var_b[t], var, rtol=0, atol=1e-10)

    def test_task_subset_and_order(self, rng):
        """Any subset of tasks, in any order (frozen tasks are skipped)."""
        Xs = rng.random((9, 2))
        blocks = rng.random((2, 9, 2))
        for m in _fitted_models(rng, delta=4, q=2):
            for X in (Xs, blocks):
                mu_b, var_b = m.predict_tasks([3, 1], X)
                for row, t in enumerate([3, 1]):
                    mu, var = _reference(m, t, X if X.ndim == 2 else X[row])
                    assert np.allclose(mu_b[row], mu, rtol=0, atol=1e-10)
                    assert np.allclose(var_b[row], var, rtol=0, atol=1e-10)

    def test_predict_is_the_one_task_view(self, rng):
        """LCM.predict returns predict_tasks' row bit for bit, and keeps its
        own checks."""
        m = _fitted_lcm(rng)
        Xs = rng.random((13, 2))
        for t in range(3):
            mu, var = m.predict(t, Xs)
            mu_b, var_b = m.predict_tasks([t], Xs)
            assert np.array_equal(mu, mu_b[0]) and np.array_equal(var, var_b[0])
        mu, var = m.predict(1, Xs[0])  # one point as a 1-D vector
        assert mu.shape == var.shape == (1,)
        with pytest.raises(ValueError):
            m.predict(3, Xs)
        with pytest.raises(RuntimeError):
            LCM(2, 2, seed=0).predict(0, Xs)

    def test_variance_nonnegative(self, rng):
        m = _fitted_lcm(rng)
        _, var = m.predict_tasks([0, 1, 2], rng.random((30, 2)))
        assert np.all(var >= 0.0)

    def test_validation(self, rng):
        for m in _fitted_models(rng, delta=2):
            with pytest.raises(ValueError):
                m.predict_tasks([0, 5], rng.random((4, 2)))
            with pytest.raises(ValueError):
                m.predict_tasks([], rng.random((4, 2)))
            with pytest.raises(ValueError):
                m.predict_tasks([0, 1], rng.random((3, 4, 2)))  # 3 blocks, 2 tasks
        with pytest.raises(RuntimeError):
            LCM(2, 2, seed=0).predict_tasks([0], rng.random((4, 2)))
        with pytest.raises(RuntimeError):
            PerTaskGP(2, 2, seed=0).predict_tasks([0], rng.random((4, 2)))


class TestBatchedParticleSwarm:
    def test_finds_per_task_maxima(self):
        targets = np.array([[0.2, 0.8], [0.7, 0.3], [0.5, 0.5]])

        def f(X):  # (T, P, d) -> (T, P)
            return -np.sum((X - targets[:, None, :]) ** 2, axis=2)

        pso = BatchedParticleSwarm(dim=2, n_tasks=3, n_particles=30, iterations=40, seed=0)
        x, v = pso.maximize(f)
        assert x.shape == (3, 2) and v.shape == (3,)
        assert np.allclose(x, targets, atol=0.05)

    def test_respects_bounds(self):
        def f(X):
            return X[..., 0]

        x, _ = BatchedParticleSwarm(dim=1, n_tasks=2, n_particles=10, iterations=30, seed=1).maximize(f)
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.all(x[:, 0] > 0.95)

    def test_seed_reproducible(self):
        f = lambda X: -np.sum((X - 0.5) ** 2, axis=2)
        a = BatchedParticleSwarm(2, 3, 10, 10, seed=5).maximize(f)
        b = BatchedParticleSwarm(2, 3, 10, 10, seed=5).maximize(f)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_x0_incumbents_never_lost(self):
        """Injected per-task seeds survive via elitist personal bests."""
        targets = np.array([[0.1, 0.9], [0.9, 0.1]])
        f = lambda X: -np.sum((X - targets[:, None, :]) ** 2, axis=2)
        pso = BatchedParticleSwarm(dim=2, n_tasks=2, n_particles=5, iterations=2, seed=0)
        _, v = pso.maximize(f, x0=targets)
        assert np.all(v >= -1e-12)

    def test_top_batch_per_task(self):
        f = lambda X: -np.sum((X - 0.5) ** 2, axis=2)
        pso = BatchedParticleSwarm(dim=2, n_tasks=2, n_particles=20, iterations=10, seed=2)
        pso.maximize(f)
        tops = pso.top_batch(3, min_dist=0.01)
        assert len(tops) == 2
        for arr in tops:
            assert 1 <= arr.shape[0] <= 3 and arr.shape[1] == 2
            for a in range(arr.shape[0]):
                for b in range(a + 1, arr.shape[0]):
                    assert np.linalg.norm(arr[a] - arr[b]) >= 0.01

    def test_top_batch_before_maximize_raises(self):
        with pytest.raises(RuntimeError):
            BatchedParticleSwarm(2, 2, seed=0).top_batch(2)


class TestBatchedEIAcquisition:
    def test_matches_per_task_ei(self, rng):
        m = _fitted_lcm(rng, delta=3)
        ybest = np.array([0.2, 0.5, -0.1])
        batched = BatchedEIAcquisition(
            lambda X: m.predict_tasks([0, 1, 2], X), y_best=ybest
        )
        blocks = rng.random((3, 8, 2))
        ei = batched(blocks)
        assert ei.shape == (3, 8)
        for t in range(3):
            ref = EIAcquisition(lambda X, t=t: m.predict(t, X), y_best=float(ybest[t]))
            assert np.allclose(ei[t], ref(blocks[t]), atol=1e-10)

    def test_per_task_feasibility_masks(self, rng):
        m = _fitted_lcm(rng, delta=2)
        feas = [lambda X: X[:, 0] < 0.5, None]
        batched = BatchedEIAcquisition(
            lambda X: m.predict_tasks([0, 1], X),
            y_best=np.array([1.0, 1.0]),
            feasibility=feas,
        )
        blocks = np.stack([np.array([[0.1, 0.5], [0.9, 0.5]])] * 2)
        ei = batched(blocks)
        assert np.isfinite(ei[0, 0]) and ei[0, 1] == -np.inf
        assert np.all(np.isfinite(ei[1]))

    def test_shape_validation(self, rng):
        m = _fitted_lcm(rng, delta=2)
        acq = BatchedEIAcquisition(
            lambda X: m.predict_tasks([0, 1], X), y_best=np.zeros(2)
        )
        with pytest.raises(ValueError):
            acq(rng.random((4, 2)))  # missing task axis


class TestOneTaskViews:
    """``ParticleSwarm`` and ``EIAcquisition`` are their batched classes at
    one task: same positions, values, batch picks and generator stream,
    bit for bit."""

    @staticmethod
    def _objective(rng, dim):
        centre = rng.random(dim)
        scale = rng.uniform(0.5, 5.0)
        cut = rng.uniform(0.0, 0.6)  # a region scored -inf (infeasible)

        def f(X):
            v = -scale * np.sum((X - centre) ** 2, axis=-1)
            return np.where(X[..., 0] < cut, -np.inf, v)

        return f

    @pytest.mark.parametrize("case", range(40))
    def test_particle_swarm_is_one_task_batched(self, case):
        rng = np.random.default_rng(1000 + case)
        dim = int(rng.integers(1, 6))
        n, iters, seed = int(rng.integers(2, 30)), int(rng.integers(1, 12)), int(rng.integers(2**31))
        f = self._objective(rng, dim)
        x0 = rng.uniform(-0.2, 1.2, (int(rng.integers(1, 4)), dim)) if case % 3 else None
        one = ParticleSwarm(dim, n_particles=n, iterations=iters, seed=seed)
        many = BatchedParticleSwarm(dim, 1, n_particles=n, iterations=iters, seed=seed)
        x, v = one.maximize(f, x0=x0)
        xb, vb = many.maximize(f, x0=None if x0 is None else x0[None])
        assert np.array_equal(x, xb[0]) and v == vb[0] and isinstance(v, float)
        for q in (1, 3):
            assert np.array_equal(one.top_batch(q), many.top_batch(q)[0])
        assert one.rng.bit_generator.state == many.rng.bit_generator.state

    @pytest.mark.parametrize("with_feasibility", [False, True])
    def test_ei_acquisition_is_one_task_batched(self, rng, with_feasibility):
        m = _fitted_lcm(rng, delta=3)
        feas = (lambda X: X[:, 1] > 0.3) if with_feasibility else None
        for t, yb in ((0, 0.2), (2, -0.4), (1, np.inf)):
            one = EIAcquisition(lambda X, t=t: m.predict(t, X), y_best=yb, feasibility=feas)
            many = BatchedEIAcquisition(
                lambda X, t=t: tuple(a[None] for a in m.predict(t, X[0])),
                y_best=[yb],
                feasibility=[feas],
            )
            X = rng.random((25, 2))
            assert np.array_equal(one(X), many(X[None])[0])
            assert np.array_equal(one(X[3]), many(X[None, 3:4])[0])


def _analytical_problem():
    return TuningProblem(
        task_space=Space([Real("t", 0.0, 1.0)]),
        tuning_space=Space([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)]),
        objective=lambda task, cfg: 1.0
        + (cfg["x"] - 0.2 - 0.3 * task["t"]) ** 2
        + (cfg["y"] - 0.7 * task["t"]) ** 2,
        name="batched-search-analytical",
    )


TASKS = [{"t": 0.15}, {"t": 0.5}, {"t": 0.85}]
BASE = dict(seed=3, n_start=1, pso_iters=8, ei_candidates=12, lbfgs_maxiter=50)


def _campaign(**kw):
    opts = Options(**{**BASE, **kw})
    return GPTune(_analytical_problem(), opts).tune(TASKS, 12)


def _search_modes(res):
    return [e.fields.get("mode") for e in res.events.events if e.kind == "search-mode"]


class TestBatchedCampaign:
    def test_batched_within_5pct_of_known_minimum(self):
        """The analytic objective's minimum is 1.0 for every task."""
        assert np.all(_campaign().best_values() <= 1.05)

    def test_batched_deterministic(self):
        a = _campaign()
        b = _campaign()
        assert a.data.to_records() == b.data.to_records()

    def test_search_mode_events_and_spans(self):
        res = _campaign(telemetry=True)
        modes = [e for e in res.events.events if e.kind == "search-mode"]
        assert [e.fields.get("mode") for e in modes] == ["batched"]
        assert modes[0].fields.get("algo") == "pso-ei"
        spans = [
            e
            for e in res.events.events
            if e.kind == "span" and e.fields.get("name") == "phase.search"
        ]
        assert spans and all(s.fields.get("mode") == "batched" for s in spans)

    def test_batch_evals_diverse_proposals(self):
        res = _campaign(batch_evals=2)
        assert min(res.data.n_samples(i) for i in range(3)) >= 12

    def test_multiobjective_batched_matches_modes(self):
        prob = TuningProblem(
            task_space=Space([Real("t", 0.0, 1.0)]),
            tuning_space=Space([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)]),
            objective=lambda task, cfg: [
                (cfg["x"] - task["t"]) ** 2 + 0.1,
                (cfg["y"] - 0.5) ** 2 + 0.1,
            ],
            n_objectives=2,
            name="batched-search-mo",
        )
        opts = Options(seed=0, n_start=1, nsga_pop=10, nsga_gens=3, pareto_batch=2, lbfgs_maxiter=40)
        res = GPTune(prob, opts).tune([{"t": 0.2}, {"t": 0.8}], 10)
        assert _search_modes(res) == ["batched"]
        for i in range(2):
            front, _ = res.pareto_front(i)
            assert len(front) >= 1

    def test_perf_model_campaign_batches(self):
        """Per-task model features ride along in the stacked candidate blocks."""
        prob = TuningProblem(
            task_space=_analytical_problem().task_space,
            tuning_space=_analytical_problem().tuning_space,
            objective=_analytical_problem().objective,
            models=[lambda t, c: (c["x"] - 0.2 - 0.3 * t["t"]) ** 2],
            name="batched-search-perfmodel",
        )
        runs = [GPTune(prob, Options(**BASE)).tune(TASKS, 10) for _ in range(2)]
        assert _search_modes(runs[0]) == ["batched"]
        assert runs[0].data.to_records() == runs[1].data.to_records()
        assert np.all(runs[0].best_values() <= 1.05)


class TestSinglePosteriorPath:
    """Both campaign policies score through ``predict_tasks`` only: a
    streaming campaign never calls the per-task ``LCM.predict``."""

    @staticmethod
    def _stream(problem):
        from repro.runtime.async_engine import SimScheduler
        from repro.runtime.simclock import SimClock

        sched = SimScheduler(lambda task, cfg: 1.0 + 3.0 * float(cfg["x"]), clock=SimClock())
        opts = Options(**{**BASE, "async_eval": True, "max_inflight": 2,
                          "nsga_pop": 10, "nsga_gens": 3, "pareto_batch": 2})
        with pytest.MonkeyPatch.context() as mp:

            def boom(self, task, Xstar):
                raise AssertionError("LCM.predict called by the campaign")

            mp.setattr(LCM, "predict", boom)
            res = GPTune(problem, opts, scheduler=sched).tune(TASKS[:2], 9)
        assert _search_modes(res) == ["batched"]
        assert all(isinstance(m, LCM) for m in res.models)
        assert [res.data.n_samples(i) for i in range(2)] == [9, 9]

    def test_streaming_gamma1(self):
        self._stream(_analytical_problem())

    def test_streaming_gamma2_with_models(self):
        base = _analytical_problem()
        prob = TuningProblem(
            task_space=base.task_space,
            tuning_space=base.tuning_space,
            objective=lambda task, cfg: [
                base.objective(task, cfg),
                (cfg["y"] - 0.5) ** 2 + 0.1,
            ],
            n_objectives=2,
            models=[lambda t, c: (c["x"] - 0.2 - 0.3 * t["t"]) ** 2],
            name="stream-mo-perfmodel",
        )
        self._stream(prob)


def _integer_problem(n_objectives=1):
    def objective(task, cfg):
        f = (cfg["x"] - 5 * task["t"]) ** 2 + (cfg["y"] - 3) ** 2
        return f if n_objectives == 1 else [f, (cfg["x"] - 2) ** 2 + 1.0]

    return TuningProblem(
        task_space=Space([Real("t", 0.0, 1.0)]),
        tuning_space=Space([Integer("x", 0, 7), Integer("y", 0, 7)]),
        objective=objective,
        n_objectives=n_objectives,
        name=f"integer-repeats-{n_objectives}",
    )


class TestNoRepeatsWithinRound:
    """A round never proposes one configuration twice for the same task."""

    @staticmethod
    def _assert_no_repeats(res):
        for i in range(res.data.n_tasks):
            assert len(res.data.seen_keys(i)) == res.data.n_samples(i)

    def test_pso_batch_evals(self):
        opts = Options(**{**BASE, "seed": 0, "batch_evals": 4})
        res = GPTune(_integer_problem(), opts).tune([{"t": 0.2}, {"t": 0.7}], 12)
        self._assert_no_repeats(res)

    def test_nsga2_pareto_batch(self):
        opts = Options(seed=1, n_start=1, nsga_pop=12, nsga_gens=4, pareto_batch=4, lbfgs_maxiter=40)
        res = GPTune(_integer_problem(2), opts).tune([{"t": 0.2}, {"t": 0.7}], 16)
        self._assert_no_repeats(res)
