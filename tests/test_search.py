"""Unit tests for the search-phase optimizers (PSO, NSGA-II)."""

import numpy as np
import pytest

from repro.core import NSGA2, ParticleSwarm
from repro.core.search.nsga2 import crowding_distance, fast_non_dominated_sort


class TestPSO:
    def test_finds_smooth_maximum(self):
        target = np.array([0.3, 0.7])

        def f(X):
            return -np.sum((X - target) ** 2, axis=1)

        pso = ParticleSwarm(dim=2, n_particles=30, iterations=40, seed=0)
        x, v = pso.maximize(f)
        assert np.allclose(x, target, atol=0.05)
        assert v == pytest.approx(0.0, abs=1e-2)

    def test_respects_bounds(self):
        def f(X):
            return X[:, 0]  # pushes toward the boundary

        x, _ = ParticleSwarm(dim=1, n_particles=10, iterations=30, seed=1).maximize(f)
        assert 0.0 <= x[0] <= 1.0
        assert x[0] > 0.95

    def test_seed_reproducible(self):
        f = lambda X: -np.sum((X - 0.5) ** 2, axis=1)
        a = ParticleSwarm(2, 10, 10, seed=5).maximize(f)
        b = ParticleSwarm(2, 10, 10, seed=5).maximize(f)
        assert np.allclose(a[0], b[0]) and a[1] == b[1]

    def test_x0_seeding_helps(self):
        """An injected good start is never lost (elitist pbest)."""
        target = np.array([0.111, 0.222, 0.333, 0.444])
        f = lambda X: -np.sum((X - target) ** 2, axis=1)
        pso = ParticleSwarm(dim=4, n_particles=5, iterations=2, seed=0)
        x, v = pso.maximize(f, x0=target[None, :])
        assert v >= -1e-12

    def test_infeasible_minus_inf_handled(self):
        def f(X):
            vals = -np.sum((X - 0.5) ** 2, axis=1)
            vals[X[:, 0] > 0.5] = -np.inf
            return vals

        x, v = ParticleSwarm(dim=1, n_particles=20, iterations=30, seed=2).maximize(f)
        assert x[0] <= 0.5 and np.isfinite(v)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            ParticleSwarm(dim=0)


class TestNonDominatedSort:
    def test_simple_fronts(self):
        F = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0], [3.0, 3.0]])
        fronts = fast_non_dominated_sort(F)
        assert set(fronts[0].tolist()) == {0, 2}
        assert set(fronts[1].tolist()) == {1}
        assert set(fronts[2].tolist()) == {3}

    def test_all_nondominated(self):
        F = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        fronts = fast_non_dominated_sort(F)
        assert len(fronts) == 1 and len(fronts[0]) == 3

    def test_duplicates_same_front(self):
        F = np.array([[1.0, 1.0], [1.0, 1.0]])
        fronts = fast_non_dominated_sort(F)
        assert len(fronts[0]) == 2

    def test_partition_is_complete(self, rng):
        F = rng.random((20, 3))
        fronts = fast_non_dominated_sort(F)
        together = np.concatenate(fronts)
        assert sorted(together.tolist()) == list(range(20))


class TestCrowdingDistance:
    def test_boundary_infinite(self):
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        d = crowding_distance(F)
        assert np.isinf(d[0]) and np.isinf(d[3])
        assert np.isfinite(d[1]) and np.isfinite(d[2])

    def test_small_fronts_all_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))))

    def test_denser_region_smaller_distance(self):
        F = np.array([[0.0, 4.0], [0.1, 3.9], [0.2, 3.8], [2.0, 1.0], [4.0, 0.0]])
        d = crowding_distance(F)
        assert d[1] < d[3]


class TestNSGA2:
    def test_converges_to_known_front(self):
        """min (x², (x−1)²) on x ∈ [0,1] — the front is x ∈ [0,1] with
        f1 + sqrt-shape; check solutions lie near the true front curve."""

        def objectives(X):
            x = X[:, 0]
            return np.column_stack([x**2, (x - 1.0) ** 2])

        nsga = NSGA2(dim=1, pop_size=30, generations=30, seed=0)
        Xf, Ff = nsga.minimize(objectives)
        assert Xf.shape[0] >= 5
        # on the true Pareto front, sqrt(f1) + sqrt(f2) == 1
        resid = np.abs(np.sqrt(Ff[:, 0]) + np.sqrt(Ff[:, 1]) - 1.0)
        assert np.median(resid) < 0.05

    def test_front_spread(self):
        def objectives(X):
            x = X[:, 0]
            return np.column_stack([x**2, (x - 1.0) ** 2])

        _, Ff = NSGA2(dim=1, pop_size=40, generations=30, seed=1).minimize(objectives)
        assert Ff[:, 0].max() - Ff[:, 0].min() > 0.5

    def test_returned_front_is_nondominated(self, rng):
        def objectives(X):
            return np.column_stack([X[:, 0], 1.0 - X[:, 0] + 0.3 * X[:, 1]])

        _, Ff = NSGA2(dim=2, pop_size=20, generations=10, seed=2).minimize(objectives)
        fronts = fast_non_dominated_sort(Ff)
        assert len(fronts) == 1

    def test_infeasible_inf_rows_excluded(self):
        def objectives(X):
            F = np.column_stack([X[:, 0], 1.0 - X[:, 0]])
            F[X[:, 0] > 0.5] = np.inf
            return F

        _, Ff = NSGA2(dim=1, pop_size=20, generations=15, seed=3).minimize(objectives)
        finite = Ff[np.all(np.isfinite(Ff), axis=1)]
        assert finite.shape[0] >= 1
        assert np.all(finite[:, 0] <= 0.5 + 1e-9)

    def test_seed_reproducible(self):
        def objectives(X):
            return np.column_stack([X[:, 0], 1.0 - X[:, 0]])

        a = NSGA2(dim=1, pop_size=10, generations=5, seed=9).minimize(objectives)
        b = NSGA2(dim=1, pop_size=10, generations=5, seed=9).minimize(objectives)
        assert np.allclose(a[1], b[1])


class TestNSGA2AskTell:
    """The stepping API must reproduce minimize() exactly (same RNG order)."""

    @staticmethod
    def _objectives(X):
        return np.column_stack([X[:, 0], 1.0 - X[:, 0] + 0.2 * X[:, 1]])

    def test_stepping_matches_minimize(self):
        ref = NSGA2(dim=2, pop_size=12, generations=5, seed=7)
        Xr, Fr = ref.minimize(self._objectives)

        step = NSGA2(dim=2, pop_size=12, generations=5, seed=7)
        step.tell(self._objectives(step.initialize()))
        for _ in range(step.generations):
            step.tell(self._objectives(step.ask()))
        Xs, Fs = step.front()
        assert np.array_equal(Xr, Xs)
        assert np.array_equal(Fr, Fs)

    def test_population_exposes_all_ranks(self):
        nsga = NSGA2(dim=2, pop_size=10, generations=3, seed=0)
        nsga.minimize(self._objectives)
        popX, popF = nsga.population
        assert popX.shape == (nsga.pop_size, 2)
        assert popF.shape == (nsga.pop_size, 2)

    def test_ask_before_tell_raises(self):
        nsga = NSGA2(dim=2, pop_size=8, generations=2, seed=0)
        with pytest.raises(RuntimeError):
            nsga.ask()
        nsga.initialize()
        with pytest.raises(RuntimeError):
            nsga.ask()  # initial fitness not told yet

    def test_tell_without_pending_ask_names_task_and_generation(self):
        """Protocol errors carry the label and generation, so a driver
        interleaving many per-task optimizers can tell which one broke."""
        nsga = NSGA2(dim=2, pop_size=8, generations=2, seed=0, label="task 3")
        nsga.tell(self._objectives(nsga.initialize()))
        nsga.tell(self._objectives(nsga.ask()))  # generation 1 completes
        with pytest.raises(RuntimeError) as exc:
            nsga.tell(np.zeros((8, 2)))  # no ask() pending
        msg = str(exc.value)
        assert "tell() without a pending ask()" in msg
        assert "task 3" in msg and "generation 1" in msg

    def test_tell_before_initialize_has_context(self):
        nsga = NSGA2(dim=2, pop_size=8, generations=2, seed=0, label="task 7")
        with pytest.raises(RuntimeError, match=r"task 7, generation 0"):
            nsga.tell(np.zeros((8, 2)))


class TestNSGA2Validation:
    """Bad settings fail at construction and name the value, not mid-run."""

    def test_pop_size_below_one_rejected(self):
        for bad in (0, -4):
            with pytest.raises(ValueError, match=rf"pop_size must be >= 1, got {bad}"):
                NSGA2(dim=2, pop_size=bad)

    def test_pop_size_one_rounds_up_to_a_pair(self):
        nsga = NSGA2(dim=2, pop_size=1, generations=2, seed=0)
        assert nsga.pop_size == 2
        Xf, _ = nsga.minimize(TestNSGA2AskTell._objectives)
        assert Xf.shape[1] == 2

    @pytest.mark.parametrize("field", ["p_crossover", "p_mutation"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_probabilities_outside_unit_interval_rejected(self, field, bad):
        with pytest.raises(ValueError, match=rf"{field} must be in \[0, 1\], got {bad}"):
            NSGA2(dim=2, **{field: bad})

    def test_probability_bounds_accepted(self):
        for p in (0.0, 1.0):
            nsga = NSGA2(dim=3, p_crossover=p, p_mutation=p)
            assert (nsga.p_c, nsga.p_m) == (p, p)
        assert NSGA2(dim=4).p_m == 0.25  # None -> 1/dim


class TestAskMatchesReference:
    """The vectorized ask() is pinned bit for bit against _ask_reference:
    every generation's children, the final front and population, and the
    generator state after the run (so stream consumption is pinned too)."""

    @staticmethod
    def _objectives(X):
        cols = [np.sum((X - 0.2) ** 2, axis=1), np.sum((X - 0.8) ** 2, axis=1)]
        if X.shape[1] % 2:
            cols.append(np.abs(X[:, 0] - 0.5))
        F = np.stack(cols, axis=1)
        F[X[:, -1] > 0.85] = np.inf  # infeasible rows
        return F

    def _run(self, reference, x0, **kw):
        nsga = NSGA2(**kw)
        ask = nsga._ask_reference if reference else nsga.ask
        children = []

        def logged():
            c = ask()
            children.append(c.copy())
            return c

        nsga.ask = logged
        Xf, Ff = nsga.minimize(self._objectives, x0=x0)
        return children, (Xf, Ff) + nsga.population, nsga.rng.bit_generator.state

    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("p_crossover", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("p_mutation", [None, 0.0, 1.0])
    def test_minimize_bitwise(self, dim, p_crossover, p_mutation):
        for seed in (0, 1, 2):
            x0 = np.random.default_rng(seed).random((3, dim)) if seed % 2 else None
            kw = dict(dim=dim, pop_size=2 * dim + 5, generations=4, seed=seed,
                      p_crossover=p_crossover, p_mutation=p_mutation)
            fast = self._run(False, x0, **kw)
            ref = self._run(True, x0, **kw)
            assert len(fast[0]) == len(ref[0]) == 4
            for a, b in zip(fast[0] + list(fast[1]), ref[0] + list(ref[1])):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert fast[2] == ref[2]

    def test_stepping_bitwise_at_search_shape(self):
        """ask/tell at the default search shape (pop 40, dim 6) over many
        generations, with a shared objective so both stay in lockstep."""
        fast = NSGA2(dim=6, seed=5)
        ref = NSGA2(dim=6, seed=5)
        for nsga in (fast, ref):
            nsga.tell(self._objectives(nsga.initialize()))
        for _ in range(fast.generations):
            a, b = fast.ask(), ref._ask_reference()
            assert a.tobytes() == b.tobytes()
            fast.tell(self._objectives(a))
            ref.tell(self._objectives(b))
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
        for a, b in zip(fast.front(), ref.front()):
            assert a.tobytes() == b.tobytes()

    def test_tell_selection_matches_full_sort(self):
        """tell() peels fronts lazily and stops once the population is full;
        it must keep exactly what selection over the full sort keeps."""
        rng = np.random.default_rng(0)
        for seed in range(60):
            nsga = NSGA2(dim=2, pop_size=int(rng.integers(2, 16)), seed=seed)
            pop = nsga.initialize()
            F0 = rng.integers(0, 3, (pop.shape[0], 2)).astype(float)  # ties
            nsga.tell(F0)
            kids = nsga.ask()
            F1 = rng.integers(0, 3, (kids.shape[0], 2)).astype(float)
            F1[rng.random(F1.shape[0]) < 0.2] = np.inf
            allX, allF = np.vstack([pop, kids]), np.vstack([F0, F1])
            keep = []
            for idx in fast_non_dominated_sort(allF):
                if len(keep) + idx.size <= nsga.pop_size:
                    keep.extend(idx.tolist())
                else:
                    order = np.argsort(-crowding_distance(allF[idx]), kind="stable")
                    keep.extend(idx[order][: nsga.pop_size - len(keep)].tolist())
                    break
            nsga.tell(F1)
            popX, popF = nsga.population
            assert popX.tobytes() == allX[keep].tobytes()
            assert popF.tobytes() == allF[keep].tobytes()

    def test_front_is_first_sorted_front(self):
        nsga = NSGA2(dim=3, pop_size=20, generations=3, seed=4)
        Xf, Ff = nsga.minimize(self._objectives)
        popX, popF = nsga.population
        first = fast_non_dominated_sort(popF)[0]
        assert Xf.tobytes() == popX[first].tobytes()
        assert Ff.tobytes() == popF[first].tobytes()


class TestPickK:
    """MLA._pick_k: non-finite rows filter *before* the size check."""

    @staticmethod
    def _pick_k(Xf, Ff, k, pool=None):
        from repro.core.mla import GPTune

        return GPTune._pick_k(Xf, Ff, k, pool=pool)

    def test_infinite_rows_do_not_slip_through_early_exit(self):
        """A short front padded with inf rows used to be returned verbatim."""
        Xf = np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.5]])
        Ff = np.array([[1.0, 2.0], [np.inf, np.inf], [2.0, 1.0]])
        picks = self._pick_k(Xf, Ff, k=3)
        assert picks.shape[0] == 2
        assert not any(np.allclose(p, [0.9, 0.9]) for p in picks)

    def test_tops_up_from_pool_ranks(self):
        """Fewer finite front rows than k: next ranks of the pool fill in."""
        Xf = np.array([[0.1, 0.1], [0.2, 0.2]])
        Ff = np.array([[1.0, 2.0], [np.inf, 3.0]])
        poolX = np.array([[0.1, 0.1], [0.4, 0.4], [0.6, 0.6], [0.8, 0.8]])
        poolF = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0], [np.inf, 0.5]])
        picks = self._pick_k(Xf, Ff, k=3, pool=(poolX, poolF))
        assert picks.shape[0] == 3
        keys = {tuple(np.round(p, 6)) for p in picks}
        assert (0.1, 0.1) in keys  # the finite front row survives
        assert (0.8, 0.8) not in keys  # non-finite pool rows stay excluded
        assert len(keys) == 3  # no duplicates

    def test_crowding_pick_unchanged_on_large_finite_front(self):
        rng = np.random.default_rng(3)
        Xf = rng.random((12, 2))
        Ff = np.column_stack([np.linspace(0, 1, 12), np.linspace(1, 0, 12)])
        picks = self._pick_k(Xf, Ff, k=4)
        assert picks.shape == (4, 2)
        # boundary (extreme) points have infinite crowding distance: kept
        assert any(np.allclose(p, Xf[0]) for p in picks)
        assert any(np.allclose(p, Xf[-1]) for p in picks)

    def test_all_infeasible_returns_raw_front(self):
        """Everything inf: keep proposing rather than stalling the campaign."""
        Xf = np.array([[0.3, 0.3], [0.6, 0.6]])
        Ff = np.full((2, 2), np.inf)
        picks = self._pick_k(Xf, Ff, k=2)
        assert picks.shape[0] == 2
