"""Cross-module integration tests: the full stack on real substrates."""

import numpy as np
import pytest

from repro import GPTune, Options
from repro.apps.analytical import AnalyticalApp
from repro.apps.fusion import M3DC1
from repro.apps.hypre import HypreApp
from repro.apps.scalapack import PDGEQRF
from repro.apps.superlu import SuperLUDIST
from repro.runtime import cori_haswell
from repro.tuners import GPTuneTuner, HpBandSterTuner, OpenTunerTuner, RandomSearchTuner

FAST = Options(seed=0, n_start=1, pso_iters=8, ei_candidates=12, lbfgs_maxiter=50)


class TestMLAOnSubstrates:
    """GPTune end-to-end on each application simulator."""

    def test_pdgeqrf_multitask_beats_random_average(self):
        app = PDGEQRF(machine=cori_haswell(4), mn_max=16000, seed=0)
        tasks = [{"m": 8000, "n": 8000}, {"m": 12000, "n": 6000}]
        res = GPTune(app.problem(), FAST).tune(tasks, 10)
        from repro.core.sampling import sample_feasible

        rng = np.random.default_rng(9)
        for i, t in enumerate(tasks):
            randoms = [
                app.objective(t, c)
                for c in sample_feasible(app.tuning_space(), 10, rng, extra=t)
            ]
            # tuned result clearly better than the average random config,
            # and within reach of the near-optimal ScaLAPACK default
            assert res.best(i)[1] < float(np.mean(randoms))
            default = app.objective(t, app.default_config(t))
            assert res.best(i)[1] <= default * 1.5

    def test_superlu_time_tuning(self):
        app = SuperLUDIST(
            machine=cori_haswell(4), matrices=["Si2", "SiNa"], scale=0.02, seed=0
        )
        res = GPTune(app.problem(), FAST).tune(
            [{"matrix": "Si2"}, {"matrix": "SiNa"}], 8
        )
        for i in range(2):
            default = app.objective(res.data.tasks[i], app.default_config(res.data.tasks[i]))
            assert res.best(i)[1] <= default * 1.1

    def test_superlu_multiobjective_front(self):
        app = SuperLUDIST(
            machine=cori_haswell(4),
            matrices=["Si2"],
            objectives=("time", "memory"),
            scale=0.02,
            seed=0,
        )
        opts = FAST.replace(nsga_pop=12, nsga_gens=6, pareto_batch=2)
        res = GPTune(app.problem(), opts).tune([{"matrix": "Si2"}], 12)
        _, front = res.pareto_front(0)
        assert front.shape[0] >= 1
        assert front.shape[1] == 2
        # front members are mutually non-dominating by construction
        from repro.core.metrics import pareto_mask

        assert pareto_mask(front).all()

    def test_hypre_twelve_param_tuning(self):
        app = HypreApp(machine=cori_haswell(1), grid_range=(8, 16), solve_cap=512, seed=0)
        res = GPTune(app.problem(), FAST).tune([{"n1": 10, "n2": 10, "n3": 10}], 6)
        assert res.best(0)[1] > 0
        # mixed space round-trips: every evaluated config has native types
        for cfg in res.data.X[0]:
            assert isinstance(cfg["coarsen_type"], str)
            assert isinstance(cfg["P_max_elmts"], int)

    def test_m3dc1_cheap_to_expensive_transfer(self):
        app = M3DC1(machine=cori_haswell(1), plane_size=150, seed=0)
        res = GPTune(app.problem(), FAST).tune([{"t": 1}, {"t": 1}, {"t": 4}], 6)
        cfg, val = res.best(2)
        default = app.objective({"t": 4}, app.default_config({"t": 4}))
        assert val <= default * 1.05

    def test_analytical_model_enriched(self):
        app = AnalyticalApp(seed=0)
        res = GPTune(app.problem(with_models=True), FAST).tune([{"t": 0.0}], 12)
        assert res.best(0)[1] < 1.0  # well below the y≈1 baseline level


class TestTunerInteroperability:
    """All tuners share the TuningProblem interface on a real substrate."""

    @pytest.mark.parametrize(
        "tuner",
        [RandomSearchTuner(), OpenTunerTuner(), HpBandSterTuner(), GPTuneTuner(FAST)],
        ids=lambda t: t.name,
    )
    def test_all_tuners_on_superlu(self, tuner):
        app = SuperLUDIST(machine=cori_haswell(4), matrices=["Si2"], scale=0.02, seed=0)
        rec = tuner.tune(app.problem(), {"matrix": "Si2"}, 8, seed=5)
        assert rec.data.n_samples(0) == 8
        assert rec.best(0)[1] > 0
        # every evaluated configuration respects the grid constraint
        assert all(c["p_r"] <= c["p"] for c in rec.data.X[0])


class TestDeterminism:
    def test_full_stack_reproducible(self):
        app = PDGEQRF(machine=cori_haswell(1), mn_max=8000, seed=3)
        t = [{"m": 4000, "n": 4000}]
        a = GPTune(app.problem(), FAST).tune(t, 8).best(0)
        b = GPTune(app.problem(), FAST).tune(t, 8).best(0)
        assert a[1] == b[1] and a[0] == b[0]

    def test_seed_changes_trajectory(self):
        app = PDGEQRF(machine=cori_haswell(1), mn_max=8000, seed=3)
        t = [{"m": 4000, "n": 4000}]
        a = GPTune(app.problem(), FAST).tune(t, 8)
        b = GPTune(app.problem(), FAST.replace(seed=77)).tune(t, 8)
        assert [x for x in a.data.X[0]] != [x for x in b.data.X[0]]


class TestBackends:
    def test_thread_backend_same_result_as_serial(self):
        app = AnalyticalApp(seed=0)
        serial = GPTune(app.problem(), FAST.replace(n_start=2)).tune([{"t": 1.0}], 8)
        threaded = GPTune(
            app.problem(), FAST.replace(n_start=2, backend="thread", n_workers=2)
        ).tune([{"t": 1.0}], 8)
        assert serial.best(0)[1] == pytest.approx(threaded.best(0)[1], rel=1e-9)
