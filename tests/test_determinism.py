"""Determinism regressions.

Two invariants guard the resilience subsystem:

* the executor backend is an implementation detail — ``serial``, ``thread``
  and ``process`` runs with the same seed produce identical evaluation sets
  and best configs;
* a campaign killed at iteration k and resumed from its checkpoint produces
  exactly the evaluation set of an uninterrupted run (the checkpoint captures
  the seed-tree position, so resumed runs take identical decisions).

The async streaming engine extends both to the queue (``TestAsyncDeterminism``,
``TestAsyncKillResume``): under a deterministic scheduler the campaign is a
pure function of the seed — shuffling completion order inside a drain batch
changes nothing (the engine re-sorts by submission sequence), and a campaign
killed mid-flight resumes bit-identically because the checkpoint carries the
in-flight set with each evaluation's remaining virtual duration.
"""

import os

import numpy as np
import pytest

from repro import cli
from repro.core import GPTune, Integer, Options, Real, RunCheckpoint, Space, TuningProblem
from repro.runtime.async_engine import SimScheduler
from repro.runtime.simclock import SimClock


def _objective(t, c):
    x = float(c["x"])
    return (x - 0.35) ** 2 + 0.05 * np.sin(8.0 * x) + 0.01 * float(t["t"])


TASKS = [{"t": 1}, {"t": 4}]
BUDGET = 8


def _options(**kw):
    base = dict(seed=11, n_start=2, pso_iters=6, ei_candidates=10, lbfgs_maxiter=40)
    base.update(kw)
    return Options(**base)


def _problem():
    return TuningProblem(
        Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)]), _objective
    )


def _linear_model():
    from repro.core.perfmodel import LinearPerformanceModel

    return LinearPerformanceModel(
        [lambda t, c: float(c["x"]), lambda t, c: 0.1 * float(t["t"]) + 0.1]
    )


def _run(**kw):
    return GPTune(_problem(), _options(**kw)).tune(TASKS, BUDGET)


def _assert_same_data(a, b):
    for i in range(len(TASKS)):
        xa = [tuple(sorted(d.items())) for d in a.data.X[i]]
        xb = [tuple(sorted(d.items())) for d in b.data.X[i]]
        assert xa == xb
        np.testing.assert_array_equal(np.asarray(a.data.Y[i]), np.asarray(b.data.Y[i]))
        cfg_a, val_a = a.best(i)
        cfg_b, val_b = b.best(i)
        assert cfg_a == cfg_b and val_a == val_b


@pytest.fixture(scope="module")
def serial_result():
    return _run(backend="serial")


class TestBackendDeterminism:
    def test_serial_is_reproducible(self, serial_result):
        _assert_same_data(serial_result, _run(backend="serial"))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_matches_serial(self, serial_result, backend):
        _assert_same_data(serial_result, _run(backend=backend, n_workers=2))

    def test_process_backend_with_unpicklable_models(self):
        """Evaluation workers receive the problem without its performance
        models, so closure-built models do not stop the process backend."""

        def run(**kw):
            problem = TuningProblem(
                Space([Integer("t", 0, 10)]),
                Space([Real("x", 0.0, 1.0)]),
                _objective,
                models=[lambda t, c: float(c["x"])],
            )
            return GPTune(problem, _options(**kw)).tune(TASKS, 6)

        _assert_same_data(run(), run(backend="process", n_workers=2))


class _Kill(Exception):
    pass


def _kill_at(k):
    def callback(iteration, data, models):
        if iteration == k:
            raise _Kill(f"simulated crash at iteration {k}")

    return callback


class TestKillResume:
    @pytest.mark.parametrize("k", [1, 2])
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, serial_result, k):
        path = str(tmp_path / "run.ck.json")
        tuner = GPTune(_problem(), _options(checkpoint_path=path))
        with pytest.raises(_Kill):
            tuner.tune(TASKS, BUDGET, callback=_kill_at(k))
        assert os.path.exists(path)

        fresh = GPTune(_problem(), _options(checkpoint_path=path))
        resumed = fresh.resume(path)
        _assert_same_data(serial_result, resumed)
        assert len(resumed.events.of_kind("resume")) == 1

    @pytest.mark.parametrize(
        "modeling, k",
        [
            ({"refit_interval": 3}, 1),
            ({"refit_interval": 3}, 2),
            ({"refit_warm_start": True, "n_start": 3}, 1),
            ({"refit_warm_start": True, "n_start": 3}, 3),
        ],
    )
    def test_kill_and_resume_with_modeling_state(self, tmp_path, modeling, k):
        """Lockstep checkpoints carry the fitter's refit cadence, warm θ and
        extend chunks, so extend-phase and warm-refit campaigns resume to
        the uninterrupted records and final hyperparameters."""
        budget = 10
        ref = GPTune(_problem(), _options(**modeling)).tune(TASKS, budget)
        path = str(tmp_path / "run-modeling.ck.json")
        tuner = GPTune(_problem(), _options(checkpoint_path=path, **modeling))
        with pytest.raises(_Kill):
            tuner.tune(TASKS, budget, callback=_kill_at(k))
        ck = RunCheckpoint.load(path)
        assert ck.version == 2 and ck.modeling is not None

        fresh = GPTune(_problem(), _options(checkpoint_path=path, **modeling))
        resumed = fresh.resume(path)
        _assert_same_data(ref, resumed)
        np.testing.assert_array_equal(ref.models[0].theta, resumed.models[0].theta)

    @pytest.mark.parametrize(
        "modeling, k",
        [
            ({"refit_interval": 3}, 2),
            ({"refit_warm_start": True, "n_start": 3}, 3),
        ],
        ids=["refit_interval", "warm_start"],
    )
    def test_kill_and_resume_gp_backend(self, tmp_path, modeling, k):
        """The ``gp`` backend's warm state (per-task θ, output transform,
        extend chunks) rides the checkpoint like the exact LCM's: a resumed
        campaign extends and warm-refits as the uninterrupted one does."""
        modeling = dict(modeling, model_backend="gp")
        budget = 10
        ref = GPTune(_problem(), _options(**modeling)).tune(TASKS, budget)
        path = str(tmp_path / "run-gp.ck.json")
        tuner = GPTune(_problem(), _options(checkpoint_path=path, **modeling))
        with pytest.raises(_Kill):
            tuner.tune(TASKS, budget, callback=_kill_at(k))
        ck = RunCheckpoint.load(path)
        assert ck.version == 2 and ck.modeling is not None

        fresh = GPTune(_problem(), _options(checkpoint_path=path, **modeling))
        resumed = fresh.resume(path)
        _assert_same_data(ref, resumed)
        for a, b in zip(ref.models[0].gps, resumed.models[0].gps):
            np.testing.assert_array_equal(a.theta, b.theta)

    @pytest.mark.parametrize("k", [1, 2])
    def test_kill_and_resume_with_models(self, tmp_path, k):
        """A lockstep campaign with performance models keeps one featurizer,
        so with ``refit_interval=2`` it extends its posterior between full
        fits; the checkpoint carries the featurizer state and the resumed
        run matches the uninterrupted one."""
        from repro.apps.scalapack import PDGEQRF
        from repro.runtime.machine import cori_haswell

        app = PDGEQRF(machine=cori_haswell(1), mn_max=8000, seed=3)
        tasks, budget = app.sample_tasks(2, 5), 10

        def tuner(**kw):
            # a fresh problem each time: the linear models carry fitted state
            return GPTune(app.problem(with_models=True), _options(refit_interval=2, **kw))

        ref = tuner().tune(tasks, budget)
        assert ref.events.count("model-extend") > 0
        path = str(tmp_path / "run-models.ck.json")
        with pytest.raises(_Kill):
            tuner(checkpoint_path=path).tune(tasks, budget, callback=_kill_at(k))
        ck = RunCheckpoint.load(path)
        assert ck.version == 2 and "featurizer" in ck.modeling
        _assert_same_data(ref, tuner(checkpoint_path=path).resume(path))

    def test_resume_completed_run_adds_nothing(self, tmp_path):
        path = str(tmp_path / "run.ck.json")
        done = GPTune(_problem(), _options(checkpoint_path=path)).tune(TASKS, BUDGET)
        resumed = GPTune(_problem(), _options()).resume(path)
        assert len(resumed.data) == len(done.data)

    def test_resume_rejects_wrong_problem(self, tmp_path):
        path = str(tmp_path / "run.ck.json")
        tuner = GPTune(_problem(), _options(checkpoint_path=path))
        with pytest.raises(_Kill):
            tuner.tune(TASKS, BUDGET, callback=_kill_at(1))
        ck = RunCheckpoint.load(path)
        other = TuningProblem(
            Space([Integer("t", 0, 10)]),
            Space([Real("x", 0.0, 1.0)]),
            _objective,
            name="other-problem",
        )
        with pytest.raises(ValueError, match="checkpoint"):
            GPTune(other, _options()).resume(ck)


def _duration(task, cfg):
    """Deterministic heavy-ish virtual durations: longer for larger x/task."""
    return 1.0 + 3.0 * float(cfg["x"]) + 2.0 * float(task)


def _async_options(**kw):
    base = dict(async_eval=True, max_inflight=3)
    base.update(kw)
    return _options(**base)


def _async_run(shuffle_seed=None, **kw):
    sched = SimScheduler(_duration, clock=SimClock(), shuffle_seed=shuffle_seed)
    return GPTune(_problem(), _async_options(**kw), scheduler=sched).tune(TASKS, BUDGET)


class TestAsyncDeterminism:
    @pytest.fixture(scope="class")
    def async_result(self):
        return _async_run()

    def test_async_is_reproducible(self, async_result):
        _assert_same_data(async_result, _async_run())

    def test_completion_order_shuffle_is_invisible(self, async_result):
        """Shuffling each drain batch (a stand-in for OS completion races)
        cannot change the campaign: the engine re-sorts by sequence id."""
        _assert_same_data(async_result, _async_run(shuffle_seed=123))
        _assert_same_data(async_result, _async_run(shuffle_seed=987654321))

    def test_exact_budget_no_duplicates(self, async_result):
        for i in range(len(TASKS)):
            assert async_result.data.n_samples(i) == BUDGET
            keys = [tuple(sorted(d.items())) for d in async_result.data.X[i]]
            assert len(keys) == len(set(keys))


class TestAsyncKillResume:
    @pytest.mark.parametrize("k", [2, 4])
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, k):
        ref = _async_run()
        path = str(tmp_path / "async.ck.json")
        tuner = GPTune(
            _problem(),
            _async_options(checkpoint_path=path),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        with pytest.raises(_Kill):
            tuner.tune(TASKS, BUDGET, callback=_kill_at(k))
        ck = RunCheckpoint.load(path)
        assert ck.pending, "async checkpoint must carry the in-flight set"
        assert all(e["eta"] is not None for e in ck.pending)

        # the resumed campaign gets a *fresh* scheduler and clock: relative
        # completion times survive via the checkpointed etas
        fresh = GPTune(
            _problem(),
            _async_options(checkpoint_path=path),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        resumed = fresh.resume(path)
        _assert_same_data(ref, resumed)
        assert len(resumed.events.of_kind("resume")) == 1

    def test_lockstep_resume_of_async_checkpoint_resubmits_pending(self, tmp_path):
        """The barrier policy resumes a streaming checkpoint: its first
        round drains the resubmitted in-flight set (queued behind a smaller
        ``max_inflight``), so no evaluation is lost, and the campaign still
        ends at exactly the budget."""
        path = str(tmp_path / "async.ck.json")
        tuner = GPTune(
            _problem(),
            _async_options(checkpoint_path=path),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        with pytest.raises(_Kill):
            tuner.tune(TASKS, BUDGET, callback=_kill_at(2))
        ck = RunCheckpoint.load(path)
        assert len(ck.pending) > 1
        resumed = GPTune(_problem(), _options(max_inflight=1)).resume(path)
        keys = [{tuple(sorted(x.items())) for x in xs} for xs in resumed.data.X]
        for entry in ck.pending:
            assert tuple(sorted(entry["x"].items())) in keys[entry["task"]]
        for i in range(len(TASKS)):
            assert resumed.data.X[i][: len(ck.X[i])] == ck.X[i]
            assert resumed.data.n_samples(i) == BUDGET
            assert len(keys[i]) == BUDGET

    def test_queued_pending_survive_a_second_kill(self, tmp_path):
        """Resumed under a smaller ``max_inflight``, the pending set waits in
        the queue; checkpoints written meanwhile still carry the queued
        entries, so a second kill loses none of them."""
        path = str(tmp_path / "async-queue.ck.json")

        def tuner(**kw):
            return GPTune(
                _problem(),
                _async_options(checkpoint_path=path, **kw),
                scheduler=SimScheduler(_duration, clock=SimClock()),
            )

        with pytest.raises(_Kill):
            tuner().tune(TASKS, BUDGET, callback=_kill_at(2))
        first = RunCheckpoint.load(path)
        assert len(first.pending) > 1
        with pytest.raises(_Kill):
            tuner(max_inflight=1).resume(path, callback=_kill_at(3))
        second = RunCheckpoint.load(path)
        assert len(second.pending) == len(first.pending) - 1
        final = tuner(max_inflight=1).resume(path)
        for entry in first.pending:
            assert entry["x"] in final.data.X[entry["task"]]
        for i in range(len(TASKS)):
            assert final.data.n_samples(i) == BUDGET
            keys = [tuple(sorted(d.items())) for d in final.data.X[i]]
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("k", [2, 4])
    def test_kill_and_resume_with_refit_interval(self, tmp_path, k):
        """Posterior-extension campaigns resume bit-identically: the
        checkpoint carries each objective's warm θ/transform and the chunk
        boundaries of every extend applied since the last full fit."""
        ref = _async_run(refit_interval=3)
        path = str(tmp_path / "async-ri.ck.json")
        tuner = GPTune(
            _problem(),
            _async_options(checkpoint_path=path, refit_interval=3),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        with pytest.raises(_Kill):
            tuner.tune(TASKS, BUDGET, callback=_kill_at(k))
        ck = RunCheckpoint.load(path)
        assert ck.version == 2 and ck.modeling is not None

        fresh = GPTune(
            _problem(),
            _async_options(checkpoint_path=path, refit_interval=3),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        _assert_same_data(ref, fresh.resume(path))

    def test_kill_and_resume_with_warm_start(self, tmp_path):
        """Warm θ is checkpointed at refit_interval=1 too: the resumed
        campaign's first fit starts from the last fit's optimum, as the
        uninterrupted one does."""
        modeling = dict(refit_warm_start=True, n_start=3, max_inflight=2)
        budget = 10

        def tuner(**kw):
            return GPTune(
                _problem(),
                _async_options(**modeling, **kw),
                scheduler=SimScheduler(_duration, clock=SimClock()),
            )

        ref = tuner().tune(TASKS, budget)
        path = str(tmp_path / "async-warm.ck.json")
        with pytest.raises(_Kill):
            tuner(checkpoint_path=path).tune(TASKS, budget, callback=_kill_at(6))
        ck = RunCheckpoint.load(path)
        assert ck.version == 2 and ck.modeling["warm"]
        _assert_same_data(ref, tuner(checkpoint_path=path).resume(path))

    @pytest.mark.parametrize(
        "modeling, k",
        [
            ({"refit_interval": 3}, 7),
            ({"refit_warm_start": True, "n_start": 3, "max_inflight": 2}, 6),
        ],
        ids=["refit_interval", "warm_start"],
    )
    def test_kill_and_resume_gp_backend(self, tmp_path, modeling, k):
        """Streaming ``gp`` campaigns resume bit-identically too: the
        extend phases run on the per-task GPs, whose warm state the
        checkpoint carries."""
        modeling = dict(modeling, model_backend="gp")
        budget = 10

        def tuner(**kw):
            return GPTune(
                _problem(),
                _async_options(**modeling, **kw),
                scheduler=SimScheduler(_duration, clock=SimClock()),
            )

        ref = tuner().tune(TASKS, budget)
        path = str(tmp_path / "async-gp.ck.json")
        with pytest.raises(_Kill):
            tuner(checkpoint_path=path).tune(TASKS, budget, callback=_kill_at(k))
        ck = RunCheckpoint.load(path)
        assert ck.version == 2 and ck.modeling is not None
        _assert_same_data(ref, tuner(checkpoint_path=path).resume(path))

    @pytest.mark.parametrize("k", [2, 4])
    def test_kill_and_resume_multiobjective_with_models(self, tmp_path, k):
        """γ > 1 with performance models streams and resumes bit-identically:
        the featurizer state rides the checkpoint beside the in-flight set."""

        def tuner(**kw):
            return GPTune(
                _mo_problem(models=[_linear_model()]),
                _async_options(refit_interval=3, nsga_pop=12, nsga_gens=5, **kw),
                scheduler=SimScheduler(_duration, clock=SimClock()),
            )

        ref = tuner().tune(TASKS, BUDGET)
        path = str(tmp_path / "mo-model-async.ck.json")
        with pytest.raises(_Kill):
            tuner(checkpoint_path=path).tune(TASKS, BUDGET, callback=_kill_at(k))
        ck = RunCheckpoint.load(path)
        assert ck.pending and "featurizer" in ck.modeling
        _assert_same_data(ref, tuner(checkpoint_path=path).resume(path))


def _mo_objective(t, c):
    x = float(c["x"])
    return [
        (x - 0.35) ** 2 + 0.05 * np.sin(8.0 * x) + 0.01 * float(t["t"]),
        (x - 0.8) ** 2 + 0.02 * float(t["t"]),
    ]


def _mo_problem(models=None):
    return TuningProblem(
        Space([Integer("t", 0, 10)]),
        Space([Real("x", 0.0, 1.0)]),
        _mo_objective,
        n_objectives=2,
        models=models,
    )


def _mo_async_run(shuffle_seed=None, **kw):
    sched = SimScheduler(_duration, clock=SimClock(), shuffle_seed=shuffle_seed)
    return GPTune(_mo_problem(), _async_options(**kw), scheduler=sched).tune(
        TASKS, BUDGET
    )


class TestAsyncMultiObjective:
    """γ > 1 campaigns stream through the per-task NSGA-II path with the
    same determinism guarantees as the single-objective EI path."""

    @pytest.fixture(scope="class")
    def mo_result(self):
        return _mo_async_run()

    def test_streams_not_falls_back(self, mo_result):
        assert len(mo_result.events.of_kind("async-start")) == 1
        assert mo_result.events.of_kind("async-start")[0].fields["policy"] == "streaming"

    def test_same_seed_is_reproducible(self, mo_result):
        _assert_same_data(mo_result, _mo_async_run())

    def test_completion_order_shuffle_is_invisible(self, mo_result):
        _assert_same_data(mo_result, _mo_async_run(shuffle_seed=123))
        _assert_same_data(mo_result, _mo_async_run(shuffle_seed=987654321))

    def test_exact_budget_no_duplicates(self, mo_result):
        for i in range(len(TASKS)):
            assert mo_result.data.n_samples(i) == BUDGET
            keys = [tuple(sorted(d.items())) for d in mo_result.data.X[i]]
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("k", [2, 4])
    def test_kill_and_resume_with_refit_interval(self, tmp_path, k):
        ref = _mo_async_run(refit_interval=3)
        path = str(tmp_path / "mo-async.ck.json")
        tuner = GPTune(
            _mo_problem(),
            _async_options(checkpoint_path=path, refit_interval=3),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        with pytest.raises(_Kill):
            tuner.tune(TASKS, BUDGET, callback=_kill_at(k))
        fresh = GPTune(
            _mo_problem(),
            _async_options(checkpoint_path=path, refit_interval=3),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        _assert_same_data(ref, fresh.resume(path))


def _model_problem():
    return TuningProblem(
        Space([Integer("t", 0, 10)]),
        Space([Real("x", 0.0, 1.0)]),
        _objective,
        models=[_linear_model()],
    )


def _model_async_run(shuffle_seed=None, **kw):
    sched = SimScheduler(_duration, clock=SimClock(), shuffle_seed=shuffle_seed)
    return GPTune(_model_problem(), _async_options(**kw), scheduler=sched).tune(
        TASKS, BUDGET
    )


class TestAsyncPerfModels:
    """Model-enriched campaigns stream: one persistent featurizer enriches
    training rows, candidates, and pending points, its state rides the
    checkpoint, and it is frozen during posterior-extension phases."""

    @pytest.fixture(scope="class")
    def model_result(self):
        return _model_async_run()

    def test_streams_not_falls_back(self, model_result):
        assert len(model_result.events.of_kind("async-start")) == 1
        assert model_result.events.of_kind("async-start")[0].fields["policy"] == "streaming"

    def test_same_seed_is_reproducible(self, model_result):
        _assert_same_data(model_result, _model_async_run())

    def test_completion_order_shuffle_is_invisible(self, model_result):
        _assert_same_data(model_result, _model_async_run(shuffle_seed=4321))

    @pytest.mark.parametrize("k", [2, 4])
    def test_kill_and_resume_with_refit_interval(self, tmp_path, k):
        """The hardest resume: featurizer hyperparameters + normalization
        range AND the warm posterior must both come back bit-identical."""
        ref = _model_async_run(refit_interval=3)
        path = str(tmp_path / "model-async.ck.json")
        tuner = GPTune(
            _model_problem(),
            _async_options(checkpoint_path=path, refit_interval=3),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        with pytest.raises(_Kill):
            tuner.tune(TASKS, BUDGET, callback=_kill_at(k))
        ck = RunCheckpoint.load(path)
        assert ck.modeling is not None and "featurizer" in ck.modeling
        fresh = GPTune(
            _model_problem(),
            _async_options(checkpoint_path=path, refit_interval=3),
            scheduler=SimScheduler(_duration, clock=SimClock()),
        )
        _assert_same_data(ref, fresh.resume(path))


class TestAsyncPendingPenalty:
    """The ``"lp"`` and ``"none"`` pending-point rules, γ = 1 and γ > 1."""

    @staticmethod
    def _run(penalty, gamma):
        problem = _problem() if gamma == 1 else _mo_problem()
        sched = SimScheduler(_duration, clock=SimClock())
        opts = _async_options(pending_penalty=penalty, nsga_pop=12, nsga_gens=5)
        return GPTune(problem, opts, scheduler=sched).tune(TASKS, BUDGET)

    @pytest.mark.parametrize("gamma", [1, 2])
    @pytest.mark.parametrize("penalty", ["lp", "none"])
    def test_reproducible_exact_budget_no_duplicates(self, penalty, gamma):
        res = self._run(penalty, gamma)
        _assert_same_data(res, self._run(penalty, gamma))
        for i in range(len(TASKS)):
            assert res.data.n_samples(i) == BUDGET
            keys = [tuple(sorted(d.items())) for d in res.data.X[i]]
            assert len(keys) == len(set(keys))


class TestAsyncRefitInterval:
    def test_async_refit_secs_is_reproducible(self):
        a = _async_run(async_refit_secs=4.0)
        _assert_same_data(a, _async_run(async_refit_secs=4.0))
        _assert_same_data(a, _async_run(async_refit_secs=4.0, shuffle_seed=99))

    def test_async_refit_secs_skips_modeling_phases(self):
        eager = _async_run()
        lazy = _async_run(async_refit_secs=8.0)
        n_fits = lambda r: len(r.events.of_kind("model-fit")) + len(
            r.events.of_kind("model-extend")
        )
        assert n_fits(lazy) < n_fits(eager)
        for i in range(len(TASKS)):
            assert lazy.data.n_samples(i) == BUDGET


class TestCliResume:
    def test_tune_then_resume_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "cli.ck.json")
        argv = [
            "tune", "--app", "analytical", "--random-tasks", "1",
            "--samples", "6", "--seed", "3", "--checkpoint", path,
        ]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert "Popt" in first and os.path.exists(path)

        assert cli.main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out and "Popt" in out

    def test_resume_requires_checkpoint_flag(self):
        with pytest.raises(SystemExit):
            cli.main(["tune", "--app", "analytical", "--resume"])

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main([
                "tune", "--app", "analytical", "--resume",
                "--checkpoint", str(tmp_path / "missing.json"),
            ])
