"""Straggler/fault battery for the asynchronous evaluation engine.

Four layers are exercised:

* engine invariants — the bounded in-flight cap is enforced, drain batches
  are published in submission-sequence order regardless of scheduler-side
  completion races, and the checkpoint snapshot reflects the in-flight set;
* scheduler faults — an evaluation that dies mid-flight becomes a penalty
  (``failure_value``) without stalling the queue, the retry ladder composes
  with the queue unchanged, and a killed process-pool worker triggers a
  rebuild + resubmission;
* streaming behaviour — a 50×-median straggler holds exactly one slot while
  every other task keeps completing, so the campaign makespan tracks the
  straggler, not the sum of all evaluations;
* ``run_all`` and pool lifetime — the map every pooled LCM fit runs its
  restart groups through (order, failure attribution, worker death), and
  the guarantee that a campaign's pools die with it.
"""

import concurrent.futures
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.core import GPTune, Integer, Options, Real, Space, TuningProblem
from repro.runtime.async_engine import (
    AsyncEvalEngine,
    CompletedEval,
    ProcessScheduler,
    SerialScheduler,
    SimScheduler,
    ThreadScheduler,
    WorkerError,
    make_scheduler,
    run_all,
)
from repro.runtime.simclock import SimClock

TASKS = [{"t": 1}, {"t": 4}]


def _objective(t, c):
    x = float(c["x"])
    return (x - 0.35) ** 2 + 0.05 * np.sin(8.0 * x) + 0.01 * float(t["t"])


def _problem(**kw):
    return TuningProblem(
        Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)]), _objective, **kw
    )


def _options(**kw):
    base = dict(
        seed=11,
        n_start=2,
        pso_iters=6,
        ei_candidates=10,
        lbfgs_maxiter=40,
        async_eval=True,
        max_inflight=3,
    )
    base.update(kw)
    return Options(**base)


def _assert_no_duplicates(res):
    """No config is ever evaluated twice for the same task."""
    for i in range(len(res.data.X)):
        keys = [tuple(sorted(d.items())) for d in res.data.X[i]]
        assert len(keys) == len(set(keys)), f"task {i} evaluated a config twice"


def _echo(payload):
    return payload


# -- engine invariants --------------------------------------------------------


class TestEngineInvariants:
    def test_submit_past_cap_raises(self):
        eng = AsyncEvalEngine(_echo, SerialScheduler(), max_inflight=2)
        eng.submit(0, {"x": 0.1})
        eng.submit(0, {"x": 0.2})
        assert not eng.can_submit
        with pytest.raises(RuntimeError, match="max_inflight"):
            eng.submit(0, {"x": 0.3})

    def test_max_inflight_validation(self):
        with pytest.raises(ValueError):
            AsyncEvalEngine(_echo, SerialScheduler(), max_inflight=0)

    def test_drain_publishes_in_sequence_order(self):
        # equal durations + seeded shuffle: the scheduler hands the batch
        # back in adversarial order, the engine must re-sort by seq
        sched = SimScheduler(lambda task, cfg: 1.0, shuffle_seed=7)
        eng = AsyncEvalEngine(_echo, sched, max_inflight=5)
        for k in range(5):
            eng.submit(0, {"x": k / 10.0})
        batch, _ = eng.drain()
        assert [ce.seq for ce in batch] == [0, 1, 2, 3, 4]
        assert all(isinstance(ce, CompletedEval) for ce in batch)
        assert [ce.config["x"] for ce in batch] == [0.0, 0.1, 0.2, 0.3, 0.4]

    def test_drain_with_nothing_inflight_is_empty(self):
        eng = AsyncEvalEngine(_echo, SerialScheduler(), max_inflight=2)
        assert eng.drain() == ([], 0.0)

    def test_counters_and_peak(self):
        sched = SimScheduler(lambda task, cfg: float(cfg["d"]))
        eng = AsyncEvalEngine(_echo, sched, max_inflight=3)
        eng.submit(0, {"d": 1.0})
        eng.submit(1, {"d": 2.0})
        eng.submit(0, {"d": 3.0})
        assert eng.peak_inflight == 3 and eng.submitted == 3
        batch, _ = eng.drain()  # only the d=1 evaluation lands
        assert len(batch) == 1 and eng.completed == 1 and eng.inflight == 2
        assert sorted(eng.inflight_tasks()) == [0, 1]

    def test_pending_snapshot_tracks_remaining_eta(self):
        sched = SimScheduler(lambda task, cfg: float(cfg["d"]))
        eng = AsyncEvalEngine(_echo, sched, max_inflight=3)
        eng.submit(0, {"d": 1.0})
        eng.submit(1, {"d": 5.0})
        eng.drain()  # advances virtual time to t=1
        snap = eng.pending_snapshot()
        assert len(snap) == 1
        seq, task, cfg, eta = snap[0]
        assert task == 1 and cfg == {"d": 5.0} and eta == pytest.approx(4.0)

    @pytest.mark.parametrize("make", [SerialScheduler, lambda: ThreadScheduler(1)],
                             ids=["serial", "thread"])
    def test_real_schedulers_snapshot_without_eta(self, make):
        # a checkpoint taken mid-flight on a real scheduler carries no eta
        eng = AsyncEvalEngine(_echo, make(), max_inflight=2)
        try:
            eng.submit(0, {"x": 0.1})
            eng.submit(1, {"x": 0.2})
            snap = eng.pending_snapshot()
            assert [(seq, task, eta) for seq, task, _, eta in snap] == [(0, 0, None), (1, 1, None)]
        finally:
            eng.shutdown()

    def test_resubmitted_eta_overrides_duration(self):
        # resume path: a checkpointed eta must win over duration(task, cfg)
        sched = SimScheduler(lambda task, cfg: 100.0)
        eng = AsyncEvalEngine(_echo, sched, max_inflight=2)
        eng.submit(0, {"x": 0.5}, eta=2.0)
        assert sched.remaining(0) == pytest.approx(2.0)


class TestSchedulers:
    def test_make_scheduler_types(self):
        assert isinstance(make_scheduler("serial"), SerialScheduler)
        assert isinstance(make_scheduler("thread", 2), ThreadScheduler)
        assert isinstance(make_scheduler("process", 2), ProcessScheduler)

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_scheduler("quantum")

    def test_wait_with_nothing_inflight_raises(self):
        for sched in (SerialScheduler(), SimScheduler(lambda t, c: 1.0)):
            with pytest.raises(RuntimeError):
                sched.wait()

    def test_serial_scheduler_wraps_failures(self):
        def boom(payload):
            raise RuntimeError("dead")

        eng = AsyncEvalEngine(boom, SerialScheduler(), max_inflight=1)
        with pytest.raises(WorkerError, match="evaluation 0 failed"):
            eng.submit(0, {"x": 0.1})

    def test_thread_scheduler_streams_stragglers(self):
        import time as _time

        def work(payload):
            _time.sleep(payload[1]["d"])
            return payload[0]

        sched = ThreadScheduler(n_workers=3)
        eng = AsyncEvalEngine(work, sched, max_inflight=3)
        try:
            eng.submit(0, {"d": 0.5})  # the straggler
            eng.submit(1, {"d": 0.01})
            eng.submit(2, {"d": 0.01})
            fast, _ = eng.drain()
            # both quick evaluations land while the straggler is in flight
            assert {ce.task for ce in fast} <= {1, 2} and eng.inflight >= 1
            while eng.inflight:
                eng.drain()
            assert eng.completed == 3
        finally:
            eng.shutdown()

    def test_thread_scheduler_wraps_worker_exception(self):
        def boom(payload):
            raise ValueError("exploded")

        sched = ThreadScheduler(n_workers=1)
        eng = AsyncEvalEngine(boom, sched, max_inflight=1)
        try:
            eng.submit(0, {"x": 0.1})
            with pytest.raises(WorkerError, match="evaluation 0 failed"):
                eng.drain()
        finally:
            eng.shutdown()


# -- process-pool worker death ------------------------------------------------


def _die_once(payload):
    """Kill the worker process on the first attempt, succeed on the second.

    The marker file records that the first attempt happened, so the
    resubmission (on the rebuilt pool) takes the surviving branch.
    Module-level so it pickles into the process pool.
    """
    task, cfg = payload
    marker = cfg["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return task * 10


class TestProcessWorkerDeath:
    def test_killed_worker_is_resubmitted(self, tmp_path):
        events = []
        sched = ProcessScheduler(
            n_workers=2, on_event=lambda kind, detail: events.append(kind)
        )
        eng = AsyncEvalEngine(_die_once, sched, max_inflight=2)
        try:
            eng.submit(0, {"marker": str(tmp_path / "m0")})
            eng.submit(1, {"marker": str(tmp_path / "m1")})
            results = {}
            while eng.inflight:
                batch, _ = eng.drain()
                results.update({ce.task: ce.outcome for ce in batch})
            assert results == {0: 0, 1: 10}
            assert "worker-death" in events
        finally:
            eng.shutdown()

    def test_gives_up_after_max_restarts(self):
        sched = ProcessScheduler(n_workers=1, max_pool_restarts=0)
        eng = AsyncEvalEngine(_crash_forever, sched, max_inflight=1)
        try:
            eng.submit(0, {"x": 0.0})
            with pytest.raises(WorkerError, match="worker died"):
                eng.drain()
        finally:
            eng.shutdown()


def _crash_forever(payload):
    """A worker that always dies — exhausts the pool-restart budget."""
    os._exit(1)


# -- run_all: the map every LCM restart-group fit goes through ---------------


def _square(x):
    return x * x


def _fail_on_three(item):
    """Raise for value 3 after sleeping ``delay`` (so a later failing item
    can finish first)."""
    value, delay = item
    time.sleep(delay)
    if value == 3:
        raise ValueError("bad three")
    return value * 10


def _die_once_item(item):
    """Kill the worker on the first item to find no marker; module-level so
    it pickles into the process pool."""
    marker, value = item
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return value * 2


SCHEDULERS = [
    pytest.param(SerialScheduler, id="serial"),
    pytest.param(lambda: ThreadScheduler(2), id="thread"),
    pytest.param(lambda: ProcessScheduler(2), id="process"),
]


class TestRunAll:
    @pytest.mark.parametrize("make", SCHEDULERS)
    def test_order_preserved(self, make):
        sched = make()
        try:
            assert run_all(sched, _square, list(range(10))) == [i * i for i in range(10)]
        finally:
            sched.shutdown()

    @pytest.mark.parametrize("make", SCHEDULERS)
    def test_lowest_failing_index_surfaces(self, make):
        # item 3 fails first on a pool; item 1 fails later but ranks first
        sched = make()
        try:
            with pytest.raises(WorkerError) as ei:
                run_all(sched, _fail_on_three, [(1, 0.0), (3, 0.3), (2, 0.0), (3, 0.0)])
            assert ei.value.index == 1
            assert isinstance(ei.value.__cause__, ValueError)
            assert "bad three" in str(ei.value.__cause__)
        finally:
            sched.shutdown()

    @pytest.mark.parametrize("make", SCHEDULERS)
    def test_failed_map_drains_and_scheduler_serves_next_map(self, make):
        sched = make()
        try:
            with pytest.raises(WorkerError):
                run_all(sched, _fail_on_three, [(3, 0.0), (1, 0.2), (2, 0.0)])
            with pytest.raises(RuntimeError, match="nothing in flight"):
                sched.wait()
            assert run_all(sched, _square, [4, 5]) == [16, 25]
        finally:
            sched.shutdown()

    def test_worker_count_validation(self):
        for cls in (ThreadScheduler, ProcessScheduler):
            with pytest.raises(ValueError):
                cls(0)

    def test_start_after_shutdown_raises(self):
        sched = ThreadScheduler(1)
        sched.shutdown()
        with pytest.raises(RuntimeError):
            run_all(sched, _square, [1])

    def test_lost_items_resubmitted_on_fresh_pool(self, tmp_path):
        events = []
        marker = str(tmp_path / "died")
        sched = ProcessScheduler(1, on_event=lambda kind, detail: events.append(kind))
        try:
            out = run_all(sched, _die_once_item, [(marker, 1), (marker, 2), (marker, 3)])
            assert out == [2, 4, 6]
            assert "worker-death" in events
        finally:
            sched.shutdown()

    def test_poison_item_exhausts_restarts(self):
        sched = ProcessScheduler(1, max_pool_restarts=1)
        try:
            with pytest.raises(WorkerError, match="giving up") as ei:
                run_all(sched, _crash_forever, [0])
            assert ei.value.index == 0
            assert isinstance(ei.value.__cause__, concurrent.futures.BrokenExecutor)
            # giving up rebuilt the pool, so the scheduler still serves
            assert run_all(sched, _square, [3]) == [9]
        finally:
            sched.shutdown()


def _fail_init():
    raise RuntimeError("initializer failed")


class _BrokenThreadScheduler(ThreadScheduler):
    """A thread pool that breaks on first use (its initializer raises)."""

    def _make_pool(self):
        return concurrent.futures.ThreadPoolExecutor(1, initializer=_fail_init)


class TestBrokenThreadPool:
    def test_every_item_fails_loudly_and_the_map_ends(self):
        sched = _BrokenThreadScheduler(1)
        try:
            with pytest.raises(WorkerError, match="thread pool broken") as ei:
                run_all(sched, _square, [1, 2, 3])
            assert ei.value.index == 0
            assert isinstance(ei.value.__cause__, concurrent.futures.BrokenExecutor)
            with pytest.raises(RuntimeError, match="nothing in flight"):
                sched.wait()
        finally:
            sched.shutdown()


class TestPoolLifetime:
    @pytest.mark.parametrize("cls", [ThreadScheduler, ProcessScheduler])
    def test_drained_work_is_not_retained(self, cls):
        """Only outstanding work is held: every drained evaluation's
        callable and payload are released."""
        sched = cls(2)
        eng = AsyncEvalEngine(_echo, sched, max_inflight=3)
        try:
            for k in range(8):
                if not eng.can_submit:
                    eng.drain()
                eng.submit(k, {"x": k / 8.0})
            while eng.inflight:
                eng.drain()
            assert eng.completed == 8
            assert sched._items == {} and sched._futures == {}
        finally:
            eng.shutdown()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_campaign_releases_its_workers(self, backend):
        """A pooled campaign shuts down both of its pools, the evaluation
        scheduler and the one its fits run on, even while the tuner stays
        referenced."""
        threads = set(threading.enumerate())
        children = set(multiprocessing.active_children())

        def spawned():
            return ([t for t in threading.enumerate() if t not in threads],
                    [p for p in multiprocessing.active_children() if p not in children])

        opts = _options(async_eval=False, backend=backend, n_workers=2)
        tuners = [GPTune(_problem(), opts.replace(seed=seed)) for seed in (0, 1)]
        for tuner in tuners:
            res = tuner.tune(TASKS, 5)
            assert tuner.events.of_kind("model-fit")
            # returned models keep no handle on the shut-down pool
            assert res.models and all(m.executor is None for m in res.models)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and spawned() != ([], []):
            time.sleep(0.05)
        assert spawned() == ([], [])


# -- streaming campaigns under faults ----------------------------------------


class _StragglerDuration:
    """Virtual durations with one 50×-median straggler.

    Every evaluation takes 2 virtual seconds except the first task-0
    evaluation, which takes 100 (50× the median).
    """

    def __init__(self, straggler=100.0, base=2.0):
        self.straggler = float(straggler)
        self.base = float(base)
        self.calls = 0

    def __call__(self, task, cfg):
        if task == 0:
            self.calls += 1
            if self.calls == 1:
                return self.straggler
        return self.base


class TestStragglerCampaign:
    BUDGET = 6

    def _run(self, problem=None, duration=None, **kw):
        clock = SimClock()
        duration = duration if duration is not None else _StragglerDuration()
        sched = SimScheduler(duration, clock=clock)
        tuner = GPTune(problem or _problem(), _options(**kw), scheduler=sched)
        return tuner.tune(TASKS, self.BUDGET), clock

    def test_straggler_holds_one_slot_not_the_campaign(self):
        res, clock = self._run()
        for i in range(len(TASKS)):
            assert res.data.n_samples(i) == self.BUDGET
        _assert_no_duplicates(res)
        # the straggler bounds the makespan: the campaign cannot finish
        # before it lands, but everything else overlapped it.  Serial
        # execution of the same work would take 100 + 2*(2*BUDGET-1) = 122;
        # streaming finishes within a couple of rounds of the straggler.
        n_evals = sum(res.data.n_samples(i) for i in range(len(TASKS)))
        serial_makespan = 100.0 + 2.0 * (n_evals - 1)
        assert 100.0 <= clock.now <= 110.0 < serial_makespan

    def test_other_tasks_stream_past_the_straggler(self):
        res, _clock = self._run()
        # task 1 reaches its full budget strictly before the straggler
        # lands: every absorb round is an async-drain event, and task-1
        # completions keep arriving while the straggler is in flight
        drains = res.events.of_kind("async-drain")
        assert len(drains) >= 3  # streamed in many small rounds, no barrier
        stop = res.events.of_kind("async-stop")[0]
        assert stop.fields["completed"] == 2 * self.BUDGET

    def test_max_inflight_never_exceeded(self):
        res, _clock = self._run(max_inflight=3)
        stop = res.events.of_kind("async-stop")[0]
        assert 1 <= stop.fields["peak_inflight"] <= 3
        # every drain observed the cap too
        for ev in res.events.of_kind("async-drain"):
            assert ev.fields["inflight"] <= 3

    def test_straggler_dies_mid_eval(self):
        # the straggler crashes instead of finishing: with failure_value it
        # becomes a penalty observation and the campaign still completes
        def obj(t, c):
            if float(c["x"]) > 0.8:
                raise RuntimeError("node died mid-evaluation")
            return _objective(t, c)

        problem = TuningProblem(
            Space([Integer("t", 0, 10)]),
            Space([Real("x", 0.0, 1.0)]),
            obj,
            failure_value=100.0,
        )
        res, _clock = self._run(problem=problem)
        for i in range(len(TASKS)):
            assert res.data.n_samples(i) == self.BUDGET
        _assert_no_duplicates(res)
        ys = [y[0] for i in range(len(TASKS)) for y in res.data.Y[i]]
        assert all(np.isfinite(v) for v in ys)
        best = min(res.best(i)[1] for i in range(len(TASKS)))
        assert best < 100.0  # the tuner found real observations too

    def test_retry_ladder_composes_with_queue(self):
        # first attempt on every config fails; retry_attempts=2 makes the
        # second succeed — inside the scheduler, through the same queue
        attempts = {}

        def obj(t, c):
            key = (float(t["t"]), round(float(c["x"]), 9))
            attempts[key] = attempts.get(key, 0) + 1
            if attempts[key] == 1:
                raise RuntimeError("transient fault")
            return _objective(t, c)

        problem = TuningProblem(
            Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)]), obj
        )
        res, _clock = self._run(
            problem=problem, retry_attempts=2, retry_backoff=0.0
        )
        for i in range(len(TASKS)):
            assert res.data.n_samples(i) == self.BUDGET
        assert res.stats["n_retries"] >= 2 * self.BUDGET  # one retry per eval
        # per-attempt events surface in the campaign log via _record
        assert len(res.events.of_kind("retry")) >= 2 * self.BUDGET
        assert len(res.events.of_kind("exception")) >= 2 * self.BUDGET

    def test_campaign_without_scheduler_injection(self):
        # default path: make_scheduler builds from options.backend
        res = GPTune(_problem(), _options(backend="serial")).tune(TASKS, 4)
        for i in range(len(TASKS)):
            assert res.data.n_samples(i) == 4
        _assert_no_duplicates(res)
        start = res.events.of_kind("async-start")[0]
        assert start.fields["scheduler"] == "SerialScheduler"

    def test_multiobjective_streams(self):
        # γ > 1 used to silently fall back to lockstep; it now streams
        # through the per-task NSGA-II path
        problem = TuningProblem(
            Space([Integer("t", 0, 10)]),
            Space([Real("x", 0.0, 1.0)]),
            lambda t, c: [c["x"], 1.0 - c["x"]],
            n_objectives=2,
        )
        res = GPTune(problem, _options()).tune([{"t": 1}], 6)
        assert res.events.of_kind("async-start")[0].fields["policy"] == "streaming"
        assert len(res.events.of_kind("async-start")) == 1
        assert res.data.n_samples(0) >= 6
        _assert_no_duplicates(res)

    def test_perf_model_campaign_streams(self):
        # performance models used to force lockstep; enrichment is now
        # threaded through the async fit/extend path
        problem = _problem(models=[lambda t, c: float(t["t"]) * float(c["x"])])
        res = GPTune(problem, _options()).tune(TASKS, 6)
        assert res.events.of_kind("async-start")[0].fields["policy"] == "streaming"
        assert len(res.events.of_kind("async-start")) == 1
        for i in range(len(TASKS)):
            assert res.data.n_samples(i) == 6
        _assert_no_duplicates(res)

    def test_multiobjective_perf_model_campaign_streams(self):
        # γ > 1 with performance models used to be the one shape that could
        # not stream; the campaign's featurizer now enriches the NSGA-II
        # candidates and the constant-liar rows too
        problem = TuningProblem(
            Space([Integer("t", 0, 10)]),
            Space([Real("x", 0.0, 1.0)]),
            lambda t, c: [c["x"], 1.0 - c["x"] + 0.01 * t["t"]],
            n_objectives=2,
            models=[lambda t, c: float(c["x"])],
        )

        def run(shuffle_seed=None):
            sched = SimScheduler(
                # integer durations: drains often hold several completions
                lambda i, c: float(1 + i + int(3.0 * float(c["x"]))),
                clock=SimClock(),
                shuffle_seed=shuffle_seed,
            )
            opts = _options(nsga_pop=12, nsga_gens=5)
            return GPTune(problem, opts, scheduler=sched).tune(TASKS, 6)

        res = run()
        assert res.events.of_kind("async-start")[0].fields["policy"] == "streaming"
        for i in range(len(TASKS)):
            assert res.data.n_samples(i) == 6
        _assert_no_duplicates(res)
        for other in (run(), run(shuffle_seed=7)):
            assert other.data.to_records() == res.data.to_records()
