"""Failure-injection tests for the resilience subsystem.

Covers the matrix (exception / NaN / timeout / worker death) ×
(retry succeeds / retries exhausted → penalty), backoff-schedule determinism
under a fixed seed, checkpoint persistence, and the model degradation ladder
(LCM → per-task GP → random search).
"""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest
from scipy import linalg as sla

from repro.apps.analytical import analytical_function
from repro.core import (
    GPTune,
    Integer,
    Options,
    PerTaskGP,
    Real,
    RetryPolicy,
    RunCheckpoint,
    Space,
    TuningData,
    TuningProblem,
)
from repro.runtime.resilience import (
    EvalTimeoutError,
    FatalEvaluationError,
    atomic_write_json,
    run_with_retries,
)

FAST = Options(seed=0, n_start=1, pso_iters=6, ei_candidates=10, lbfgs_maxiter=40)


def _spaces():
    return Space([Integer("t", 0, 10)]), Space([Real("x", 0.0, 1.0)])


class _FlakyObjective:
    """Fails the first ``fail_times`` calls per distinct config, then works."""

    def __init__(self, kind, fail_times=1):
        self.kind = kind
        self.fail_times = fail_times
        self.calls = {}

    def __call__(self, t, c):
        key = round(float(c["x"]), 9)
        n = self.calls.get(key, 0)
        self.calls[key] = n + 1
        if n < self.fail_times:
            if self.kind == "exception":
                raise RuntimeError("application crashed")
            if self.kind == "nan":
                return float("nan")
            if self.kind == "timeout":
                time.sleep(0.3)
        return (float(c["x"]) - 0.4) ** 2


class _WorkerKiller:
    """Kills the first worker process that evaluates it (never the parent)."""

    def __init__(self, marker, parent_pid):
        self.marker = marker
        self.parent_pid = parent_pid

    def __call__(self, t, c):
        if os.getpid() != self.parent_pid and not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return (float(c["x"]) - 0.4) ** 2


class TestRetryPolicy:
    def test_exponential_schedule(self):
        p = RetryPolicy(max_attempts=4, backoff=0.1, backoff_factor=2.0)
        assert p.schedule(3) == pytest.approx([0.1, 0.2, 0.4])

    def test_no_backoff_by_default(self):
        assert RetryPolicy(max_attempts=3).schedule(2) == [0.0, 0.0]

    def test_jitter_deterministic_under_fixed_seed(self):
        a = RetryPolicy(max_attempts=3, backoff=0.1, jitter=0.5, seed=42)
        b = RetryPolicy(max_attempts=3, backoff=0.1, jitter=0.5, seed=42)
        c = RetryPolicy(max_attempts=3, backoff=0.1, jitter=0.5, seed=43)
        assert a.schedule(5) == b.schedule(5)
        assert a.schedule(5) != c.schedule(5)

    def test_jitter_bounds(self):
        p = RetryPolicy(max_attempts=2, backoff=0.2, backoff_factor=1.0, jitter=0.5, seed=1)
        for attempt, d in enumerate(p.schedule(4), start=1):
            assert 0.2 <= d <= 0.2 * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestRunWithRetries:
    def test_success_first_try(self):
        out = run_with_retries(lambda: [1.0])
        assert not out.failed
        assert out.attempts == 1
        assert out.events == []

    def test_flaky_call_recovers(self):
        state = {"n": 0}

        def call():
            state["n"] += 1
            if state["n"] < 3:
                raise OSError("flaky")
            return [2.5]

        slept = []
        policy = RetryPolicy(max_attempts=3, backoff=0.01)
        out = run_with_retries(call, policy, sleep=slept.append)
        assert not out.failed and out.attempts == 3
        assert out.value[0] == 2.5
        assert [k for k, _ in out.events] == ["exception", "retry", "exception", "retry"]
        assert slept == pytest.approx(policy.schedule(2))

    def test_exhausted_keeps_last_error(self):
        def call():
            raise RuntimeError("persistent")

        out = run_with_retries(call, RetryPolicy(max_attempts=2))
        assert out.failed and out.failure_kind == "exception"
        assert isinstance(out.error, RuntimeError)
        assert out.value is None
        assert [k for k, _ in out.events] == [
            "exception", "retry", "exception", "eval-failure",
        ]
        # each per-attempt record names what that attempt raised
        assert all(
            "RuntimeError: persistent" in d for k, d in out.events if k == "exception"
        )

    def test_nonfinite_is_retryable(self):
        state = {"n": 0}

        def call():
            state["n"] += 1
            return [float("inf")] if state["n"] == 1 else [1.0]

        out = run_with_retries(call, RetryPolicy(max_attempts=2))
        assert not out.failed and out.attempts == 2

    def test_timeout_kind(self):
        out = run_with_retries(
            lambda: time.sleep(0.5) or [1.0], RetryPolicy(max_attempts=1, timeout=0.05)
        )
        assert out.failed and out.failure_kind == "timeout"

    def test_timeout_event_sequence_pinned(self):
        out = run_with_retries(
            lambda: time.sleep(0.2) or [1.0], RetryPolicy(max_attempts=2, timeout=0.02)
        )
        assert out.failed and out.failure_kind == "timeout"
        assert [k for k, _ in out.events] == [
            "timeout", "retry", "timeout", "eval-failure",
        ]

    def test_nonfinite_event_sequence_pinned(self):
        out = run_with_retries(lambda: [float("nan")], RetryPolicy(max_attempts=2))
        assert out.failed and out.failure_kind == "nonfinite"
        assert [k for k, _ in out.events] == [
            "nonfinite", "retry", "nonfinite", "eval-failure",
        ]


class TestEvalWorkerPool:
    """The shared timed-evaluation worker pool (the zombie-thread fix)."""

    def test_timed_out_workers_are_reused_not_leaked(self):
        """50 simulated timeouts must not grow the worker population.

        Each objective outlives its timeout but *does* finish; the abandoned
        worker must then rejoin the pool and serve the next evaluation.  The
        old fresh-executor-per-evaluation design spawned one thread per
        timeout here.
        """
        import threading

        from repro.runtime.resilience import _EVAL_POOL

        created_before = _EVAL_POOL.created
        policy = RetryPolicy(max_attempts=1, timeout=0.002)
        for _ in range(50):
            out = run_with_retries(lambda: time.sleep(0.02) or [1.0], policy)
            assert out.failed and out.failure_kind == "timeout"
            time.sleep(0.025)  # let the abandoned objective finish + worker park
        # a couple of workers at most — not one per timeout
        assert _EVAL_POOL.created - created_before <= 3
        live = [
            t for t in threading.enumerate()
            if t.name.startswith("repro-eval-worker")
        ]
        assert len(live) <= _EVAL_POOL.max_idle + 1
        assert all(t.daemon for t in live)

    def test_surplus_idle_workers_retire(self):
        """Past ``max_idle`` parked workers, a released worker exits."""
        import threading

        from repro.runtime.resilience import _EvalWorkerPool

        pool = _EvalWorkerPool(max_idle=1)
        gate = threading.Event()
        out = []
        callers = [
            threading.Thread(target=lambda: out.append(pool.run(gate.wait, timeout=5.0)))
            for _ in range(2)
        ]
        for t in callers:
            t.start()
        deadline = time.monotonic() + 5.0
        while pool.created < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        gate.set()
        for t in callers:
            t.join(5.0)
        assert out == [True, True] and pool.created == 2
        assert pool.idle_count() == 1
        parked = pool._idle[0]
        deadline = time.monotonic() + 5.0
        workers = lambda: [
            t for t in threading.enumerate()
            if t.name.startswith("repro-eval-worker") and t is not parked
            and getattr(t, "_pool", None) is pool
        ]
        while workers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert workers() == []

    def test_worker_result_after_timeout_is_discarded(self):
        calls = []

        def obj():
            calls.append(1)
            time.sleep(0.03)
            return [7.0]

        out = run_with_retries(obj, RetryPolicy(max_attempts=1, timeout=0.005))
        assert out.failed and out.value is None
        time.sleep(0.05)  # the background completion must not resurface
        assert out.value is None and len(calls) == 1

    def test_objective_raising_timeouterror_propagates_as_is(self):
        def obj():
            raise TimeoutError("from inside the objective")

        out = run_with_retries(obj, RetryPolicy(max_attempts=1, timeout=5.0))
        # classified as the objective's own failure, not an eval timeout
        assert out.failed
        assert "from inside the objective" in out.message

    def test_fatal_error_never_retried(self):
        state = {"n": 0}

        def call():
            state["n"] += 1
            raise FatalEvaluationError("wrong shape")

        with pytest.raises(FatalEvaluationError):
            run_with_retries(call, RetryPolicy(max_attempts=5))
        assert state["n"] == 1


class TestFailureMatrix:
    """(exception / NaN / timeout) × (retry succeeds / retries exhausted)."""

    KINDS = [("exception", "exception"), ("nan", "nonfinite"), ("timeout", "timeout")]

    @pytest.mark.parametrize("kind,expected", KINDS)
    def test_retry_succeeds(self, kind, expected):
        ts, ps = _spaces()
        obj = _FlakyObjective(kind, fail_times=1)
        prob = TuningProblem(ts, ps, obj, failure_value=100.0)
        policy = RetryPolicy(max_attempts=2, timeout=0.05 if kind == "timeout" else None)
        out = prob.evaluate_outcome({"t": 1}, {"x": 0.5}, retry=policy)
        assert not out.failed
        assert out.attempts == 2
        assert out.value[0] == pytest.approx((0.5 - 0.4) ** 2)
        assert prob.n_failures == 0
        assert any(k == "retry" for k, _ in out.events)

    @pytest.mark.parametrize("kind,expected", KINDS)
    def test_retries_exhausted_becomes_penalty(self, kind, expected):
        ts, ps = _spaces()
        obj = _FlakyObjective(kind, fail_times=10)
        prob = TuningProblem(ts, ps, obj, failure_value=100.0)
        policy = RetryPolicy(max_attempts=2, timeout=0.05 if kind == "timeout" else None)
        out = prob.evaluate_outcome({"t": 1}, {"x": 0.5}, retry=policy)
        assert out.failed and out.failure_kind == expected
        assert out.value[0] == 100.0
        assert prob.n_failures == 1
        assert any(k == "eval-failure" for k, _ in out.events)

    def test_exhausted_without_failure_value_reraises(self):
        ts, ps = _spaces()
        prob = TuningProblem(ts, ps, _FlakyObjective("exception", fail_times=10))
        with pytest.raises(RuntimeError, match="application crashed"):
            prob.evaluate_outcome({"t": 1}, {"x": 0.5}, retry=RetryPolicy(max_attempts=2))

    def test_timeout_without_failure_value_raises_timeout(self):
        ts, ps = _spaces()
        prob = TuningProblem(ts, ps, _FlakyObjective("timeout", fail_times=10))
        with pytest.raises(EvalTimeoutError):
            prob.evaluate_outcome(
                {"t": 1}, {"x": 0.5}, retry=RetryPolicy(max_attempts=1, timeout=0.05)
            )

    def test_worker_death_during_tuning(self, tmp_path):
        """A killed evaluation worker is replaced and the campaign finishes."""
        ts, ps = _spaces()
        obj = _WorkerKiller(str(tmp_path / "died"), os.getpid())
        prob = TuningProblem(ts, ps, obj, failure_value=100.0)
        opts = FAST.replace(backend="process", n_workers=2, batch_evals=2)
        res = GPTune(prob, opts).tune([{"t": 1}], 8)
        assert res.data.n_samples(0) >= 8
        assert len(res.events.of_kind("worker-death")) >= 1


class TestTunerRetryIntegration:
    def test_retries_counted_in_stats_and_trace(self):
        ts, ps = _spaces()
        obj = _FlakyObjective("exception", fail_times=1)
        prob = TuningProblem(ts, ps, obj, failure_value=100.0)
        res = GPTune(prob, FAST.replace(retry_attempts=2)).tune([{"t": 1}], 8)
        assert res.data.n_samples(0) >= 8
        n_injected = sum(1 for v in obj.calls.values() if v > 1)
        assert res.stats["n_retries"] == n_injected
        assert len(res.events.of_kind("retry")) == n_injected
        # every transient failure recovered: no penalties in the data
        assert all(y[0] < 100.0 for y in res.data.Y[0])
        assert res.stats["n_eval_failures"] == 0


class _Transient30:
    """Deterministic transient failures on ~30% of first-time evaluations."""

    def __init__(self, rate=0.3):
        self.rate = rate
        self.seen = set()
        self.injected = 0

    def __call__(self, t, c):
        key = (round(float(t["t"]), 9), round(float(c["x"]), 9))
        first = key not in self.seen
        self.seen.add(key)
        u = np.random.default_rng(abs(hash(key)) % 2**32).random()
        if first and u < self.rate:
            self.injected += 1
            raise RuntimeError("transient crash")
        return float(analytical_function(t["t"], c["x"]))


class TestAcceptance:
    def test_30pct_failure_rate_with_2_attempt_retry_completes_budget(self):
        """Acceptance criterion: 30% injected failures, 2 attempts, full budget,
        and the trace records every retry."""
        ts = Space([Real("t", 0.0, 10.0)])
        ps = Space([Real("x", 0.0, 1.0)])
        obj = _Transient30(rate=0.3)
        prob = TuningProblem(ts, ps, obj, failure_value=1e3)
        opts = FAST.replace(seed=5, retry_attempts=2)
        res = GPTune(prob, opts).tune([{"t": 1.0}, {"t": 4.0}], 12)
        for i in range(2):
            assert res.data.n_samples(i) >= 12
        assert obj.injected > 0, "failure injection never triggered"
        assert len(res.events.of_kind("retry")) == obj.injected
        assert res.stats["n_retries"] == obj.injected
        # transient failures all recovered on the second attempt
        assert res.stats["n_eval_failures"] == 0
        assert all(y[0] < 1e3 for ys in res.data.Y for y in ys)


class TestCheckpointPersistence:
    def _checkpoint(self):
        return RunCheckpoint(
            problem="p",
            entropy=123,
            spawn_count=4,
            n_samples=10,
            tasks=[{"t": 1}],
            frozen=[],
            iteration=2,
            stats={"objective_time": 1.0},
            X=[[{"x": 0.5}]],
            Y=[[[0.25]]],
        )

    def test_roundtrip(self, tmp_path):
        p = str(tmp_path / "ck.json")
        ck = self._checkpoint()
        ck.save(p)
        loaded = RunCheckpoint.load(p)
        assert loaded == ck

    def test_version_derived_from_modeling(self):
        assert self._checkpoint().version == 1
        ck = self._checkpoint()
        ck.modeling = {"fit_iter": 1, "warm": {}}
        # version is set at construction time; save() serializes the field
        ck2 = RunCheckpoint(**{
            f.name: getattr(ck, f.name)
            for f in dataclasses.fields(RunCheckpoint)
            if f.name != "version"
        })
        assert ck2.version == 2

    def test_modeling_roundtrip_is_version_2(self, tmp_path):
        p = str(tmp_path / "ck.json")
        ck = self._checkpoint()
        ck.modeling = {
            "fit_iter": 5,
            "warm": {
                "0": {
                    "theta": [0.1, -0.2, 1.5],
                    "transform": {"kind": "log", "mean": 0.3, "std": 1.1},
                    "chunks": [[4], [6]],
                }
            },
            "featurizer": {"lo": [0.0], "hi": [2.0], "models": [None]},
        }
        ck.version = 2
        ck.save(p)
        loaded = RunCheckpoint.load(p)
        assert loaded.version == 2
        assert loaded.modeling == ck.modeling

    def test_version_1_file_without_modeling_still_loads(self, tmp_path):
        # a checkpoint written before the modeling field existed
        p = str(tmp_path / "ck.json")
        self._checkpoint().save(p)
        import json

        raw = json.load(open(p))
        assert raw["version"] == 1 and "modeling" not in raw
        loaded = RunCheckpoint.load(p)
        assert loaded.modeling is None and loaded.version == 1

    def test_unsupported_version_rejected(self, tmp_path):
        p = str(tmp_path / "ck.json")
        self._checkpoint().save(p)
        import json

        raw = json.load(open(p))
        raw["version"] = 99
        (tmp_path / "ck.json").write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="version 99"):
            RunCheckpoint.load(p)

    def test_no_tmp_leftovers(self, tmp_path):
        p = str(tmp_path / "ck.json")
        self._checkpoint().save(p)
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    def test_corrupted_checkpoint_names_path(self, tmp_path):
        p = tmp_path / "ck.json"
        p.write_text('{"problem": "p", "entr')
        with pytest.raises(ValueError, match="ck.json"):
            RunCheckpoint.load(str(p))

    def test_missing_fields_rejected(self, tmp_path):
        p = tmp_path / "ck.json"
        p.write_text('{"problem": "p"}')
        with pytest.raises(ValueError, match="missing fields"):
            RunCheckpoint.load(str(p))

    def test_atomic_write_json_handles_numpy(self, tmp_path):
        p = str(tmp_path / "o.json")
        atomic_write_json(p, {"a": np.int64(3), "b": np.array([1.0, 2.0])})
        import json

        assert json.load(open(p)) == {"a": 3, "b": [1.0, 2.0]}


class TestDegradationLadder:
    def _problem(self):
        ts, ps = _spaces()
        return TuningProblem(ts, ps, lambda t, c: (c["x"] - 0.4) ** 2 + 0.01 * t["t"])

    def test_lcm_failure_falls_back_to_per_task_gps(self, monkeypatch):
        def boom(self, *a, **k):
            raise sla.LinAlgError("cholesky breakdown")

        monkeypatch.setattr("repro.core.lcm.LCM.fit", boom)
        res = GPTune(self._problem(), FAST).tune([{"t": 1}, {"t": 3}], 6)
        assert res.data.n_samples(0) >= 6 and res.data.n_samples(1) >= 6
        assert isinstance(res.models[0], PerTaskGP)
        downgrades = res.events.of_kind("model-downgrade")
        assert downgrades and "per-task gp" in downgrades[0].detail
        modes = [e.fields.get("mode") for e in res.events.of_kind("search-mode")]
        assert modes == ["batched"]

    def test_double_failure_falls_back_to_random_search(self, monkeypatch):
        def boom(self, *a, **k):
            raise sla.LinAlgError("cholesky breakdown")

        monkeypatch.setattr("repro.core.lcm.LCM.fit", boom)
        monkeypatch.setattr("repro.core.gp.GaussianProcess.fit", boom)
        res = GPTune(self._problem(), FAST).tune([{"t": 1}], 6)
        assert res.data.n_samples(0) >= 6
        assert res.models[0] is None
        details = [e.detail for e in res.events.of_kind("model-downgrade")]
        assert any("per-task gp" in d for d in details)
        assert any("random search" in d for d in details)

    def test_fallback_disabled_propagates(self, monkeypatch):
        def boom(self, *a, **k):
            raise sla.LinAlgError("cholesky breakdown")

        monkeypatch.setattr("repro.core.lcm.LCM.fit", boom)
        with pytest.raises(sla.LinAlgError):
            GPTune(self._problem(), FAST.replace(model_fallback=False)).tune([{"t": 1}], 6)

    def test_multiobjective_degradation_random_search(self, monkeypatch):
        def boom(self, *a, **k):
            raise sla.LinAlgError("cholesky breakdown")

        monkeypatch.setattr("repro.core.lcm.LCM.fit", boom)
        monkeypatch.setattr("repro.core.gp.GaussianProcess.fit", boom)
        ts, ps = _spaces()
        prob = TuningProblem(
            ts, ps, lambda t, c: [c["x"], (c["x"] - 1.0) ** 2], n_objectives=2
        )
        res = GPTune(prob, FAST).tune([{"t": 1}], 6)
        assert res.data.n_samples(0) >= 6

    @staticmethod
    def _boom(self, *a, **k):
        raise sla.LinAlgError("cholesky breakdown")

    def _data(self, n_tasks=3, n_per_task=4):
        ts, ps = _spaces()
        data = TuningData(ts, ps, [{"t": 1 + 2 * i} for i in range(n_tasks)])
        rng = np.random.default_rng(0)
        for i in range(n_tasks):
            for x in rng.random(n_per_task):
                data.add(i, {"x": float(x)}, [(x - 0.4) ** 2 + 0.01 * i])
        return data

    def test_ladder_warm_starts_from_previous_per_task_theta(self, monkeypatch):
        """With refit_warm_start, the second ladder fit starts every task
        from its previous θ with refit_warm_n_start starts."""
        monkeypatch.setattr("repro.core.lcm.LCM.fit", self._boom)
        calls = []
        fit = PerTaskGP.fit

        def spy(model, X, y, tidx, theta0=None):
            out = fit(model, X, y, tidx, theta0=theta0)
            calls.append((theta0, model.n_start, [g.theta.copy() for g in model.gps]))
            return out

        monkeypatch.setattr(PerTaskGP, "fit", spy)
        opts = FAST.replace(refit_warm_start=True, n_start=2, refit_warm_n_start=1)
        GPTune(self._problem(), opts).tune([{"t": 1}, {"t": 3}], 6)
        assert len(calls) >= 2
        first_theta0, first_starts, first_thetas = calls[0]
        assert first_theta0 is None and first_starts == 2
        second_theta0, second_starts, _ = calls[1]
        assert second_starts == 1
        assert len(second_theta0) == 2
        for got, want in zip(second_theta0, first_thetas):
            np.testing.assert_array_equal(got, want)

    def test_downgraded_fit_consumes_one_seed(self, monkeypatch):
        monkeypatch.setattr("repro.core.lcm.LCM.fit", self._boom)
        tuner = GPTune(self._problem(), FAST)
        data = self._data(n_tasks=3)
        tuner.fitter.reset(data.n_tasks)
        before = tuner._seeds.n_children_spawned
        models, _ = tuner.fitter.fit(data, None, {"modeling_time": 0.0})
        assert isinstance(models[0], PerTaskGP)
        assert tuner._seeds.n_children_spawned - before == 1

    def test_failing_gp_backend_goes_straight_to_random_search(self, monkeypatch):
        monkeypatch.setattr("repro.core.gp.GaussianProcess.fit", self._boom)
        tuner = GPTune(self._problem(), FAST.replace(model_backend="gp"))
        data = self._data()
        tuner.fitter.reset(data.n_tasks)
        models, _ = tuner.fitter.fit(data, None, {"modeling_time": 0.0})
        assert models[0] is None
        downgrades = tuner.events.of_kind("model-downgrade")
        assert len(downgrades) == 1
        assert downgrades[0].detail.startswith("objective 0: gp -> random search (")

    def test_fallback_carries_finite_log_likelihood(self, monkeypatch):
        monkeypatch.setattr("repro.core.lcm.LCM.fit", self._boom)
        res = GPTune(self._problem(), FAST).tune([{"t": 1}, {"t": 3}], 6)
        model = res.models[0]
        assert isinstance(model, PerTaskGP)
        assert np.isfinite(model.log_likelihood_)
        assert model.log_likelihood_ == sum(g.log_likelihood_ for g in model.gps)
