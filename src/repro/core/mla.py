"""The GPTune driver: multitask-learning autotuning (Algorithms 1 and 2).

:class:`GPTune` runs Bayesian optimization with a shared LCM surrogate over
δ tasks:

1. **Sampling phase** — an LHS design of ``ε = ε_tot·initial_fraction``
   feasible configurations per task is evaluated.
2. **Modeling phase** — an LCM is fitted to all data by multi-start L-BFGS
   (restart groups spread over a worker pool; Sec. 4.3).  When coarse
   performance models are attached, a *model-update phase* first refits their
   hyperparameters, then the kernel inputs are enriched with the model
   outputs (Sec. 3.3).  The phase's policy — backend choice, warm starts,
   posterior extension, the degradation ladder, and its checkpoint state —
   lives in :class:`~repro.core.model.fitter.SurrogateFitter`; the driver
   calls its ``reset``, ``fit``, ``snapshot`` and ``restore``.
3. **Search phase** — per task, PSO maximizes Expected Improvement over the
   posterior (γ = 1), or NSGA-II advances the predicted Pareto front and
   ``k = pareto_batch`` candidates are evaluated (γ > 1, Algorithm 2).  One
   search (:meth:`GPTune._search`) runs over a block of tasks in lockstep —
   one ``predict_tasks`` posterior call per optimizer step for the whole
   block — with the in-flight penalty and the random-search rung inside it.

Phases 2–3 repeat until the per-task budget ``ε_tot`` is exhausted.  The
returned :class:`TuneResult` carries all data, the best configurations, and
the phase-time breakdown reported in Table 3 of the paper.  One campaign
loop runs every evaluation through the asynchronous evaluation queue
(:mod:`repro.runtime.async_engine`, Sec. 4.2's concurrent evaluations)
under one of two policies: the lockstep *barrier* (fit, search the block
of every active task, drain to empty) or *streaming*
(``Options.async_eval``: each free slot searches the one-task block of the
task it fills).

The driver is built for flaky production campaigns (see
:mod:`repro.runtime.resilience`): objective calls run under a retry policy,
a resumable checkpoint can be written after every round
(:meth:`GPTune.resume` continues a killed run with identical decisions
under either policy, warm refits and posterior extension included), and a
failed LCM fit degrades to the ``gp`` backend (independent per-task GPs)
and then to random search instead of aborting.  Every resilience action is
recorded in a :class:`~repro.observability.CampaignLog` exposed as
``TuneResult.events``.
"""

from __future__ import annotations

import copy
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..observability import CampaignLog, MetricsRegistry, SpanRecorder
from ..observability.spans import install_recorder, maybe_span
from ..runtime.async_engine import AsyncEvalEngine, make_scheduler
from ..runtime.resilience import EvalOutcome, RetryPolicy, RunCheckpoint
from .acquisition import BatchedEIAcquisition
from .data import TuningData
from .history import HistoryDB
from .lcm import LCM
from .model.fitter import SurrogateFitter
from .options import Options
from .perfmodel import ModelFeaturizer
from .problem import TuningProblem
from .sampling import LHSSampler, sample_feasible
from .search.nsga2 import NSGA2, crowding_distance, fast_non_dominated_sort
from .search.penalty import penalize_ei, penalize_lcb
from .search.pso_batched import BatchedParticleSwarm

__all__ = ["GPTune", "TuneResult", "absorb_outcome"]


class TuneResult:
    """Outcome of one MLA run.

    Attributes
    ----------
    data:
        The full :class:`~repro.core.data.TuningData` (T, X, Y).
    stats:
        Phase-time breakdown: ``objective_time`` is the *simulated*
        application time (the sum of runtime objectives, matching the
        "objective" column of Table 3), ``objective_wall_time`` the real
        seconds spent in the objective callable, ``modeling_time`` and
        ``search_time`` real seconds in those phases, ``total_time`` their
        sum with ``objective_time``.
    models:
        The fitted surrogate(s) of the final iteration, one per objective:
        an :class:`~repro.core.lcm.LCM` (or sparse LCM), a
        :class:`~repro.core.model.PerTaskGP` fallback, or ``None`` after a
        full downgrade to random search.
    events:
        The :class:`~repro.observability.CampaignLog` of resilience events
        (retries, timeouts, model downgrades, checkpoints) from the run.
        With ``Options(telemetry=True)`` it additionally carries timestamped
        ``"span"`` phase/model timings and a final ``"stats"`` event.
    metrics:
        The driver's :class:`~repro.observability.MetricsRegistry` —
        evaluation/retry/failure counters and (with telemetry on) span
        histograms, mergeable into a service-wide registry.
    """

    def __init__(
        self,
        data: TuningData,
        stats: Dict[str, float],
        models: List[LCM],
        events: Optional[CampaignLog] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.data = data
        self.stats = dict(stats)
        self.models = models
        self.events = events if events is not None else CampaignLog()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def best(self, task: int, objective: int = 0) -> Tuple[Dict[str, Any], float]:
        """Best configuration and value for one task (single objective)."""
        return self.data.best(task, objective)

    def best_values(self, objective: int = 0) -> np.ndarray:
        """Per-task best objective values."""
        return np.array(
            [self.data.best(i, objective)[1] for i in range(self.data.n_tasks)]
        )

    def pareto_front(self, task: int):
        """Non-dominated ``(configs, objectives)`` for one task (γ > 1)."""
        return self.data.pareto_front(task)

    def trajectory(self, task: int, objective: int = 0) -> np.ndarray:
        """Best-so-far curve (anytime performance) for one task."""
        return self.data.best_trajectory(task, objective)


def absorb_outcome(
    data: TuningData,
    task: int,
    cfg: Mapping[str, Any],
    outcome: EvalOutcome,
    stats: Dict[str, float],
    events: CampaignLog,
    metrics: MetricsRegistry,
    add: bool = True,
) -> None:
    """Absorb one evaluation outcome: events, metrics, stats and data.

    GPTune's campaign and every baseline tuner (:mod:`repro.tuners`) take
    in each evaluation here.  ``stats`` must hold ``objective_time``,
    ``objective_wall_time``, ``n_retries`` and ``n_eval_failures``.  With
    ``add`` false the evaluation is counted but not added to ``data``.
    """
    for kind, detail in outcome.events:
        events.record(kind, detail)
    metrics.inc("repro_evaluations_total")
    if outcome.attempts > 1:
        metrics.inc("repro_eval_retries_total", outcome.attempts - 1)
    stats["objective_wall_time"] += outcome.wall_time
    stats["n_retries"] += outcome.attempts - 1
    if outcome.failed:
        metrics.inc("repro_eval_failures_total", kind=outcome.failure_kind or "")
        stats["n_eval_failures"] += 1
    stats["objective_time"] += float(outcome.value[0])
    if add:
        data.add(task, cfg, outcome.value)


class _TaskEval:
    """Picklable evaluation callable over ``(task_index, config)`` pairs.

    The evaluation queue's schedulers run it for every campaign, barrier
    or streaming.  Retries/timeouts run *inside* the worker via
    :meth:`~repro.core.problem.TuningProblem.evaluate_outcome`, and the
    returned :class:`~repro.runtime.resilience.EvalOutcome` carries its
    events back for replay into the driver's campaign log.
    """

    def __init__(
        self,
        problem: TuningProblem,
        tasks: List[Mapping[str, Any]],
        retry: Optional[RetryPolicy] = None,
    ):
        self.problem = problem
        self.tasks = tasks
        self.retry = retry

    def __getstate__(self):
        # a process worker only evaluates: ship the problem without its
        # performance models, which are often closures that cannot pickle
        state = dict(self.__dict__)
        state["problem"] = copy.copy(self.problem)
        state["problem"].models = []
        return state

    def __call__(self, item):
        idx, cfg = item
        return self.problem.evaluate_outcome(self.tasks[idx], cfg, retry=self.retry)


def _feasibility_or_none(problem: TuningProblem, task: Mapping[str, Any]):
    """Feasibility predicate over normalized points, or ``None`` if trivial.

    An unconstrained tuning space makes every candidate feasible, so the
    search phase skips the constraint predicate entirely instead of paying
    a denormalization per optimizer step.
    """
    if problem.tuning_space.constraints:
        return problem.feasibility_on_unit(task)
    return None


class GPTune:
    """Multitask Bayesian-optimization autotuner.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.TuningProblem` to tune.
    options:
        Algorithm knobs; see :class:`~repro.core.options.Options`.
    history:
        Optional archive with ``records(name)`` / ``append(name, records)``
        — a :class:`~repro.core.history.HistoryDB`, a
        :class:`~repro.service.store.ShardedStore`, or a remote
        :class:`~repro.service.client.ServiceClient`.  Matching archived
        evaluations seed the model for free, and new evaluations are
        archived (crowd tuning: concurrent campaigns may share one archive).
    model_cache:
        Optional :class:`~repro.service.modelcache.SurrogateCache`.  Before
        each modeling phase the cache is consulted with the content
        fingerprints of the current data; on a subset/superset hit the LCM
        warm-starts from the cached hyperparameters with a single L-BFGS
        start instead of ``options.n_start`` cold multi-starts, and every
        successful fit is cached for the next campaign.  May also be set via
        ``options.model_cache_path``.
    scheduler:
        Optional scheduler override for the evaluation queue, which serves
        every campaign, barrier or streaming (any object with the
        ``start``/``wait``/``remaining``/``shutdown`` protocol of
        :mod:`repro.runtime.async_engine`).  Tests and benchmarks inject a
        :class:`~repro.runtime.async_engine.SimScheduler` here; by default
        each campaign builds one from ``options.backend``/``n_workers``.
        Fits never run on it: with a pooled backend each campaign builds a
        second scheduler for their restart groups and shuts it down at the
        end.
    """

    def __init__(
        self,
        problem: TuningProblem,
        options: Optional[Options] = None,
        history: Optional[HistoryDB] = None,
        model_cache: Optional[Any] = None,
        scheduler: Optional[Any] = None,
    ):
        self.problem = problem
        self.options = options or Options()
        self.history = history
        self._scheduler = scheduler
        self.model_cache = model_cache
        if self.model_cache is None and self.options.model_cache_path is not None:
            from ..service.modelcache import SurrogateCache

            self.model_cache = SurrogateCache(self.options.model_cache_path)
        self.events = CampaignLog()
        self.metrics = MetricsRegistry()
        self._seeds = np.random.SeedSequence(self.options.seed)
        self._search_mode_last: Optional[str] = None
        self._campaign_id: Optional[str] = None  # set when a campaign starts
        # surrogate policy (backend choice, warm starts, extension, the
        # degradation ladder, checkpointed modeling state); reset by tune()
        self.fitter = SurrogateFitter(
            self.options,
            problem.name,
            self.events,
            self._child_seed,
            model_cache=self.model_cache,
        )
        self._retry = RetryPolicy(
            max_attempts=self.options.retry_attempts,
            timeout=self.options.eval_timeout,
            backoff=self.options.retry_backoff,
            backoff_factor=self.options.retry_backoff_factor,
            jitter=self.options.retry_jitter,
            seed=self.options.seed,
        )

    # -- internals ---------------------------------------------------------
    def _child_seed(self) -> int:
        return int(self._seeds.spawn(1)[0].generate_state(1)[0])

    def _note_search_mode(self, mode: str, algo: str, n_tasks: int) -> None:
        """Record a ``search-mode`` event when the execution path changes."""
        if mode != self._search_mode_last:
            self._search_mode_last = mode
            self.events.record(
                "search-mode",
                f"{algo}: {mode} search over {n_tasks} task(s)",
                mode=mode,
                algo=algo,
                n_tasks=n_tasks,
            )

    def _checkpoint(
        self,
        data: TuningData,
        n_samples: int,
        frozen: Sequence[int],
        iteration: int,
        stats,
        eng: AsyncEvalEngine,
        queue: Sequence[Tuple[int, Dict[str, Any], Optional[float]]],
        featurizer: Optional[ModelFeaturizer],
    ) -> None:
        """Write the resumable campaign snapshot (if configured).

        The checkpoint carries the engine's in-flight evaluations, then the
        ``queue`` still waiting for a slot (``{"task", "x", "eta"}`` in
        submission order; none after a barrier round), so a resumed run can
        resubmit them with their remaining durations preserved.  The fitter's modeling state
        (:meth:`SurrogateFitter.snapshot`, with the campaign's
        ``featurizer``) rides along, so resumes with ``refit_interval``,
        ``refit_warm_start`` or performance models stay bit-identical.
        """
        path = self.options.checkpoint_path
        if path is None or iteration % self.options.checkpoint_every != 0:
            return
        pending = [
            {"task": int(t), "x": dict(cfg), "eta": eta}
            for t, cfg, eta in [e[1:] for e in eng.pending_snapshot()] + list(queue)
        ]
        ck = RunCheckpoint(
            problem=self.problem.name,
            entropy=self._seeds.entropy,
            spawn_count=int(self._seeds.n_children_spawned),
            n_samples=int(n_samples),
            tasks=[dict(t) for t in data.tasks],
            frozen=sorted(int(i) for i in frozen),
            iteration=int(iteration),
            stats={k: float(v) for k, v in stats.items()},
            X=[[dict(x) for x in xs] for xs in data.X],
            Y=[[[float(v) for v in y] for y in ys] for ys in data.Y],
            pending=pending,
            modeling=self.fitter.snapshot(featurizer),
            campaign_id=self._campaign_id,
        )
        ck.save(path)
        self.events.record("checkpoint", f"iteration {iteration} -> {path}")

    # -- main entry -----------------------------------------------------------
    def tune(
        self,
        tasks: Sequence[Any],
        n_samples: int,
        preload: Optional[Sequence[Mapping[str, Any]]] = None,
        frozen: Optional[Sequence[int]] = None,
        callback: Optional[Any] = None,
        _resume: Optional[RunCheckpoint] = None,
    ) -> TuneResult:
        """Run MLA over the given tasks with per-task budget ``ε_tot``.

        Parameters
        ----------
        tasks:
            δ native task values (mappings or positional sequences).
        n_samples:
            ε_tot — total function evaluations per task (>= 2).
        preload:
            Optional archived records (``{"task", "x", "y"}`` dicts, as
            produced by :meth:`TuningData.to_records`) absorbed before the
            sampling phase; matching-task records count toward the budget.
        frozen:
            Task indices that receive **no new evaluations**: their
            (preloaded) data only informs the shared LCM.  Used by transfer
            learning (:mod:`repro.core.tla`) to tune a new task against
            completed source tasks.
        callback:
            Optional ``callback(iteration, data, stats) -> bool`` invoked
            after every MLA iteration; returning True stops tuning early
            (anytime usage).  ``options.max_seconds`` adds a wall-clock cap.
        _resume:
            Internal — a :class:`~repro.runtime.resilience.RunCheckpoint` to
            continue from; use :meth:`resume`.

        Returns
        -------
        :class:`TuneResult`
        """
        if n_samples < 2:
            raise ValueError("need n_samples >= 2 (initial design + BO)")
        if _resume is not None:
            # Validate before touching the checkpoint's tasks: coercing them
            # through the wrong problem's task space fails confusingly.
            if _resume.problem != self.problem.name:
                raise ValueError(
                    f"checkpoint is for problem {_resume.problem!r}, "
                    f"not {self.problem.name!r}"
                )
            if int(_resume.n_samples) != int(n_samples):
                raise ValueError(
                    f"checkpoint budget {_resume.n_samples} != requested {n_samples}"
                )
        recorder: Optional[SpanRecorder] = None
        prev_recorder = None
        if self.options.telemetry:
            recorder = SpanRecorder(log=self.events, metrics=self.metrics)
            prev_recorder = install_recorder(recorder)
        try:
            return self._campaign(tasks, n_samples, preload, frozen, callback, _resume)
        finally:
            if recorder is not None:
                recorder.flush()
                install_recorder(prev_recorder)

    def _campaign(
        self,
        tasks: Sequence[Any],
        n_samples: int,
        preload: Optional[Sequence[Mapping[str, Any]]],
        frozen: Optional[Sequence[int]],
        callback: Optional[Any],
        _resume: Optional[RunCheckpoint],
    ) -> TuneResult:
        """The MLA loop proper (:meth:`tune` handles validation/telemetry).

        Every round submits evaluations to an :class:`AsyncEvalEngine` over
        the scheduler, drains completions and records them in submission
        order, then checkpoints and consults the callback and
        ``max_seconds``.  ``options.async_eval`` picks the policy:

        * **barrier** (lockstep, Algorithms 1–2 as written): a round starts
          with nothing in flight.  While a task is short of its LHS design
          the round evaluates the design (iteration 0); every later round
          fits the surrogate, proposes for every active task with budget
          left through one search over their block (:meth:`_propose_round`)
          and drains to empty.
        * **streaming**: a round refits/extends the posterior on everything
          absorbed so far (at most once per ``async_refit_secs``), *fills*
          free queue slots — design entries first, then the same search on
          a one-task block, always for the task with the fewest committed
          evaluations — and absorbs whatever completes first.  One
          straggling evaluation holds exactly one slot.

        Performance models ride along in one :class:`ModelFeaturizer` per
        campaign, re-estimated at each full fit and frozen during extend
        phases.  Determinism: drain batches are seq-sorted by the engine,
        every seed-consuming decision spawns its own seed-tree child in
        published order, the streaming design is regenerated on resume from
        the campaign's *first* child seed, and checkpoints carry the
        in-flight set and the fitter's modeling state — so under a
        deterministic scheduler a killed+resumed campaign is bit-identical
        to the uninterrupted one (see docs/ASYNC.md).
        """
        opts = self.options
        barrier = not opts.async_eval
        data = TuningData(
            self.problem.task_space, self.problem.tuning_space, tasks,
            n_objectives=self.problem.n_objectives,
        )
        space = data.tuning_space
        frozen_set = set(int(i) for i in (frozen or ()))
        if any(i < 0 or i >= data.n_tasks for i in frozen_set):
            raise ValueError("frozen task index out of range")
        active = [i for i in range(data.n_tasks) if i not in frozen_set]
        if not active:
            raise ValueError("all tasks frozen; nothing to tune")
        self._search_mode_last = None
        stats = {
            "objective_time": 0.0,
            "objective_wall_time": 0.0,
            "modeling_time": 0.0,
            "search_time": 0.0,
            "n_retries": 0.0,
            "n_eval_failures": 0.0,
        }

        # names this campaign's archived records (see RunCheckpoint)
        self._campaign_id = (
            _resume.campaign_id if _resume is not None and _resume.campaign_id
            else uuid.uuid4().hex
        )
        resume_children: List[np.random.SeedSequence] = []
        if _resume is not None:
            # Restore the exact campaign state: evaluation sets, phase stats,
            # and the seed tree fast-forwarded past every child already
            # spawned, so the continuation takes the same decisions the
            # uninterrupted run would have.
            self._seeds = np.random.SeedSequence(_resume.entropy)
            if _resume.spawn_count > 0:
                resume_children = self._seeds.spawn(int(_resume.spawn_count))
            for i, (xs, ys) in enumerate(zip(_resume.X, _resume.Y)):
                for x, y in zip(xs, ys):
                    data.add(i, x, y)
            for k, v in _resume.stats.items():
                if k in stats:
                    stats[k] = float(v)
            self.events.record(
                "resume",
                f"iteration {_resume.iteration}, {data.n_samples()} evaluation(s) restored",
            )
        else:
            # archived data counts toward the budget for free (reuse goal)
            if self.history is not None:
                data.load_records(self.history.records(self.problem.name))
            if preload is not None:
                data.load_records(preload)
        for i in frozen_set:
            if data.n_samples(i) == 0:
                raise ValueError(f"frozen task {i} has no preloaded data")

        featurizer = (
            ModelFeaturizer(self.problem.models) if self.problem.has_models else None
        )
        eps_init = max(2, int(round(n_samples * opts.initial_fraction)))
        design: Dict[int, List[Dict[str, Any]]] = {}
        if not barrier:
            # the streaming design is eps_init points per task from the
            # campaign's first seed-tree child, re-derived on resume
            design_seed = (
                int(resume_children[0].generate_state(1)[0])
                if resume_children
                else self._child_seed()
            )
            design = self._design(data, {i: eps_init for i in active}, design_seed)
        design_ptr = {i: 0 for i in active}

        scheduler = self._scheduler
        if scheduler is None:
            scheduler = make_scheduler(
                opts.backend, opts.n_workers, on_event=self.events.record
            )
        # the fits' restart groups get a second pool of the same kind:
        # streaming fits run while evaluations are in flight, and an
        # injected scheduler (SimScheduler's counters and clock) sees
        # evaluations only.  Serial fits run one inline group.
        fit_pool = None
        if opts.backend != "serial":
            fit_pool = make_scheduler(
                opts.backend, opts.n_workers, on_event=self.events.record
            )
        # modeling carryover is per-campaign: start this one cold
        self.fitter.reset(data.n_tasks, pool=fit_pool)
        max_inflight = (
            opts.max_inflight if opts.max_inflight is not None else max(2, opts.n_workers)
        )
        eng = AsyncEvalEngine(
            _TaskEval(self.problem, [dict(t) for t in data.tasks], self._retry),
            scheduler,
            max_inflight,
        )
        policy = "barrier" if barrier else "streaming"
        self.events.record(
            "async-start",
            f"{policy}, {type(scheduler).__name__}, max_inflight={max_inflight}, "
            f"penalty={opts.pending_penalty}",
            policy=policy,
            scheduler=type(scheduler).__name__,
            max_inflight=max_inflight,
            penalty=opts.pending_penalty,
        )

        # per-task in-flight bookkeeping: normalized-key -> unit point (it
        # feeds the pending penalty and dedup), plus a plain count (key
        # collisions in an exhausted discrete space must not undercount
        # slots)
        pend_units: List[Dict[tuple, np.ndarray]] = [{} for _ in range(data.n_tasks)]
        inflight_cnt = [0] * data.n_tasks

        def unit_key(cfg):
            u = space.normalize(cfg)
            return tuple(np.round(u, 9)), u

        def submit(i, cfg, eta=None):
            key, u = unit_key(cfg)
            eng.submit(i, cfg, eta=eta)
            pend_units[i][key] = u
            inflight_cnt[i] += 1

        def committed(i):
            return data.n_samples(i) + inflight_cnt[i]

        # (task, config, eta) awaiting a free slot, in submission order
        queue: Deque[Tuple[int, Dict[str, Any], Optional[float]]] = deque()

        def top_up():
            while queue and eng.can_submit:
                submit(*queue.popleft())

        if _resume is not None:
            # the first round resubmits these, ahead of any new proposal
            self.fitter.restore(_resume.modeling, data, featurizer)
            queue.extend(
                (int(e["task"]), dict(e["x"]), e.get("eta")) for e in _resume.pending
            )

        def next_design(i):
            # next unconsumed design entry whose key is neither evaluated
            # nor in flight; the skip rule replays identically on resume
            seen = data.seen_keys(i)
            while design_ptr[i] < len(design[i]):
                cfg = design[i][design_ptr[i]]
                design_ptr[i] += 1
                key, _ = unit_key(cfg)
                if key in seen or key in pend_units[i]:
                    continue
                return cfg
            return None

        bundle: Optional[Tuple[List[Any], List[np.ndarray]]] = None

        def propose(i, mo_buf):
            # one streaming proposal: the search phase on the one-task block
            # [i], scored through predict_tasks like a barrier round; one run
            # buffers k candidates (pareto_batch for γ > 1, else 1) in mo_buf
            models = bundle[0]
            with self._search_phase(stats, models, 1, task=i):
                rng = np.random.default_rng(self._child_seed())
                extra = set(pend_units[i])
                cands = mo_buf.get(i)
                if not cands:
                    degraded = any(m is None for m in models)
                    k = 1 if degraded or data.n_objectives == 1 else opts.pareto_batch
                    seeds = [] if degraded else [int(rng.integers(2**31))]
                    [(_, cands)] = self._search(
                        data, [i], bundle,
                        lambda m: self._posterior(m, data, [i], featurizer),
                        seeds, rng, [k], pend_units,
                    )
                    mo_buf[i] = cands
                # the first buffered candidate neither evaluated nor in
                # flight (else the last one), then the per-slot dedup
                seen = data.seen_keys(i)
                cfg = cands.pop(0)
                while cands and (data.x_key(cfg) in seen or data.x_key(cfg) in extra):
                    cfg = cands.pop(0)
                return self._dedup(data, i, cfg, rng, extra=extra)

        def fill():
            blocked = set()
            # the proposal buffer lives only within this fill call, so a
            # resumed run (whose buffer starts empty) replays identically
            mo_buf: Dict[int, List[Dict[str, Any]]] = {}
            while eng.can_submit:
                cands = [
                    i for i in active if i not in blocked and committed(i) < n_samples
                ]
                if not cands:
                    return
                # fewest committed (done + in-flight) evaluations first
                i = min(cands, key=lambda j: (committed(j), j))
                cfg = next_design(i) if committed(i) < eps_init else None
                if cfg is None and bundle is not None:
                    cfg = propose(i, mo_buf)
                if cfg is None:
                    # no surrogate yet: leave the slot open until the next fit
                    blocked.add(i)
                    continue
                submit(i, cfg)

        # periodic-refit cadence: with async_refit_secs set, modeling runs at
        # most once per interval — on the scheduler's virtual clock when it
        # has one (SimScheduler: deterministic), else on wall time
        sim_clock = getattr(scheduler, "clock", None)
        now = (
            (lambda: float(sim_clock.now)) if sim_clock is not None
            else time.perf_counter
        )
        last_fit: Optional[float] = None

        iteration = int(_resume.iteration) if _resume is not None else 0
        t_begin = time.perf_counter()
        total_wait = 0.0
        try:
            while min(data.n_samples(i) for i in active) < n_samples:
                counted = True  # barrier design / resumed-drain rounds are not
                if barrier:
                    need = {i: eps_init - data.n_samples(i) for i in active}
                    proposals: List[Tuple[int, Dict[str, Any]]] = []
                    if queue or eng.inflight:
                        counted = False  # a resumed in-flight set drains first
                    elif max(need.values()) > 0:
                        counted = False
                        lhs = self._design(data, need, self._child_seed())
                        proposals = [(i, c) for i, cfgs in lhs.items() for c in cfgs]
                    else:
                        bundle = self.fitter.fit(data, featurizer, stats)
                        left = {
                            i: n_samples - data.n_samples(i)
                            for i in active
                            if data.n_samples(i) < n_samples
                        }
                        proposals = self._propose_round(
                            data, bundle, left, pend_units, featurizer, stats
                        )
                    queue.extend((i, c, None) for i, c in proposals)
                elif min(data.n_samples(i) for i in active) >= 2 and (
                    last_fit is None
                    or opts.async_refit_secs is None
                    or now() - last_fit >= opts.async_refit_secs
                ):
                    # modeling precedes fill so proposals see every absorbed
                    # result; on resume the first pass refits from the
                    # restored data before anything new is submitted (the
                    # checkpoint is written pre-fit, which is what keeps the
                    # resumed seed tree aligned)
                    bundle = self.fitter.fit(data, featurizer, stats)
                    last_fit = now()
                top_up()
                if not barrier:
                    fill()
                if eng.inflight == 0:
                    break  # budget reached or nothing proposable
                inflight_before = eng.inflight
                with maybe_span("async.wait", inflight=inflight_before) as sp:
                    batch, wait_s = eng.drain()
                    while barrier and (queue or eng.inflight):  # drain to empty
                        top_up()
                        more, w = eng.drain()
                        batch += more
                        wait_s += w
                    sp.annotate(n=len(batch), wait_s=wait_s)
                batch.sort(key=lambda ce: ce.seq)
                total_wait += wait_s
                records = []
                for ce in batch:
                    absorb_outcome(
                        data, ce.task, ce.config, ce.outcome, stats, self.events, self.metrics
                    )
                    if self.history is not None:
                        k = data.n_samples(ce.task) - 1
                        records.append({
                            "task": data.tasks[ce.task],
                            "x": data.X[ce.task][-1],
                            "y": [float(v) for v in data.Y[ce.task][-1]],
                            # a round replayed after a resume reuses its
                            # rids, so the history stores it once
                            "rid": f"{self._campaign_id}:{ce.task}:{k}",
                        })
                    inflight_cnt[ce.task] -= 1
                    pend_units[ce.task].pop(unit_key(ce.config)[0], None)
                    if opts.telemetry:
                        # the objective ran inside the scheduler: emit its
                        # "phase.evaluation" span from the outcome's
                        # measured wall time, so `repro report` sums match
                        self.events.record(
                            "span",
                            f"phase.evaluation {ce.outcome.wall_time * 1e3:.3f}ms",
                            name="phase.evaluation",
                            dur_s=float(ce.outcome.wall_time),
                            task=ce.task,
                            seq=ce.seq,
                        )
                if records:
                    # one durable append per round, all-or-nothing, and
                    # always ahead of the round's checkpoint
                    with maybe_span("history.append", n=len(records)):
                        self.history.append(self.problem.name, records)
                self.metrics.set_gauge("repro_eval_inflight", float(eng.inflight))
                self.events.record(
                    "async-drain",
                    f"{len(batch)} completion(s) after {wait_s:.3g}s; "
                    f"{eng.inflight} still in flight",
                    n=len(batch),
                    wait_s=float(wait_s),
                    inflight=int(inflight_before),
                )
                if counted:
                    iteration += 1
                self._checkpoint(
                    data, n_samples, frozen_set, iteration, stats, eng, queue, featurizer
                )
                if not counted:
                    continue
                if opts.verbose:  # pragma: no cover - logging
                    done = [data.n_samples(i) for i in range(data.n_tasks)]
                    best = [f"{data.best(i)[1]:.4g}" for i in range(data.n_tasks)]
                    print(f"[gptune] {policy} iteration={iteration} samples={done} "
                          f"best={best} inflight={eng.inflight}")
                if callback is not None and callback(iteration, data, stats):
                    break
                if (
                    opts.max_seconds is not None
                    and time.perf_counter() - t_begin >= opts.max_seconds
                ):
                    break
        finally:
            eng.shutdown()
            if fit_pool is not None:
                fit_pool.shutdown()

        self.metrics.set_gauge("repro_eval_inflight", 0.0)
        self.events.record(
            "async-stop",
            f"{eng.submitted} submitted, {eng.completed} completed, "
            f"peak inflight {eng.peak_inflight}, "
            f"{total_wait:.3g}s total drain wait",
            submitted=int(eng.submitted),
            completed=int(eng.completed),
            peak_inflight=int(eng.peak_inflight),
            wait_s=float(total_wait),
        )
        models = list(bundle[0]) if bundle is not None else []
        stats["total_time"] = (
            stats["objective_time"] + stats["modeling_time"] + stats["search_time"]
        )
        # the final stats event makes an exported telemetry file self-contained:
        # `repro report` checks the span sums against these authoritative totals
        self.events.record(
            "stats",
            "campaign phase totals",
            **{k: float(v) for k, v in stats.items()},
        )
        return TuneResult(data, stats, models, events=self.events, metrics=self.metrics)

    def _design(
        self, data: TuningData, sizes: Mapping[int, int], seed: int
    ) -> Dict[int, List[Dict[str, Any]]]:
        """LHS design from one sampler: ``sizes[i]`` configurations for
        every task with a positive size, drawn in ``sizes`` order."""
        with maybe_span("phase.sampling", n_tasks=len(sizes)) as sp:
            sampler = LHSSampler(data.tuning_space, seed=seed)
            design = {
                i: sampler.sample(n, extra=data.tasks[i]) for i, n in sizes.items() if n > 0
            }
            sp.annotate(n_configs=sum(len(v) for v in design.values()))
        return design

    def resume(
        self,
        checkpoint: Any,
        callback: Optional[Any] = None,
    ) -> TuneResult:
        """Continue a killed campaign from a checkpoint.

        Parameters
        ----------
        checkpoint:
            A :class:`~repro.runtime.resilience.RunCheckpoint` or the path of
            one written by a run with ``options.checkpoint_path`` set.
        callback:
            Same contract as in :meth:`tune` (callbacks are not serialized,
            so pass it again here).

        The resumed run restores the evaluation sets, iteration counter, and
        RNG state, then continues to the original budget.  Together with a
        fixed ``options.seed`` this reproduces exactly the evaluations the
        uninterrupted run would have made.
        """
        ck = (
            checkpoint
            if isinstance(checkpoint, RunCheckpoint)
            else RunCheckpoint.load(str(checkpoint))
        )
        return self.tune(
            ck.tasks, ck.n_samples, frozen=ck.frozen or None, callback=callback, _resume=ck
        )

    # -- search phase ---------------------------------------------------------
    @contextmanager
    def _search_phase(self, stats, models: Sequence[Any], n_tasks: int, **attrs):
        """Span, ``search_time`` and ``search-mode`` bookkeeping around one
        search phase over ``n_tasks`` task(s), under either policy."""
        degraded = any(m is None for m in models)
        algo = "random" if degraded else "pso-ei" if len(models) == 1 else "nsga2"
        mode = "random" if degraded else "batched"
        t0 = time.perf_counter()
        with maybe_span("phase.search", algo=algo, mode=mode, **attrs):
            self._note_search_mode(mode, algo, n_tasks)
            yield
        stats["search_time"] += time.perf_counter() - t0

    def _propose_round(
        self,
        data: TuningData,
        bundle,
        left: Mapping[int, int],
        pend_units: List[Dict[tuple, np.ndarray]],
        featurizer: Optional[ModelFeaturizer],
        stats,
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """One barrier round's proposals: :meth:`_search` over the block of
        every task with budget ``left`` — ``batch_evals`` proposals per task
        for γ = 1 (Algorithm 1), ``pareto_batch`` for γ > 1 (Algorithm 2),
        capped at the task's remaining evaluations — each task's
        deduplicated within the round."""
        models = bundle[0]
        single = data.n_objectives == 1
        k = self.options.batch_evals if single else self.options.pareto_batch
        block = list(left)
        proposals: List[Tuple[int, Dict[str, Any]]] = []
        with self._search_phase(stats, models, len(block)):
            # seed-tree order: the optimizer seed(s), then the dedup stream
            # (which is also the random rung's sampling stream)
            n_seeds = 0 if any(m is None for m in models) else 1 if single else len(block)
            seeds = [self._child_seed() for _ in range(n_seeds)]
            rng = np.random.default_rng(self._child_seed())
            for i, cfgs in self._search(
                data, block, bundle,
                lambda m: self._posterior(m, data, block, featurizer),
                seeds, rng, [min(k, left[i]) for i in block], pend_units,
            ):
                proposals += self._dedup_round(data, i, cfgs, rng)
        return proposals

    def _posterior(
        self,
        model,
        data: TuningData,
        tasks: Sequence[int],
        featurizer: Optional[ModelFeaturizer],
    ):
        """``(T, P, dim) -> (mu, var)`` posterior over per-task unit blocks:
        one cross-task ``model.predict_tasks`` call per block, for the
        barrier and the streaming policy alike.  With a featurizer, each
        task's candidate block is first enriched with that task's model
        features (normalization frozen).
        """
        if featurizer is None:
            return lambda X: model.predict_tasks(tasks, X)
        space = data.tuning_space

        def predict(X: np.ndarray):
            blocks = [
                featurizer.enrich(
                    data.tasks[i], space.denormalize_many(X[t]), X[t], observe=False
                )
                for t, i in enumerate(tasks)
            ]
            return model.predict_tasks(tasks, np.stack(blocks))

        return predict

    def _search(
        self,
        data: TuningData,
        tasks: Sequence[int],
        bundle,
        posterior,
        seeds: Sequence[int],
        rng: np.random.Generator,
        ks: Sequence[int],
        pend_units: List[Dict[tuple, np.ndarray]],
    ) -> Iterator[Tuple[int, List[Dict[str, Any]]]]:
        """The search phase over a block of tasks: yields ``(task, configs)``
        with up to ``ks[t]`` candidates for ``tasks[t]``, in ``tasks`` order.

        ``posterior(model)`` maps a surrogate to a ``(T, P, dim) -> (mu,
        var)`` callable over the block (:meth:`_posterior`: one
        ``predict_tasks`` call per block, whatever the policy).  γ = 1 runs
        one :class:`BatchedParticleSwarm` (seed ``seeds[0]``) over a
        :class:`BatchedEIAcquisition` and proposes each task's best point,
        or its ``ks[t]`` most diverse personal bests; γ > 1 advances one NSGA-II
        per task (seeds ``seeds``, stepped in lockstep, one posterior call
        per objective per generation) over per-objective LCB columns
        ``mu - sqrt(var)``, infeasible rows scoring ``inf``, and picks
        ``ks[t]`` crowding-spread points per task.

        In-flight points (``pend_units``) discount each objective per
        ``options.pending_penalty``: ``"lp"`` applies the local penalty of
        each task's own pending points
        (:func:`~repro.core.search.penalty.penalize_ei` on EI,
        :func:`~repro.core.search.penalty.penalize_lcb` on an LCB);
        ``"none"`` leaves it to the caller's dedup.  A surrogate fully
        degraded on any objective falls back to ``ks[t]`` random feasible
        samples per task from ``rng``, drawn task by task as the caller
        consumes them, so a caller deduplicating with the same ``rng``
        interleaves the two.
        """
        models, ybests = bundle
        space = data.tuning_space
        opts = self.options
        if any(m is None for m in models):  # the last rung of the degradation ladder
            for i, k in zip(tasks, ks):
                yield i, sample_feasible(space, k, rng, extra=data.tasks[i])
            return
        feas = [_feasibility_or_none(self.problem, data.tasks[i]) for i in tasks]
        # each task's pending unit points, None where nothing is penalized
        pending = [
            np.vstack(list(pend_units[i].values()))
            if pend_units[i] and opts.pending_penalty == "lp"
            else None
            for i in tasks
        ]

        if len(models) == 1:
            ei = BatchedEIAcquisition(
                posterior(models[0]),
                y_best=[ybests[0][i] for i in tasks],
                feasibility=feas if any(f is not None for f in feas) else None,
            )

            def penalized_ei(X: np.ndarray) -> np.ndarray:
                values = ei(X)
                for t, pend in enumerate(pending):
                    if pend is not None:
                        values[t] = penalize_ei(values[t], X[t], pend, opts.penalty_radius)
                return values

            pso = BatchedParticleSwarm(
                dim=space.dimension,
                n_tasks=len(tasks),
                n_particles=opts.ei_candidates,
                iterations=opts.pso_iters,
                seed=seeds[0],
            )
            x0 = np.stack([space.normalize(data.best(i)[0]) for i in tasks])
            xunit, _ = pso.maximize(penalized_ei, x0=x0)
            # greedy diverse picks: the first k of top_batch(q) are top_batch(k)
            tops = pso.top_batch(max(ks)) if max(ks) > 1 else None
            for t, (i, k) in enumerate(zip(tasks, ks)):
                yield i, space.denormalize_many(tops[t][:k] if k > 1 else xunit[t])
            return

        objectives = [posterior(m) for m in models]
        nsgas = [
            NSGA2(
                dim=space.dimension,
                pop_size=opts.nsga_pop,
                generations=opts.nsga_gens,
                seed=seed,
                label=f"task {i}",
            )
            for i, seed in zip(tasks, seeds)
        ]

        def lcb_block(X: np.ndarray) -> np.ndarray:
            cols = []
            for s, predict in enumerate(objectives):
                mu, var = predict(X)
                lcb = mu - np.sqrt(var)
                for t, pend in enumerate(pending):
                    if pend is not None:
                        lcb[t] = penalize_lcb(
                            lcb[t], X[t], pend, opts.penalty_radius,
                            float(ybests[s][tasks[t]]),
                        )
                cols.append(lcb)
            F = np.stack(cols, axis=-1)  # (n_tasks, pop, gamma)
            for t, fe in enumerate(feas):
                if fe is not None:
                    F[t][~np.asarray(fe(X[t]), dtype=bool)] = np.inf
            return F

        pops = np.stack(
            [nsga.initialize(x0=self._pareto_seeds(data, i)) for nsga, i in zip(nsgas, tasks)]
        )
        F = lcb_block(pops)
        for t, nsga in enumerate(nsgas):
            nsga.tell(F[t])
        for _ in range(nsgas[0].generations):
            Fc = lcb_block(np.stack([nsga.ask() for nsga in nsgas]))
            for t, nsga in enumerate(nsgas):
                nsga.tell(Fc[t])
        for t, (i, k) in enumerate(zip(tasks, ks)):
            Xf, Ff = nsgas[t].front()
            picks = self._pick_k(Xf, Ff, k, pool=nsgas[t].population)
            yield i, space.denormalize_many(picks)

    def _dedup(
        self,
        data: TuningData,
        task: int,
        cfg: Dict[str, Any],
        rng: np.random.Generator,
        extra: Optional[set] = None,
    ) -> Dict[str, Any]:
        """Replace an already-evaluated proposal with a fresh feasible point.

        ``rng`` is hoisted by the caller — one generator per search phase
        threaded through every proposal, rather than spawning a fresh
        ``default_rng`` (and a seed-tree child) per duplicate hit.  ``extra``
        adds keys to avoid beyond the evaluated set — the task's in-flight
        keys (async) or its earlier proposals this round (lockstep).
        """
        seen = data.seen_keys(task)
        if extra:
            seen = seen | set(extra)
        if data.x_key(cfg) not in seen:
            return cfg
        for cand in sample_feasible(
            data.tuning_space, 64, rng, extra=data.tasks[task], max_tries=50_000
        ):
            if data.x_key(cand) not in seen:
                return cand
        return cfg  # tiny discrete space fully explored; re-evaluate

    def _dedup_round(
        self,
        data: TuningData,
        task: int,
        cfgs: Sequence[Dict[str, Any]],
        rng: np.random.Generator,
    ) -> List[Tuple[int, Dict[str, Any]]]:
        """One task's lockstep proposals, deduplicated within the round.

        Each candidate avoids the task's evaluated configurations *and* the
        ones already proposed for it this iteration, so ``batch_evals > 1``
        or ``pareto_batch > 1`` never spends two evaluations on one
        configuration.
        """
        taken: set = set()
        out: List[Tuple[int, Dict[str, Any]]] = []
        for cfg in cfgs:
            cfg = self._dedup(data, task, cfg, rng, extra=taken)
            taken.add(data.x_key(cfg))
            out.append((task, cfg))
        return out

    def _pareto_seeds(self, data: TuningData, task: int) -> np.ndarray:
        """Normalized NSGA-II seed individuals: current front or incumbent."""
        return data.tuning_space.normalize_many(
            data.pareto_front(task)[0] or [data.best(task)[0]]
        )

    @staticmethod
    def _pick_k(
        Xf: np.ndarray,
        Ff: np.ndarray,
        k: int,
        pool: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Choose k spread-out finite points from a front by crowding distance.

        Non-finite objective rows (infeasible candidates scored ``inf``)
        are filtered *before* the size check, so a front padded with
        infeasible rows can no longer slip through the early exit and yield
        unusable (or fewer than ``k``) picks.  When the finite front is
        short and the optimizer's final population is supplied as
        ``pool=(X, F)``, the remainder is topped up from the next
        non-dominated ranks in (rank, crowding distance) order.
        """
        Xf = np.atleast_2d(np.asarray(Xf, dtype=float))
        Ff = np.atleast_2d(np.asarray(Ff, dtype=float))
        finite = np.all(np.isfinite(Ff), axis=1)
        Xg, Fg = Xf[finite], Ff[finite]
        if Xg.shape[0] > k:
            cd = crowding_distance(Fg)
            order = np.argsort(-cd, kind="stable")
            return Xg[order[:k]]
        picked = [x for x in Xg]
        seen = {tuple(np.round(x, 12)) for x in picked}
        if len(picked) < k and pool is not None:
            poolX = np.atleast_2d(np.asarray(pool[0], dtype=float))
            poolF = np.atleast_2d(np.asarray(pool[1], dtype=float))
            ok = np.all(np.isfinite(poolF), axis=1)
            poolX, poolF = poolX[ok], poolF[ok]
            if poolX.shape[0]:
                for idx in fast_non_dominated_sort(poolF):
                    cd = crowding_distance(poolF[idx])
                    for j in idx[np.argsort(-cd, kind="stable")]:
                        key = tuple(np.round(poolX[j], 12))
                        if key in seen:
                            continue
                        picked.append(poolX[j])
                        seen.add(key)
                        if len(picked) >= k:
                            break
                    if len(picked) >= k:
                        break
        if not picked:
            # nothing feasible anywhere: return the raw front so the
            # campaign keeps proposing (and learning) instead of stalling
            return Xf[:k]
        return np.vstack(picked)[:k]
