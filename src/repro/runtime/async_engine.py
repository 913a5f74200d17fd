"""Asynchronous evaluation queue behind every MLA campaign.

Every campaign of :meth:`repro.core.mla.GPTune.tune` submits its
evaluations here.  The lockstep *barrier* policy (sample → model → search →
evaluate) drains the queue to empty each round, so it stalls every task on
the slowest evaluation of the round — one straggling application run holds
the whole campaign hostage.  The *streaming* policy
(``Options(async_eval=True)``) removes the barrier: the driver submits
evaluations as proposals are made, completions stream back as they finish,
and the posterior absorbs each drained batch immediately.

The engine separates *queue semantics* from *execution*:

* :class:`AsyncEvalEngine` owns the bounded in-flight set (``max_inflight``),
  assigns every submission a monotonically increasing sequence id, and sorts
  each drained completion batch by that id — so the order in which results
  are *published to the driver* depends only on submission order within a
  batch, never on scheduler-internal races.
* A **scheduler** actually runs the work: :class:`SerialScheduler` (inline,
  deterministic degradation target), :class:`ThreadScheduler` /
  :class:`ProcessScheduler` (pools over ``concurrent.futures``; the process
  variant rebuilds a broken pool and resubmits the lost work), and
  :class:`SimScheduler`, a :class:`~repro.runtime.simclock.SimClock`-driven
  fake executor for deterministic tests and benchmarks.

The schedulers are the package's only worker pools.  Besides evaluations
they run the modeling phase's multi-start L-BFGS restart groups (Sec. 4.3,
level 1): :func:`run_all` maps a function over a list of items on any
scheduler and returns the results in input order, and
:meth:`repro.core.lcm.LCM.fit` maps its restart groups through it.  A
failing item surfaces as one :class:`WorkerError` carrying its index.

Determinism contract (proved in ``tests/test_determinism.py``): under a
deterministic scheduler, the driver's decision stream is a pure function of
the published-result order and the seed tree.  :class:`SimScheduler`
supports checkpointing in-flight evaluations with their *remaining* virtual
duration (``eta``), so a campaign killed mid-flight and resumed reproduces
the uninterrupted run bit-for-bit; shuffling completion order within a drain
batch cannot change anything because the engine re-sorts by sequence id.
The driver pairs this with the checkpoint's posterior-extension snapshot
(:class:`~repro.runtime.resilience.RunCheckpoint` ``modeling``), so the
bit-for-bit guarantee holds for every streaming shape — multi-objective,
performance models, ``refit_interval > 1``.

Like :mod:`repro.runtime.resilience`, this module imports nothing from
:mod:`repro.core` so the core layers can depend on it without cycles.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .simclock import SimClock

__all__ = [
    "AsyncEvalEngine",
    "CompletedEval",
    "ProcessScheduler",
    "SerialScheduler",
    "SimScheduler",
    "ThreadScheduler",
    "WorkerError",
    "make_scheduler",
    "run_all",
]


class WorkerError(RuntimeError):
    """A piece of work started on a scheduler raised (or its worker died).

    Attributes
    ----------
    index:
        The work's sequence id — the evaluation's submission id, or the
        item's position in a :func:`run_all` map.  The original exception
        is chained as ``__cause__``.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = int(index)


@dataclasses.dataclass(frozen=True)
class CompletedEval:
    """One finished evaluation handed back by :meth:`AsyncEvalEngine.drain`.

    ``seq`` is the engine-wide submission sequence id; drain batches are
    sorted by it, so absorbing completions in list order is deterministic.
    """

    seq: int
    task: int
    config: Dict[str, Any]
    outcome: Any


class SerialScheduler:
    """Run every submission inline; ``wait()`` returns all of them at once.

    The scheduler of every ``backend="serial"`` campaign: a lockstep round
    evaluates its proposals one after another in submission order, and a
    streaming campaign becomes a barrier-free batched loop with identical
    queue semantics and no concurrency — a deterministic baseline on any
    machine.
    """

    def start(self, seq: int, fn: Callable[[Any], Any], payload: Any,
              eta: Optional[float] = None) -> None:
        """Run the evaluation inline and queue its result for ``wait()``."""
        try:
            result = fn(payload)
        except Exception as e:
            raise WorkerError(seq, f"evaluation {seq} failed: {e}") from e
        self._done.append((seq, result))

    def __init__(self):
        self._done: List[Tuple[int, Any]] = []

    def wait(self) -> List[Tuple[int, Any]]:
        """Return every result accumulated since the last ``wait()``."""
        if not self._done:
            raise RuntimeError("wait() with nothing in flight")
        out, self._done = self._done, []
        return out

    def remaining(self, seq: int) -> Optional[float]:
        """Inline execution has no in-flight time; always ``None``."""
        return None

    def shutdown(self) -> None:
        """Drop any undrained results."""
        self._done.clear()


class ThreadScheduler:
    """Pool scheduler over ``ThreadPoolExecutor``.

    Evaluations overlap whenever the objective releases the GIL (BLAS,
    subprocess waits, I/O, sleeps).  A raising evaluation surfaces as a
    :class:`WorkerError` carrying its sequence id.  Only outstanding work
    is held: an entry is dropped as soon as its result is collected.
    """

    def __init__(self, n_workers: int = 2,
                 on_event: Optional[Callable[[str, str], Any]] = None):
        if n_workers < 1:
            raise ValueError("need n_workers >= 1")
        self.n_workers = int(n_workers)
        self.on_event = on_event
        self._pool = self._make_pool()
        self._futures: Dict[int, concurrent.futures.Future] = {}
        self._items: Dict[int, Tuple[Callable[[Any], Any], Any]] = {}

    def _make_pool(self):
        return concurrent.futures.ThreadPoolExecutor(max_workers=self.n_workers)

    def start(self, seq: int, fn: Callable[[Any], Any], payload: Any,
              eta: Optional[float] = None) -> None:
        """Submit the evaluation to the pool (``eta`` is ignored).

        A pool that broke before this call is handled as if it had lost
        the evaluation in flight (:meth:`_recover`): a thread pool raises
        the evaluation's :class:`WorkerError`, a process pool is rebuilt.
        """
        self._items[seq] = (fn, payload)
        try:
            self._futures[seq] = self._pool.submit(fn, payload)
        except concurrent.futures.BrokenExecutor as e:
            self._futures[seq] = concurrent.futures.Future()
            self._recover([seq], e)

    def _recover(self, lost: List[int], cause: BaseException) -> None:
        # a thread pool breaks only for good; fail one lost evaluation per call
        self._pop(lost[0])
        raise WorkerError(
            lost[0], f"thread pool broken on evaluation {lost[0]}"
        ) from cause

    def wait(self) -> List[Tuple[int, Any]]:
        """Block until at least one in-flight evaluation completes.

        A raising evaluation is raised as a :class:`WorkerError`, the
        lowest-numbered first; completed results stay queued for the next
        ``wait()``.
        """
        while True:
            if not self._futures:
                raise RuntimeError("wait() with nothing in flight")
            done, _ = concurrent.futures.wait(
                list(self._futures.values()),
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            finished = [(seq, fut.exception()) for seq, fut in sorted(self._futures.items())
                        if fut in done]
            for seq, exc in finished:
                if exc is not None and not isinstance(exc, concurrent.futures.BrokenExecutor):
                    self._pop(seq)
                    raise WorkerError(seq, f"evaluation {seq} failed: {exc}") from exc
            lost = [(seq, exc) for seq, exc in finished if exc is not None]
            if lost:
                self._recover([seq for seq, _ in lost], lost[0][1])
            out = [(seq, self._pop(seq).result()) for seq, exc in finished if exc is None]
            if out:
                return out

    def _pop(self, seq: int) -> concurrent.futures.Future:
        """Forget a finished evaluation; returns its future."""
        del self._items[seq]
        return self._futures.pop(seq)

    def remaining(self, seq: int) -> Optional[float]:
        """Real executors cannot estimate time left; always ``None``."""
        return None

    def shutdown(self) -> None:
        """Cancel outstanding futures and tear the pool down without waiting."""
        for fut in self._futures.values():
            fut.cancel()
        self._futures.clear()
        self._items.clear()
        self._pool.shutdown(wait=False, cancel_futures=True)


class ProcessScheduler(ThreadScheduler):
    """Pool scheduler over ``ProcessPoolExecutor`` with worker-death recovery.

    When the pool breaks (a worker was killed — OOM, segfault), it is
    rebuilt and every outstanding evaluation is resubmitted; each rebuild
    emits a ``("worker-death", ...)`` event.  The ``max_pool_restarts``
    budget covers the scheduler's lifetime: past it, a rebuild gives up on
    the lowest lost evaluation (raised as a :class:`WorkerError`) and
    still resubmits the rest, so the scheduler keeps serving.  Evaluation
    callables and payloads must be picklable.
    """

    def __init__(self, n_workers: int = 2, max_pool_restarts: int = 2,
                 on_event: Optional[Callable[[str, str], Any]] = None):
        self.max_pool_restarts = int(max_pool_restarts)
        self._restarts = 0
        super().__init__(n_workers, on_event=on_event)

    def _make_pool(self):
        return concurrent.futures.ProcessPoolExecutor(max_workers=self.n_workers)

    def _recover(self, lost: List[int], cause: BaseException) -> None:
        self._restarts += 1
        give_up = self._restarts > self.max_pool_restarts
        if give_up:
            self._pop(lost[0])
        # a broken pool poisons every future it had not finished: resubmit
        # all but the completed results on a fresh pool
        resubmit = [seq for seq, fut in sorted(self._futures.items())
                    if not (fut.done() and fut.exception() is None)]
        if not give_up and self.on_event is not None:
            self.on_event(
                "worker-death",
                f"pool broken; resubmitting {len(resubmit)} evaluation(s) "
                f"(restart {self._restarts}/{self.max_pool_restarts})",
            )
        self._pool.shutdown(wait=False)
        self._pool = self._make_pool()
        for seq in resubmit:
            fn, payload = self._items[seq]
            self._futures[seq] = self._pool.submit(fn, payload)
        if give_up:
            raise WorkerError(
                lost[0],
                f"worker died {self._restarts} time(s); "
                f"giving up on evaluation {lost[0]}",
            ) from cause


class SimScheduler:
    """Deterministic virtual-time scheduler for tests and benchmarks.

    Evaluations run *eagerly* at submission (the simulated objective is
    cheap); their completion is scheduled ``duration(task, config)`` virtual
    seconds later on a shared :class:`~repro.runtime.simclock.SimClock`.
    ``wait()`` advances the clock to the earliest outstanding completion and
    returns every evaluation finishing at that instant — so stragglers
    (large durations) genuinely hold their slot while short evaluations
    stream past them, with zero real sleeping.

    Parameters
    ----------
    duration:
        ``duration(task_index, config) -> float`` virtual seconds per
        evaluation.  Heavy-tailed durations reproduce straggler-bound
        campaigns deterministically.
    clock:
        Shared clock (``clock.now`` at the end of a campaign is its
        simulated makespan).  A fresh one is created when omitted.
    shuffle_seed:
        When set, each ``wait()`` batch is returned in a seeded-random order
        — an adversarial stand-in for OS completion races, used to prove the
        engine's publication order is completion-order invariant.
    eta_tol:
        Completion-time tie tolerance when grouping a drain batch.
    """

    def __init__(self, duration: Callable[[int, Dict[str, Any]], float],
                 clock: Optional[SimClock] = None,
                 shuffle_seed: Optional[int] = None,
                 eta_tol: float = 1e-9):
        self.duration = duration
        self.clock = clock if clock is not None else SimClock()
        self.eta_tol = float(eta_tol)
        self._rng = (np.random.default_rng(shuffle_seed)
                     if shuffle_seed is not None else None)
        self._pending: Dict[int, Tuple[float, Any]] = {}  # seq -> (done_t, result)

    def start(self, seq: int, fn: Callable[[Any], Any], payload: Any,
              eta: Optional[float] = None) -> None:
        """Run the evaluation eagerly; schedule its completion ``duration``
        (or resubmission ``eta``) virtual seconds from now."""
        try:
            result = fn(payload)
        except Exception as e:
            raise WorkerError(seq, f"evaluation {seq} failed: {e}") from e
        task, cfg = payload
        d = float(eta) if eta is not None else float(self.duration(task, cfg))
        self._pending[seq] = (self.clock.now + max(d, 0.0), result)

    def wait(self) -> List[Tuple[int, Any]]:
        """Advance the clock to the earliest outstanding completion and
        return every evaluation finishing at that instant."""
        if not self._pending:
            raise RuntimeError("wait() with nothing in flight")
        t = min(done_t for done_t, _ in self._pending.values())
        self.clock.advance_to(t)
        batch = [(seq, result) for seq, (done_t, result) in self._pending.items()
                 if done_t <= t + self.eta_tol]
        for seq, _ in batch:
            del self._pending[seq]
        if self._rng is not None and len(batch) > 1:
            order = self._rng.permutation(len(batch))
            batch = [batch[i] for i in order]
        return batch

    def remaining(self, seq: int) -> Optional[float]:
        """Virtual seconds left for an in-flight evaluation.

        Checkpointing this as the resubmission ``eta`` preserves relative
        completion times across a kill/resume, which is what makes resumed
        async campaigns bit-identical to uninterrupted ones.
        """
        done_t, _ = self._pending[seq]
        return max(0.0, done_t - self.clock.now)

    def shutdown(self) -> None:
        """Drop all scheduled completions."""
        self._pending.clear()


def make_scheduler(backend: str, n_workers: int = 2,
                   on_event: Optional[Callable[[str, str], Any]] = None):
    """Build a scheduler from an :class:`~repro.core.options.Options` backend
    string (``"serial"``, ``"thread"`` or ``"process"``)."""
    if backend == "serial":
        return SerialScheduler()
    if backend == "thread":
        return ThreadScheduler(n_workers, on_event=on_event)
    if backend == "process":
        return ProcessScheduler(n_workers, on_event=on_event)
    raise ValueError(f"unknown backend {backend!r}")


def run_all(scheduler, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
    """Run ``fn`` on every item through ``scheduler``; results in input order.

    Item ``i`` is started under sequence id ``i``, so the scheduler must have
    nothing else in flight.  On a failure every item already started is
    still drained, leaving the scheduler empty and reusable, and then the
    :class:`WorkerError` of the lowest failing index is raised (the item's
    exception chained as its cause).  An inline scheduler stops starting
    items at the first failure.
    """
    results: List[Any] = [None] * len(items)
    errors: Dict[int, WorkerError] = {}
    outstanding = set()
    for i, item in enumerate(items):
        try:
            scheduler.start(i, fn, item)
        except WorkerError as e:
            errors[i] = e
            break
        outstanding.add(i)
    while outstanding:
        try:
            batch = scheduler.wait()
        except WorkerError as e:
            errors[e.index] = e
            outstanding.discard(e.index)
            continue
        for i, result in batch:
            results[i] = result
            outstanding.discard(i)
    if errors:
        raise errors[min(errors)]
    return results


class AsyncEvalEngine:
    """Bounded asynchronous evaluation queue with deterministic publication.

    Parameters
    ----------
    fn:
        ``fn((task_index, config)) -> outcome`` — the evaluation callable
        (picklable for :class:`ProcessScheduler`).  The driver passes a
        closure over :meth:`TuningProblem.evaluate_outcome` and its retry
        policy, so the resilience ladder composes with the queue unchanged.
    scheduler:
        Any object with the scheduler protocol (``start``/``wait``/
        ``remaining``/``shutdown``); see the module docstring.
    max_inflight:
        Hard cap on concurrently outstanding evaluations.  :meth:`submit`
        past the cap raises — callers gate on :attr:`can_submit`.

    Invariants (asserted by ``tests/test_async_engine.py``): the in-flight
    count never exceeds ``max_inflight``; every completion is published
    exactly once; each drained batch is sorted by submission sequence id.
    """

    def __init__(self, fn: Callable[[Any], Any], scheduler, max_inflight: int):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.fn = fn
        self.scheduler = scheduler
        self.max_inflight = int(max_inflight)
        self.peak_inflight = 0
        self.submitted = 0
        self.completed = 0
        self._next_seq = 0
        self._inflight: Dict[int, Tuple[int, Dict[str, Any]]] = {}

    @property
    def inflight(self) -> int:
        """Number of outstanding evaluations."""
        return len(self._inflight)

    @property
    def can_submit(self) -> bool:
        """Whether a slot is free under ``max_inflight``."""
        return len(self._inflight) < self.max_inflight

    def inflight_tasks(self) -> List[int]:
        """Task index of every outstanding evaluation (one entry each)."""
        return [task for task, _ in self._inflight.values()]

    def submit(self, task: int, config: Dict[str, Any],
               eta: Optional[float] = None) -> int:
        """Enqueue one evaluation; returns its sequence id.

        ``eta`` is only meaningful on resume with a scheduler that honors it
        (:class:`SimScheduler`): the checkpointed remaining duration of a
        previously in-flight evaluation.
        """
        if not self.can_submit:
            raise RuntimeError(
                f"max_inflight={self.max_inflight} exceeded "
                f"({len(self._inflight)} in flight)"
            )
        seq = self._next_seq
        self._next_seq += 1
        cfg = dict(config)
        self._inflight[seq] = (int(task), cfg)
        self.scheduler.start(seq, self.fn, (int(task), cfg), eta=eta)
        self.submitted += 1
        self.peak_inflight = max(self.peak_inflight, len(self._inflight))
        return seq

    def drain(self) -> Tuple[List[CompletedEval], float]:
        """Block until ≥ 1 completion; return ``(batch, wait_seconds)``.

        The batch is sorted by sequence id, so completion-order races inside
        the scheduler cannot leak into the driver's data order.
        """
        if not self._inflight:
            return [], 0.0
        t0 = time.perf_counter()
        raw = self.scheduler.wait()
        wait_s = time.perf_counter() - t0
        batch: List[CompletedEval] = []
        for seq, result in sorted(raw, key=lambda it: it[0]):
            task, cfg = self._inflight.pop(seq)
            batch.append(CompletedEval(seq=seq, task=task, config=cfg, outcome=result))
        self.completed += len(batch)
        return batch, wait_s

    def pending_snapshot(self) -> List[Tuple[int, int, Dict[str, Any], Optional[float]]]:
        """Checkpoint view of the in-flight set: ``(seq, task, config, eta)``
        sorted by sequence id (``eta`` is ``None`` for real executors)."""
        out = []
        for seq in sorted(self._inflight):
            task, cfg = self._inflight[seq]
            out.append((seq, task, dict(cfg), self.scheduler.remaining(seq)))
        return out

    def shutdown(self) -> None:
        """Abandon outstanding evaluations and release scheduler resources."""
        self._inflight.clear()
        self.scheduler.shutdown()
