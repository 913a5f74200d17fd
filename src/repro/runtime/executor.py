"""Executor backends for the tuner's own parallelism.

GPTune parallelizes its modeling phase (multi-start L-BFGS restarts) over
workers (Sec. 4.3).  Objective evaluations do not use an executor: every
campaign runs them through the schedulers of
:mod:`repro.runtime.async_engine` (Sec. 4.2), and the search phase needs no
pool, it runs lockstep-batched over all tasks.  On real installations
that is MPI spawning; here the restart map takes any object with
``map(fn, iterable) -> list``:

* :class:`SerialBackend` — plain loop (deterministic baseline),
* :class:`ThreadBackend` — ``concurrent.futures.ThreadPoolExecutor``,
* :class:`ProcessBackend` — ``ProcessPoolExecutor`` for true multi-core
  parallelism (work functions must be picklable).

An LCM fit maps ``min(n_start, n_workers)`` contiguous groups of restarts
over the executor, each group in lockstep on one stacked likelihood.  At
the tuner's small N the groups hold the GIL most of the time: on a 2-vCPU
guest a 3-start fit over ``ThreadBackend(2)`` took ×1.49 of serial at δ=6,
β=1, N=48 and ×0.83 at δ=2, β=1, N=128; over ``ProcessBackend(2)`` it took
×0.79 and ×0.60.

All backends surface the **first** failing work item (lowest index) as a
:class:`WorkerError` carrying ``index`` and chaining the original exception,
so a crashed restart is attributable.  :class:`ProcessBackend`
additionally survives worker death: when the pool breaks (a worker was
killed, e.g. by the OOM killer), the lost items are resubmitted on a fresh
pool up to ``max_pool_restarts`` times.

:func:`make_executor` builds one from an :class:`~repro.core.options.Options`
backend string.
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, Callable, Iterable, List, Optional

__all__ = [
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "WorkerError",
    "make_executor",
]


class WorkerError(RuntimeError):
    """A mapped work item raised in a worker.

    Attributes
    ----------
    index:
        Position of the failing item in the mapped iterable.  The original
        exception is chained as ``__cause__`` (when one exists).
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = int(index)


class SerialBackend:
    """In-order, in-process execution."""

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item sequentially."""
        out = []
        for i, x in enumerate(items):
            try:
                out.append(fn(x))
            except Exception as e:
                raise WorkerError(i, f"work item {i} failed: {e}") from e
        return out

    def shutdown(self) -> None:
        """No resources to release."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class ThreadBackend:
    """Thread-pool execution (overlaps only work that releases the GIL).

    Parameters
    ----------
    n_workers:
        Pool size.
    """

    def __init__(self, n_workers: int = 2):
        if n_workers < 1:
            raise ValueError("need n_workers >= 1")
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=int(n_workers))
        self.n_workers = int(n_workers)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` concurrently, preserving input order."""
        futures = [self._pool.submit(fn, x) for x in items]
        out = []
        for i, fut in enumerate(futures):
            try:
                out.append(fut.result())
            except Exception as e:
                raise WorkerError(i, f"work item {i} failed: {e}") from e
        return out

    def shutdown(self) -> None:
        """Release the pool's threads."""
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class ProcessBackend:
    """Process-pool execution (requires picklable work functions).

    Parameters
    ----------
    n_workers:
        Pool size.
    max_pool_restarts:
        How many times a broken pool (a killed worker) may be rebuilt and
        the lost items resubmitted before giving up.
    on_event:
        Optional ``on_event(kind, detail)`` callback notified with
        ``("worker-death", ...)`` whenever the pool is rebuilt.
    """

    def __init__(
        self,
        n_workers: int = 2,
        max_pool_restarts: int = 2,
        on_event: Optional[Callable[[str, str], Any]] = None,
    ):
        if n_workers < 1:
            raise ValueError("need n_workers >= 1")
        self.n_workers = int(n_workers)
        self.max_pool_restarts = int(max_pool_restarts)
        self.on_event = on_event
        self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.n_workers)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` across processes, preserving input order.

        Items whose results were lost to a dying worker are resubmitted on a
        rebuilt pool; completed items are never re-run.
        """
        items = list(items)
        results: List[Any] = [None] * len(items)
        pending = list(range(len(items)))
        restarts = 0
        while pending:
            futures = [(i, self._pool.submit(fn, items[i])) for i in pending]
            lost: List[int] = []
            for i, fut in futures:
                try:
                    results[i] = fut.result()
                except concurrent.futures.BrokenExecutor as e:
                    lost.append(i)
                    broken_cause = e
                except Exception as e:
                    raise WorkerError(i, f"work item {i} failed: {e}") from e
            if not lost:
                break
            restarts += 1
            if restarts > self.max_pool_restarts:
                raise WorkerError(
                    lost[0],
                    f"worker died {restarts} time(s); giving up on item {lost[0]}",
                ) from broken_cause
            if self.on_event is not None:
                self.on_event(
                    "worker-death",
                    f"pool broken; resubmitting {len(lost)} item(s) "
                    f"(restart {restarts}/{self.max_pool_restarts})",
                )
            self._pool.shutdown(wait=False)
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.n_workers)
            pending = lost
        return results

    def shutdown(self) -> None:
        """Terminate the worker processes."""
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


def make_executor(
    backend: str,
    n_workers: int = 2,
    on_event: Optional[Callable[[str, str], Any]] = None,
):
    """Build an executor from an options string.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"thread"`` or ``"process"``.
    n_workers:
        Worker count for the pooled backends.
    on_event:
        Resilience-event callback, forwarded to backends that emit events
        (currently :class:`ProcessBackend` worker-death notifications).
    """
    if backend == "serial":
        return SerialBackend()
    if backend == "thread":
        return ThreadBackend(n_workers)
    if backend == "process":
        return ProcessBackend(n_workers, on_event=on_event)
    raise ValueError(f"unknown backend {backend!r}")
