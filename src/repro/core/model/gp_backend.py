"""Independent per-task GP backend.

:class:`PerTaskGP` is both an explicitly selectable backend
(``Options(model_backend="gp")``) and the driver's *degradation* rung when
the multitask fit breaks down: no task coupling, O(Σ nᵢ³) fit over much
smaller per-task blocks.  Its :meth:`~PerTaskGP.predict_tasks` loops over
the tasks' own GPs, so the lockstep batched search runs unchanged on it.
It has no flat ``theta`` (per-task hyperparameters are not transferable to
the LCM layout), so it skips the surrogate cache; warm starts go through
a per-task ``theta0`` sequence instead (see
:class:`~repro.core.model.fitter.SurrogateFitter`), the same for the
explicit backend and the degradation rung.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..gp import GaussianProcess
from ..posterior import task_block

__all__ = ["PerTaskGP"]


class PerTaskGP:
    """One independent :class:`GaussianProcess` per task.

    Per-task seeds derive deterministically from ``seed`` in task order, so
    a campaign consumes exactly one driver seed per fit regardless of the
    task count — the same contract the other backends honor.
    """

    def __init__(
        self,
        n_tasks: int,
        n_dims: int,
        jitter: float = 1e-8,
        n_start: int = 3,
        maxiter: int = 200,
        seed: Optional[int] = None,
    ):
        if n_tasks < 1 or n_dims < 1:
            raise ValueError("need n_tasks >= 1 and n_dims >= 1")
        self.n_tasks = int(n_tasks)
        self.n_dims = int(n_dims)
        self.jitter = float(jitter)
        self.n_start = int(n_start)
        self.maxiter = int(maxiter)
        self.seed = seed
        self.gps: List[Optional[GaussianProcess]] = [None] * self.n_tasks
        self.theta = None  # no shared flat θ — see module docstring
        self.log_likelihood_: float = -np.inf

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task_index: Sequence[int],
        theta0: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> "PerTaskGP":
        """Fit each observed task's GP.

        ``theta0`` optionally warm-starts the tasks: one entry per task, a
        :class:`GaussianProcess` θ (``n_dims + 2`` values) that starts that
        task's first restart, or ``None`` for a cold start.  ``n_start``
        applies to every task either way.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        tidx = np.asarray(task_index, dtype=int).ravel()
        if not (X.shape[0] == y.shape[0] == tidx.shape[0]):
            raise ValueError("X, y and task_index row counts differ")
        if X.shape[0] == 0:
            raise ValueError("no observations")
        if tidx.min() < 0 or tidx.max() >= self.n_tasks:
            raise ValueError("task_index out of range")
        if theta0 is not None and len(theta0) != self.n_tasks:
            raise ValueError(f"theta0 has {len(theta0)} entries, expected {self.n_tasks}")
        rng = np.random.default_rng(self.seed)
        seeds = rng.integers(2**31, size=self.n_tasks)
        gps: List[Optional[GaussianProcess]] = []
        ll = 0.0
        for i in range(self.n_tasks):
            rows = tidx == i
            if not np.any(rows):
                gps.append(None)
                continue
            gp = GaussianProcess(
                jitter=self.jitter,
                n_start=self.n_start,
                maxiter=self.maxiter,
                seed=int(seeds[i]),
            )
            gp.fit(X[rows], y[rows], theta0=None if theta0 is None else theta0[i])
            ll += float(gp.log_likelihood_)
            gps.append(gp)
        self.gps = gps
        self.log_likelihood_ = ll
        return self

    def predict(self, task: int, Xstar: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance from the task's own GP."""
        gp = self.gps[int(task)]
        if gp is None:
            raise RuntimeError(f"task {task} has no fitted surrogate")
        return gp.predict(Xstar)

    def predict_tasks(
        self, tasks: Sequence[int], Xstar: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Cross-task posterior, same contract as :meth:`LCM.predict_tasks`.

        ``Xstar`` is one shared ``(N*, β)`` block or per-task
        ``(n_tasks, N*, β)`` blocks; returns ``(mu, var)``, each
        ``(n_tasks, N*)``, row ``t`` equal to ``predict(tasks[t], ...)``.
        There is nothing shared to batch, so this loops over the tasks.
        """
        task_ids, Xs = task_block(tasks, Xstar, self.n_tasks)
        blocks = list(Xs) if Xs.ndim == 3 else [Xs] * len(task_ids)
        out = [self.predict(t, X) for t, X in zip(task_ids, blocks)]
        return np.stack([m for m, _ in out]), np.stack([v for _, v in out])
