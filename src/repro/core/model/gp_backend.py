"""Independent per-task GP backend.

:class:`PerTaskGP` is both an explicitly selectable backend
(``Options(model_backend="gp")``) and the driver's *degradation* rung when
the multitask fit breaks down: no task coupling, O(Σ nᵢ³) fit over much
smaller per-task blocks.  Each task's :class:`~repro.core.gp.GaussianProcess`
is the exact LCM at ``δ = 1``, so the rung has the LCM's likelihood,
``extend`` and ``refit_at``: the ``gp`` backend honours ``refit_interval``,
and its warm state rides the checkpoint, like the exact LCM's.  Its :meth:`~PerTaskGP.predict_tasks` loops over the tasks'
own GPs, so the lockstep batched search runs unchanged on it.  It has no
flat ``theta`` (per-task hyperparameters are not transferable to the
multitask layout), so it skips the surrogate cache; warm starts go through
the per-task :attr:`~PerTaskGP.thetas` instead (see
:class:`~repro.core.model.fitter.SurrogateFitter`), the same for the
explicit backend and the degradation rung.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..gp import GaussianProcess
from ..posterior import LCMParams, observations, task_block

__all__ = ["PerTaskGP"]


class PerTaskGP:
    """One independent :class:`GaussianProcess` per task.

    Per-task seeds derive deterministically from ``seed`` in task order, so
    a campaign consumes exactly one driver seed per fit regardless of the
    task count — the same contract the other backends honor.  ``params``
    is the one-task model every task's GP fits, ``LCMParams(1, β, 1)``.
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
        self.params = LCMParams(1, self.n_dims, 1)
        self.jitter = float(jitter)
        self.n_start = int(n_start)
        self.maxiter = int(maxiter)
        self.seed = seed
        self.gps: List[Optional[GaussianProcess]] = [None] * self.n_tasks
        self.theta = None  # no shared flat θ — see module docstring

    def _gp(self, seed: Optional[int] = None) -> GaussianProcess:
        return GaussianProcess(self.jitter, self.n_start, self.maxiter, seed)

    def _each_task(self, X, y, task_index, thetas, name, build) -> "PerTaskGP":
        """Validate, then set ``gps[i] = build(i, X_i, y_i, θ_i)`` for every
        observed task and ``None`` for the others; ``thetas`` is one entry
        per task, or ``None`` for all."""
        X, y, tidx = observations(X, y, task_index, self.n_tasks, self.n_dims)
        if thetas is None:
            thetas = [None] * self.n_tasks
        elif len(thetas) != self.n_tasks:
            raise ValueError(f"{name} has {len(thetas)} entries, expected {self.n_tasks}")
        rows = [tidx == i for i in range(self.n_tasks)]
        self.gps = [
            build(i, X[r], y[r], thetas[i]) if np.any(r) else None for i, r in enumerate(rows)
        ]
        return self

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task_index: Sequence[int],
        theta0: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> "PerTaskGP":
        """Fit each observed task's GP.

        ``theta0`` optionally warm-starts the tasks: one entry per task, a
        :class:`GaussianProcess` θ (``n_dims + 3`` values) that starts that
        task's first restart, or ``None`` for a cold start.  ``n_start``
        applies to every task either way.
        """
        seeds = np.random.default_rng(self.seed).integers(2**31, size=self.n_tasks)
        return self._each_task(
            X, y, task_index, theta0, "theta0",
            lambda i, Xi, yi, t: self._gp(int(seeds[i])).fit(Xi, yi, theta0=t),
        )

    def refit_at(
        self,
        X: np.ndarray,
        y: np.ndarray,
        task_index: Sequence[int],
        thetas: Sequence[Optional[np.ndarray]],
    ) -> "PerTaskGP":
        """Rebuild every observed task's posterior at its known θ
        (:meth:`GaussianProcess.refit_at`), without L-BFGS."""
        return self._each_task(
            X, y, task_index, thetas, "thetas",
            lambda i, Xi, yi, t: self._gp().refit_at(Xi, yi, t),
        )

    def extend(
        self, X: np.ndarray, y: np.ndarray, task_index: Sequence[int]
    ) -> "PerTaskGP":
        """Append each task's new rows to its own posterior
        (:meth:`GaussianProcess.extend`); ``RuntimeError`` when a task with
        new rows has no fitted GP."""
        X, y, tidx = observations(X, y, task_index, self.n_tasks, self.n_dims, extend=True)
        tasks = np.unique(tidx)
        for i in tasks:
            if self.gps[i] is None:
                raise RuntimeError(f"task {i} has no fitted surrogate to extend")
        for i in tasks:
            self.gps[i].extend(X[tidx == i], y[tidx == i])
        return self

    @property
    def thetas(self) -> List[Optional[np.ndarray]]:
        """Each task's fitted θ (``None`` for a task without a GP)."""
        return [None if g is None else g.theta for g in self.gps]

    @property
    def log_likelihood_(self) -> float:
        """Sum of the tasks' log marginal likelihoods (``-inf`` unfitted)."""
        fitted = [g.log_likelihood_ for g in self.gps if g is not None]
        return float(sum(fitted)) if fitted else -np.inf

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
