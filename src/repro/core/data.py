"""Containers for multitask tuning data.

Following Table 1 of the paper, a tuning run maintains

* ``T ∈ IS^δ``     — the array of tasks under consideration,
* ``X ∈ PS^{δ×ε}`` — the array of evaluated tuning parameter configurations,
* ``Y ∈ OS^{δ×ε}`` — the corresponding outputs (e.g. runtimes).

:class:`TuningData` stores these as per-task Python lists (the per-task sample
counts may differ, e.g. in multi-objective mode where ``k`` points are added
per iteration) together with helpers that flatten everything into the stacked
normalized arrays consumed by the LCM.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .metrics import pareto_mask
from .space import Space

__all__ = ["TuningData"]


class TuningData:
    """Samples and outputs for ``δ`` tasks of one tuning problem.

    Parameters
    ----------
    task_space, tuning_space:
        The ``IS`` and ``PS`` spaces; used for normalization.
    tasks:
        Native task values (mappings or positional sequences), one per task.
    n_objectives:
        Output dimension γ; every recorded output must have this length.
    """

    def __init__(
        self,
        task_space: Space,
        tuning_space: Space,
        tasks: Sequence[Any],
        n_objectives: int = 1,
    ):
        self.task_space = task_space
        self.tuning_space = tuning_space
        self.tasks: List[Dict[str, Any]] = [task_space.to_dict(t) for t in tasks]
        self.n_objectives = int(n_objectives)
        if self.n_objectives < 1:
            raise ValueError("need at least one objective")
        self.X: List[List[Dict[str, Any]]] = [[] for _ in self.tasks]
        self.Y: List[List[np.ndarray]] = [[] for _ in self.tasks]
        # normalized rows of X, computed once by add() (see unit_rows)
        self._U: List[List[np.ndarray]] = [[] for _ in self.tasks]
        # per-task sets of rounded normalized-x keys, maintained incrementally
        # by add() so proposal dedup is O(1) instead of O(evals) per lookup
        self._seen: List[set] = [set() for _ in self.tasks]

    # -- basic accessors ------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """δ — the number of tasks."""
        return len(self.tasks)

    def n_samples(self, task: Optional[int] = None) -> int:
        """Evaluation count for one task, or the total over all tasks."""
        if task is not None:
            return len(self.X[task])
        return sum(len(x) for x in self.X)

    def __len__(self) -> int:
        return self.n_samples()

    # -- recording --------------------------------------------------------
    def add(self, task: int, x: Mapping[str, Any], y: Any) -> None:
        """Record one evaluation ``y(t_task, x)``.

        ``y`` may be a scalar (γ=1) or a length-γ sequence.
        """
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        if yv.shape != (self.n_objectives,):
            raise ValueError(
                f"expected {self.n_objectives} objective value(s), got shape {yv.shape}"
            )
        xd = self.tuning_space.to_dict(x)
        u = self.tuning_space.normalize(xd)
        self.X[task].append(xd)
        self.Y[task].append(yv)
        self._U[task].append(u)
        self._seen[task].add(self._unit_key(u))

    def extend(self, task: int, xs: Sequence[Mapping[str, Any]], ys: Sequence[Any]) -> None:
        """Record a batch of evaluations for one task."""
        if len(xs) != len(ys):
            raise ValueError("xs and ys length mismatch")
        for x, y in zip(xs, ys):
            self.add(task, x, y)

    # -- dedup support -----------------------------------------------------
    def x_key(self, x: Mapping[str, Any]) -> Tuple:
        """Canonical hashable key of one configuration (rounded unit coords)."""
        return self._unit_key(self.tuning_space.normalize(x))

    @staticmethod
    def _unit_key(u: np.ndarray) -> Tuple:
        return tuple(np.round(u, 9))

    def seen_keys(self, task: int) -> set:
        """Keys of every configuration already evaluated for one task.

        Maintained incrementally by :meth:`add` (covering preload, history
        and checkpoint-resume paths), so membership checks during proposal
        dedup cost O(1) instead of recomputing the whole set from scratch —
        the old per-proposal rebuild was O(evals²) over a campaign.  The
        returned set is live; treat it as read-only.
        """
        return self._seen[task]

    # -- best-so-far ------------------------------------------------------
    def best(self, task: int, objective: int = 0) -> Tuple[Dict[str, Any], float]:
        """Return ``(x*, y*)`` minimizing one objective for one task."""
        if not self.Y[task]:
            raise ValueError(f"task {task} has no samples")
        ys = np.array([y[objective] for y in self.Y[task]])
        i = int(np.argmin(ys))
        return self.X[task][i], float(ys[i])

    def best_trajectory(self, task: int, objective: int = 0) -> np.ndarray:
        """Running minimum of one objective (the *anytime* performance curve)."""
        ys = np.array([y[objective] for y in self.Y[task]], dtype=float)
        return np.minimum.accumulate(ys)

    def pareto_front(self, task: int) -> Tuple[List[Dict[str, Any]], np.ndarray]:
        """Non-dominated ``(configs, objectives)`` for one task (minimization)."""
        if not self.Y[task]:
            return [], np.empty((0, self.n_objectives))
        Y = np.vstack(self.Y[task])
        mask = pareto_mask(Y)
        configs = [x for x, m in zip(self.X[task], mask) if m]
        return configs, Y[mask]

    # -- stacked views for the LCM ----------------------------------------
    def stacked(self, objective: int = 0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten all samples into LCM inputs.

        Returns
        -------
        X_unit:
            ``(N, β)`` normalized tuning parameter points, tasks concatenated.
        y:
            ``(N,)`` raw objective values for the selected objective.
        task_index:
            ``(N,)`` integer task id per row.
        """
        rows = [u for us in self._U for u in us]
        if not rows:
            beta = self.tuning_space.dimension
            return np.empty((0, beta)), np.empty(0), np.empty(0, dtype=int)
        ys = [y[objective] for yvals in self.Y for y in yvals]
        idx = np.repeat(np.arange(self.n_tasks), [len(us) for us in self._U])
        return np.vstack(rows), np.asarray(ys, dtype=float), idx

    def unit_rows(self, task: int, start: int, stop: int) -> np.ndarray:
        """``(k, β)`` normalized rows of one task's evaluations ``start:stop``.

        The rows are the ones :meth:`add` computed when it recorded each
        configuration, so no configuration is normalized twice.
        """
        rows = self._U[task][start:stop]
        if not rows:
            return np.empty((0, self.tuning_space.dimension))
        return np.vstack(rows)

    def normalized_tasks(self) -> np.ndarray:
        """``(δ, α)`` normalized task parameter matrix."""
        return self.task_space.normalize_many(self.tasks)

    # -- (de)serialization ---------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        """Flatten to JSON-serializable records (see :mod:`repro.core.history`)."""
        recs = []
        for i, task in enumerate(self.tasks):
            for x, y in zip(self.X[i], self.Y[i]):
                recs.append({"task": dict(task), "x": dict(x), "y": [float(v) for v in y]})
        return recs

    def load_records(self, records: Sequence[Mapping[str, Any]]) -> int:
        """Merge archived records whose task matches one of ours.

        Returns the number of records absorbed; foreign-task records are
        ignored (they belong to a different MLA instance).
        """
        keyed = {self._task_key(t): i for i, t in enumerate(self.tasks)}
        absorbed = 0
        for rec in records:
            key = self._task_key(self.task_space.to_dict(rec["task"]))
            if key in keyed:
                self.add(keyed[key], rec["x"], rec["y"])
                absorbed += 1
        return absorbed

    def _task_key(self, task: Mapping[str, Any]) -> Tuple:
        return tuple(repr(task[n]) for n in self.task_space.names)
