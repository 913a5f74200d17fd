"""Query API over archived tuning records: nearest-task lookup.

Transfer learning (:mod:`repro.core.tla`) wants "the archived tasks closest
to the one I am about to tune" — this module answers that question directly
from any archive that can produce ``{"task", "x", "y"}`` records: a
:class:`~repro.service.store.ShardedStore`, the
:class:`~repro.core.history.HistoryDB` shim over it, or a remote
:class:`~repro.service.client.ServiceClient`.

Two distance modes cover the two deployment sides:

* **Space-aware** (the tuning client): distances in the problem's normalized
  task space (:meth:`repro.core.space.Space.normalize`), exactly the metric
  :class:`~repro.core.tla.TransferLearner` uses to prune far sources.
* **Space-free** (the HTTP service): the server stores records for arbitrary
  problems and does not know their :class:`~repro.core.space.Space`; numeric
  task dimensions are min-max normalized over the archived tasks themselves
  and non-numeric ones contribute a 0/1 mismatch term.  The heuristic ranks
  tasks the same way as the space-aware metric whenever task parameters are
  numeric with archive-spanning ranges.

numpy is imported by the functions that compute distances, not by the
module: the history server imports :func:`nearest_tasks` but appends,
reads and counts without numpy, and pays its import on the first query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "group_by_task",
    "nearest_tasks",
    "source_data_from_records",
    "archive_source",
]

Record = Dict[str, Any]


def _task_key(task: Mapping[str, Any]) -> Tuple:
    return tuple((str(k), repr(task[k])) for k in sorted(task))


def group_by_task(records: Sequence[Mapping[str, Any]]) -> List[Tuple[Dict[str, Any], List[Record]]]:
    """Group records by distinct task, preserving first-seen task order."""
    order: List[Tuple] = []
    groups: Dict[Tuple, Tuple[Dict[str, Any], List[Record]]] = {}
    for rec in records:
        task = dict(rec["task"])
        key = _task_key(task)
        if key not in groups:
            groups[key] = (task, [])
            order.append(key)
        groups[key][1].append(dict(rec))
    return [groups[k] for k in order]


def _heuristic_matrix(tasks: Sequence[Mapping[str, Any]], query: Mapping[str, Any]) -> np.ndarray:
    """Space-free distance of each archived task to the query task.

    Numeric dimensions are min-max scaled over ``tasks ∪ {query}``; missing
    or non-numeric dimensions contribute 1 on mismatch, 0 on equality.
    """
    import numpy as np

    names = sorted({k for t in tasks for k in t} | set(query))
    dists = np.zeros(len(tasks))
    for name in names:
        vals = [t.get(name) for t in tasks] + [query.get(name)]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals)
        if numeric:
            arr = np.asarray(vals, dtype=float)
            lo, hi = float(arr.min()), float(arr.max())
            span = (hi - lo) or 1.0
            unit = (arr - lo) / span
            dists += (unit[:-1] - unit[-1]) ** 2
        else:
            q = query.get(name)
            dists += np.array([0.0 if t.get(name) == q else 1.0 for t in tasks])
    return np.sqrt(dists)


def nearest_tasks(
    records: Sequence[Mapping[str, Any]],
    task: Mapping[str, Any],
    k: Optional[int] = None,
    task_space=None,
) -> List[Tuple[Dict[str, Any], List[Record], float]]:
    """The ``k`` archived tasks closest to ``task`` with their records.

    Parameters
    ----------
    records:
        Archived ``{"task", "x", "y"}`` records (any problem-consistent mix
        of tasks).
    task:
        The query task.
    k:
        How many distinct tasks to return (``None`` = all, sorted by
        distance).
    task_space:
        Optional :class:`~repro.core.space.Space`; when given, distances are
        computed in its normalized coordinates, otherwise the space-free
        heuristic applies.

    Returns
    -------
    ``[(task_dict, records_of_that_task, distance), ...]`` nearest first.
    An exact-match task has distance 0 and always sorts first.
    """
    import numpy as np

    groups = group_by_task(records)
    if not groups:
        return []
    tasks = [t for t, _ in groups]
    if task_space is not None:
        T = task_space.normalize_many(tasks)
        t_new = task_space.normalize(task)
        d = np.linalg.norm(T - t_new[None, :], axis=1)
    else:
        d = _heuristic_matrix(tasks, dict(task))
    order = np.argsort(d, kind="stable")
    if k is not None:
        order = order[: max(int(k), 0)]
    return [(groups[i][0], groups[i][1], float(d[i])) for i in order]


def source_data_from_records(problem, records: Sequence[Mapping[str, Any]]):
    """Build :class:`~repro.core.data.TuningData` over the records' tasks.

    The returned data holds one task per distinct archived task (in archive
    order) with all matching evaluations absorbed — the shape
    :class:`~repro.core.tla.TransferLearner` expects as ``source``.
    """
    from ..core.data import TuningData

    groups = group_by_task(records)
    if not groups:
        raise ValueError("archive has no records for this problem")
    tasks = [problem.task_space.to_dict(t) for t, _ in groups]
    data = TuningData(
        problem.task_space,
        problem.tuning_space,
        tasks,
        n_objectives=problem.n_objectives,
    )
    for i, (_, recs) in enumerate(groups):
        for rec in recs:
            data.add(i, rec["x"], rec["y"])
    return data


def archive_source(
    problem,
    archive,
    new_task: Optional[Mapping[str, Any]] = None,
    max_tasks: Optional[int] = None,
):
    """Pull one problem's records from an archive as TransferLearner source.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.TuningProblem`; its name selects the
        shard and its task space provides the distance metric.
    archive:
        Anything with ``records(problem_name) -> [records]`` — a
        :class:`~repro.service.store.ShardedStore`, a
        :class:`~repro.core.history.HistoryDB`, or a remote
        :class:`~repro.service.client.ServiceClient`.
    new_task:
        When given with ``max_tasks``, only the ``max_tasks`` archived tasks
        nearest to it (normalized task space) are kept — the LCM covariance
        is cubic in total samples, so pruning far sources keeps transfer
        cheap.
    max_tasks:
        Source-task cap (``None`` = keep all).
    """
    records = archive.records(problem.name)
    if new_task is not None and max_tasks is not None:
        near = nearest_tasks(
            records, problem.task_space.to_dict(new_task), k=max_tasks,
            task_space=problem.task_space,
        )
        records = [rec for _, recs, _ in near for rec in recs]
    return source_data_from_records(problem, records)
