"""Helpers shared by every surrogate backend's posterior.

Each backend (:class:`~repro.core.lcm.LCM`,
:class:`~repro.core.model.sparse_lcm.SparseLCM`,
:class:`~repro.core.model.gp_backend.PerTaskGP`) computes its posterior in
one call, ``predict_tasks(tasks, Xstar)``.  :func:`task_block` is the
argument check they all run; :func:`task_weights` the per-task
coregionalization weights of the two LCM-layout backends.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["task_block", "task_weights"]


def task_block(
    tasks: Sequence[int], Xstar: np.ndarray, n_tasks: int
) -> Tuple[List[int], np.ndarray]:
    """Validated ``(task_ids, Xs)`` of a ``predict_tasks(tasks, Xstar)`` call.

    ``Xs`` is ``Xstar`` as floats: one shared ``(N*, β)`` block, or one
    block per task ``(len(tasks), N*, β)``.  Raises ``ValueError`` on an
    empty task list, a task outside ``[0, n_tasks)``, a block count that
    differs from the task count, or any other shape.  Every backend's
    ``predict_tasks`` validates through this one function.
    """
    task_ids = [int(t) for t in tasks]
    if not task_ids:
        raise ValueError("need at least one task")
    for t in task_ids:
        if not 0 <= t < n_tasks:
            raise ValueError("task out of range")
    Xs = np.asarray(Xstar, dtype=float)
    if Xs.ndim == 3 and Xs.shape[0] != len(task_ids):
        raise ValueError(
            f"got {Xs.shape[0]} candidate blocks for {len(task_ids)} task(s)"
        )
    if Xs.ndim not in (2, 3):
        raise ValueError("Xstar must be (N*, beta) or (n_tasks, N*, beta)")
    return task_ids, Xs


def task_weights(
    model, rows: np.ndarray, task: int
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Cached per-(task, θ) prediction constants of an LCM-layout surrogate.

    Returns ``(inv2ls (Q,β), w (Q,n), prior)`` where
    ``w[q,m] = a_{task,q} a_{r_m,q} + b_{task,q} δ_{r_m,task}`` is the
    cross-kernel weight vector of Eq. 5 over the ``n`` rows whose task ids
    are ``rows`` (the training set of :class:`~repro.core.lcm.LCM`, the
    inducing set of :class:`~repro.core.model.sparse_lcm.SparseLCM`) and
    ``prior`` the task's prior variance.  Cached in ``model._pred_cache``, which the
    model's ``fit`` and ``extend`` reset, so the search phase's posterior
    calls stop re-unpacking θ and re-deriving the weights.
    """
    cached = model._pred_cache.get(task)
    if cached is None:
        ls, a, bw, _ = model.params.unpack(model.theta)
        inv2 = 0.5 / (ls * ls)
        w = (a[task][None, :] * a[rows]).T.copy()  # (Q, n)
        w[:, rows == task] += bw[task][:, None]
        prior = float(np.sum(a[task] ** 2 + bw[task]))
        cached = (inv2, w, prior)
        model._pred_cache[task] = cached
    return cached
