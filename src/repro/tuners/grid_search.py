"""Grid search — the exhaustive-search baseline of Sec. 5.

Evaluates a full-factorial grid (as fine as the budget allows) of feasible
configurations.  Included to demonstrate the curse of dimensionality the
paper cites: the per-dimension resolution achievable with a fixed budget
collapses as β grows.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping

import numpy as np

from ..core.data import TuningData
from ..core.params import Categorical
from ..core.sampling import sample_feasible
from ..core.space import MAX_GRID_POINTS, Space
from .base import Evaluate, Tuner

__all__ = ["GridSearchTuner"]

#: grid points whose feasibility is checked in one batch of columns
_BLOCK = 1 << 16


def _feasible_points(space: Space, axes: List[list], extra: Mapping[str, Any]) -> np.ndarray:
    """Flat indices of the feasible points of the grid over ``axes``.

    Point ``f`` has coordinates ``np.unravel_index(f, shape)`` (the last axis
    varies fastest, as in :meth:`Space.grid`).  Feasibility is checked over
    native-valued columns (:meth:`Space.columns_mask`), a block of points
    at a time, so no configuration dict is built here.
    """
    shape = tuple(len(a) for a in axes)
    total = math.prod(shape)
    if not space.constraints:
        return np.arange(total)
    values = []
    for p, axis in zip(space.parameters, axes):
        if isinstance(p, Categorical):  # choices stay Python objects, as in denormalize_array
            col = np.empty(len(axis), dtype=object)
            for i, v in enumerate(axis):
                col[i] = v
        else:
            col = np.asarray(axis)
        values.append(col)
    kept = []
    for lo in range(0, total, _BLOCK):
        flat = np.arange(lo, min(total, lo + _BLOCK))
        coords = np.unravel_index(flat, shape)
        cols = {p.name: v[c] for p, v, c in zip(space.parameters, values, coords)}
        kept.append(flat[space.columns_mask(cols, flat.size, extra)])
    return np.concatenate(kept)


class GridSearchTuner(Tuner):
    """Full-factorial grid search truncated to the evaluation budget.

    Even the coarsest grid has ``2^β`` points; past
    :data:`~repro.core.space.MAX_GRID_POINTS` (β ≥ 20) no grid is built and
    the whole budget goes to random feasible points.
    """

    name = "grid"

    def _loop(
        self,
        data: TuningData,
        evaluate: Evaluate,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        space, tdict = data.tuning_space, data.tasks[0]
        # the finest symmetric grid that fits the budget
        per_dim = max(2, int(np.floor(n_samples ** (1.0 / space.dimension))))
        axes = [p.grid(per_dim) for p in space.parameters]
        shape = tuple(len(a) for a in axes)
        points = np.empty(0, dtype=np.int64)
        if math.prod(shape) <= MAX_GRID_POINTS:
            points = _feasible_points(space, axes, tdict)
        if points.size > n_samples:
            keep = rng.choice(points.size, size=n_samples, replace=False)
            points = points[np.sort(keep)]
        # configurations only for the points that are evaluated
        for coords in zip(*np.unravel_index(points, shape)):
            evaluate({p.name: axis[c] for p, axis, c in zip(space.parameters, axes, coords)})
        # spend any remaining budget on random feasible points
        remaining = n_samples - data.n_samples(0)
        if remaining > 0:
            for cfg in sample_feasible(space, remaining, rng, extra=tdict):
                evaluate(cfg)
