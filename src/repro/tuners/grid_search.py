"""Grid search — the exhaustive-search baseline of Sec. 5.

Evaluates a full-factorial grid (as fine as the budget allows) of feasible
configurations.  Included to demonstrate the curse of dimensionality the
paper cites: the per-dimension resolution achievable with a fixed budget
collapses as β grows.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.data import TuningData
from ..core.sampling import sample_feasible
from ..core.space import MAX_GRID_POINTS
from .base import Evaluate, Tuner

__all__ = ["GridSearchTuner"]


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
        grid = []
        if math.prod(len(p.grid(per_dim)) for p in space.parameters) <= MAX_GRID_POINTS:
            grid = [cfg for cfg in space.grid(per_dim) if space.is_feasible(cfg, extra=tdict)]
        if len(grid) > n_samples:
            keep = rng.choice(len(grid), size=n_samples, replace=False)
            grid = [grid[i] for i in sorted(keep)]
        for cfg in grid[:n_samples]:
            evaluate(cfg)
        # spend any remaining budget on random feasible points
        remaining = n_samples - data.n_samples(0)
        if remaining > 0:
            for cfg in sample_feasible(space, remaining, rng, extra=tdict):
                evaluate(cfg)
