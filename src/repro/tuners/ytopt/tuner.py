"""ytopt-style tuner: random-forest Bayesian optimization.

ytopt ("machine-learning-based search methods for autotuning", ref. [31] of
the paper) drives its search with scikit-optimize surrogates, most commonly
random forests — the same family as SuRf's [23].  The loop implemented
here:

1. evaluate an initial random design,
2. fit a :class:`~repro.tuners.ytopt.forest.RandomForestRegressor` on the
   normalized (config → objective) data,
3. sample candidate configurations, score them with Expected Improvement
   using the forest's ensemble spread as the predictive deviation, and
   evaluate the best feasible candidate,
4. repeat until the budget is spent.

Forests handle categoricals and conditional plateaus natively (SuRf's
stated strength), at the cost of weaker extrapolation than a GP — which is
exactly the trade the paper's comparisons probe.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...core.acquisition import expected_improvement
from ...core.data import TuningData
from ...core.sampling import sample_feasible
from ..base import Evaluate, Tuner
from .forest import RandomForestRegressor

__all__ = ["YtoptTuner"]


class YtoptTuner(Tuner):
    """Random-forest BO over the tuning space.

    Parameters
    ----------
    n_initial:
        Random evaluations before the model activates (``None`` → β + 1).
    n_candidates:
        Candidate pool size per iteration.
    n_trees, max_depth:
        Forest hyperparameters.
    xi:
        EI exploration margin (subtracted from the incumbent).
    """

    name = "ytopt"

    def __init__(
        self,
        n_initial: Optional[int] = None,
        n_candidates: int = 128,
        n_trees: int = 25,
        max_depth: int = 10,
        xi: float = 0.0,
    ):
        self.n_initial = n_initial
        self.n_candidates = int(n_candidates)
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.xi = float(xi)

    def _loop(
        self,
        data: TuningData,
        evaluate: Evaluate,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        tdict = data.tasks[0]
        space = data.tuning_space
        n_init = (space.dimension + 1) if self.n_initial is None else int(self.n_initial)
        n_init = min(max(2, n_init), n_samples)

        for cfg in sample_feasible(space, n_init, rng, extra=tdict):
            evaluate(cfg)

        while data.n_samples(0) < n_samples:
            X, y, _ = data.stacked()
            # standardize targets so EI scales sanely across applications
            mu0, sd0 = float(y.mean()), float(y.std()) or 1.0
            yt = (y - mu0) / sd0
            forest = RandomForestRegressor(
                n_trees=self.n_trees,
                max_depth=self.max_depth,
                seed=int(rng.integers(2**63)),
            ).fit(X, yt)

            cands = rng.random((self.n_candidates, space.dimension))
            mean, std = forest.predict(cands, return_std=True)
            ei = expected_improvement(mean, std**2, float(yt.min()) - self.xi)
            picked = None
            for i in np.argsort(-ei, kind="stable"):
                cfg = space.denormalize(cands[i])
                if space.is_feasible(cfg, extra=tdict):
                    picked = cfg
                    break
            if picked is None:
                picked = sample_feasible(space, 1, rng, extra=tdict)[0]
            evaluate(picked)
