"""HpBandSter-style tuner: TPE Bayesian optimization.

HpBandSter combines hyperband with a model-based search; the paper disables
the multi-armed-bandit (multi-fidelity) part for the comparison (Sec. 6.6),
leaving the kernel-density BO loop implemented here:

1. split observed configurations into *good* (best γ-quantile) and *bad*
   sets once enough data exists,
2. fit product KDEs ``l(x)`` (good) and ``g(x)`` (bad),
3. sample candidates from ``l`` and evaluate the one maximizing the density
   ratio ``l(x)/g(x)`` — which HpBandSter uses in place of directly
   optimizing EI ("this is faster, but less accurate", Sec. 5).

Before the model activates (or with probability ``random_fraction``) a
uniform feasible configuration is evaluated, as in the original.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...core.data import TuningData
from ...core.sampling import sample_feasible
from ..base import Evaluate, Tuner
from .kde import ProductKDE

__all__ = ["HpBandSterTuner"]


class HpBandSterTuner(Tuner):
    """TPE/KDE Bayesian optimization (bandit feature disabled).

    Parameters
    ----------
    gamma:
        Fraction of observations forming the *good* KDE (HpBandSter default
        0.15, floored so both sets stay non-degenerate).
    n_candidates:
        Candidates sampled from ``l(x)`` per iteration.
    random_fraction:
        Probability of a uniform random evaluation each iteration (keeps
        exploration alive; HpBandSter's default is 1/3, we default to 0.2 —
        the pure-BO setting used when the bandit is disabled).
    min_points:
        Observations required before the model activates
        (``d + 1`` when None, HpBandSter's ``min_points_in_model``).
    """

    name = "hpbandster"

    def __init__(
        self,
        gamma: float = 0.15,
        n_candidates: int = 64,
        random_fraction: float = 0.2,
        min_points: Optional[int] = None,
    ):
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma in (0,1)")
        self.gamma = float(gamma)
        self.n_candidates = int(n_candidates)
        self.random_fraction = float(random_fraction)
        self.min_points = min_points

    def _loop(
        self,
        data: TuningData,
        evaluate: Evaluate,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        tdict = data.tasks[0]
        space = data.tuning_space
        d = space.dimension
        min_points = (d + 1) if self.min_points is None else int(self.min_points)
        cat_mask = space.categorical_mask
        cards = space.cardinalities

        for _ in range(n_samples):
            use_model = (
                data.n_samples(0) >= max(min_points, 3) and rng.random() >= self.random_fraction
            )
            if not use_model:
                evaluate(sample_feasible(space, 1, rng, extra=tdict)[0])
                continue

            X, y, _ = data.stacked()
            n_good = max(2, int(np.ceil(self.gamma * len(y))))
            n_good = min(n_good, len(y) - 2) if len(y) >= 4 else max(1, len(y) - 1)
            order = np.argsort(y, kind="stable")
            good, bad = X[order[:n_good]], X[order[n_good:]]
            if bad.shape[0] < 1:
                bad = X
            l_kde = ProductKDE(good, cat_mask, cards)
            g_kde = ProductKDE(bad, cat_mask, cards)

            cands = l_kde.sample(self.n_candidates, rng)
            ratio = l_kde.pdf(cands) / np.maximum(g_kde.pdf(cands), 1e-300)
            # best feasible candidate by density ratio
            cfg = None
            for i in np.argsort(-ratio, kind="stable"):
                c = space.denormalize(cands[i])
                if space.is_feasible(c, extra=tdict):
                    cfg = c
                    break
            if cfg is None:
                cfg = sample_feasible(space, 1, rng, extra=tdict)[0]
            evaluate(cfg)
