"""Random search — the stochastic baseline of Sec. 5.

Uniformly samples feasible configurations and keeps the best.  Cheap,
embarrassingly parallel, and surprisingly hard to beat at tiny budgets —
which is why the paper's "small number of allowed runs" regime needs
model-based tuners to show value against it.
"""

from __future__ import annotations

import numpy as np

from ..core.data import TuningData
from ..core.sampling import sample_feasible
from .base import Evaluate, Tuner

__all__ = ["RandomSearchTuner"]


class RandomSearchTuner(Tuner):
    """Uniform random search over the feasible tuning space."""

    name = "random"

    def _loop(
        self,
        data: TuningData,
        evaluate: Evaluate,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        for cfg in sample_feasible(data.tuning_space, n_samples, rng, extra=data.tasks[0]):
            evaluate(cfg)
