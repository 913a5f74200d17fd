"""OpenTuner-style ensemble tuner: AUC multi-armed bandit over techniques.

OpenTuner "relies on meta-heuristics to solve a multi-armed bandit problem
where application runtime (function evaluation) is the resource to be
allocated … in order to adaptively select the best performing method"
(Sec. 5 of the paper).  This reimplementation follows OpenTuner's published
design: each technique is an arm; an arm's exploitation score is the *area
under the curve* (AUC) of its recent new-global-best history over a sliding
window, combined with an exploration bonus ``C·sqrt(2 log t / n)`` (UCB).
Every result is shared with all techniques so arms build on each other's
discoveries, exactly as OpenTuner's shared results database does.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Type

import numpy as np

from ...core.data import TuningData
from ..base import Evaluate, Tuner
from .annealing import SimulatedAnnealingTechnique
from .de import DifferentialEvolutionTechnique
from .ga import GeneticAlgorithmTechnique
from .neldermead import NelderMeadTechnique
from .pattern import PatternSearchTechnique
from .pso_technique import PSOTechnique
from .technique import RandomTechnique, Technique

__all__ = ["OpenTunerTuner", "DEFAULT_TECHNIQUES"]

DEFAULT_TECHNIQUES: Sequence[Type[Technique]] = (
    GeneticAlgorithmTechnique,
    DifferentialEvolutionTechnique,
    SimulatedAnnealingTechnique,
    NelderMeadTechnique,
    PatternSearchTechnique,
    PSOTechnique,
    RandomTechnique,
)


class _Arm:
    """Bandit bookkeeping for one technique."""

    def __init__(self, technique: Technique, window: int):
        self.technique = technique
        self.history: deque = deque(maxlen=window)  # 1 = produced new global best
        self.uses = 0

    def auc(self) -> float:
        """Decayed area under the new-best curve (recent wins count more)."""
        if not self.history:
            return 0.0
        n = len(self.history)
        num = sum((i + 1) * h for i, h in enumerate(self.history))
        den = n * (n + 1) / 2.0
        return num / den


class OpenTunerTuner(Tuner):
    """Ensemble tuner with AUC-bandit technique selection.

    Parameters
    ----------
    techniques:
        Technique classes forming the arms; defaults to OpenTuner's usual
        suite (GA, DE, SA, Nelder–Mead, pattern search, random).
    window:
        Sliding-window length of the AUC credit assignment.
    exploration:
        UCB exploration coefficient C.
    """

    name = "opentuner"

    def __init__(
        self,
        techniques: Optional[Sequence[Type[Technique]]] = None,
        window: int = 50,
        exploration: float = 0.3,
    ):
        self.technique_classes = list(
            DEFAULT_TECHNIQUES if techniques is None else techniques
        )
        if not self.technique_classes:
            raise ValueError("need at least one technique")
        self.window = int(window)
        self.exploration = float(exploration)

    def _loop(
        self,
        data: TuningData,
        evaluate: Evaluate,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        arms: List[_Arm] = [
            _Arm(cls(data.tuning_space, data.tasks[0],
                     np.random.default_rng(rng.integers(2**63))),
                 self.window)
            for cls in self.technique_classes
        ]
        global_best = np.inf
        for step in range(n_samples):
            arm = self._select(arms, step, rng)
            value = evaluate(arm.technique.ask())
            produced_best = value < global_best
            global_best = min(global_best, value)
            arm.uses += 1
            arm.history.append(1.0 if produced_best else 0.0)
            for other in arms:
                other.technique.tell(data.X[0][-1], value, mine=other is arm)

    def _select(self, arms: List[_Arm], step: int, rng: np.random.Generator) -> _Arm:
        # play every arm once, then UCB on AUC scores
        unused = [a for a in arms if a.uses == 0]
        if unused:
            return unused[int(rng.integers(len(unused)))]
        t = max(step, 1)
        scores = [
            a.auc() + self.exploration * np.sqrt(2.0 * np.log(t) / a.uses) for a in arms
        ]
        return arms[int(np.argmax(scores))]
