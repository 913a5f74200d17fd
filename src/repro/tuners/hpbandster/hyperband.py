"""Hyperband and successive halving — HpBandSter's multi-fidelity half.

Sec. 5 of the paper: "the earlier hyperband is a multi-armed bandit strategy
that dynamically allocates resources to a set of random configurations and
uses successive halving to stop poorly performing configurations.
HpBandSter infuses a model-based search (Bayesian optimization) algorithm
instead of random selection of configurations at the beginning of each
hyperband iteration."  The paper *disables* this feature for its
comparisons (it "requires running applications with varying
fidelity/budgets"); this module implements it anyway so both modes of the
HpBandSter system exist and can be ablated.

Fidelity is expressed through a user callable
``with_fidelity(task, budget) -> task_variant`` — e.g. for the fusion codes
a smaller number of time steps, for iterative solvers a looser tolerance.
Costs are accounted in *fidelity units*: one full-budget evaluation costs
1.0, an evaluation at budget ``b`` costs ``b``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from ...core.data import TuningData
from ...core.sampling import sample_feasible
from ..base import Evaluate, Tuner
from .kde import ProductKDE

__all__ = ["SuccessiveHalvingTuner", "HyperbandTuner"]

FidelityFn = Callable[[Mapping[str, Any], float], Mapping[str, Any]]


class SuccessiveHalvingTuner(Tuner):
    """One successive-halving bracket.

    Starts ``n`` configurations at the lowest budget, keeps the best
    ``1/η`` fraction at each rung, multiplying the budget by ``η`` until
    full fidelity.

    Parameters
    ----------
    with_fidelity:
        Maps ``(task, budget ∈ (0, 1])`` to the reduced-fidelity task.
    eta:
        Halving rate (3 is the hyperband default).
    min_budget:
        Lowest fidelity fraction used.
    """

    name = "successive_halving"

    def __init__(
        self,
        with_fidelity: FidelityFn,
        eta: float = 3.0,
        min_budget: float = 1.0 / 9.0,
    ):
        if eta <= 1.0:
            raise ValueError("eta must exceed 1")
        if not 0.0 < min_budget <= 1.0:
            raise ValueError("min_budget in (0, 1]")
        self.with_fidelity = with_fidelity
        self.eta = float(eta)
        self.min_budget = float(min_budget)

    # -- bracket geometry --------------------------------------------------
    def rungs(self) -> List[float]:
        """Budget ladder from ``min_budget`` to 1.0 by factors of η."""
        out = [1.0]
        while out[-1] / self.eta >= self.min_budget - 1e-12:
            out.append(out[-1] / self.eta)
        return sorted(out)

    def run_bracket(
        self,
        data: TuningData,
        configs: List[Dict[str, Any]],
        evaluate: Evaluate,
    ) -> Tuple[List[Dict[str, Any]], float]:
        """Run one bracket; returns (survivors at full budget, cost units).

        Every evaluation of ``data.tasks[0]`` goes through ``evaluate``, and
        only the *full-fidelity* ones are added to ``data`` (lower rungs
        inform selection only, as in BOHB's incumbent bookkeeping).
        """
        tdict = data.tasks[0]
        cost = 0.0
        survivors = list(configs)
        for budget in self.rungs():
            reduced = data.task_space.to_dict(self.with_fidelity(tdict, budget))
            scored = []
            for cfg in survivors:
                y0 = evaluate(cfg, task=reduced, add=budget >= 1.0 - 1e-12)
                cost += budget
                scored.append((y0, cfg))
            scored.sort(key=lambda s: s[0])
            keep = max(1, int(len(scored) / self.eta)) if budget < 1.0 else len(scored)
            survivors = [cfg for _, cfg in scored[:keep]]
        return survivors, cost

    def _loop(
        self,
        data: TuningData,
        evaluate: Evaluate,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        """Spend ≈ ``n_samples`` full-fidelity-equivalent units on brackets."""
        tdict = data.tasks[0]
        n_rungs = len(self.rungs())
        spent = 0.0
        while spent < n_samples:
            n0 = max(2, int(self.eta ** (n_rungs - 1)))
            configs = sample_feasible(data.tuning_space, n0, rng, extra=tdict)
            _, cost = self.run_bracket(data, configs, evaluate)
            spent += cost


class HyperbandTuner(Tuner):
    """Hyperband with optional BOHB-style KDE sampling of new brackets.

    Cycles over bracket aggressiveness s = s_max … 0 (as in Li et al.
    2017); with ``model=True`` new configurations are drawn from a KDE over
    the best observed configurations instead of uniformly — the "infused
    model-based search" that turns hyperband into HpBandSter.

    Parameters
    ----------
    with_fidelity:
        Budget-reduction callable as in :class:`SuccessiveHalvingTuner`.
    eta, min_budget:
        Bracket geometry.
    model:
        Enable the KDE-guided sampling (BOHB mode).
    """

    name = "hyperband"

    def __init__(
        self,
        with_fidelity: FidelityFn,
        eta: float = 3.0,
        min_budget: float = 1.0 / 9.0,
        model: bool = True,
    ):
        self.sh = SuccessiveHalvingTuner(with_fidelity, eta=eta, min_budget=min_budget)
        self.eta = float(eta)
        self.model = bool(model)

    def _sample_configs(
        self,
        data: TuningData,
        n: int,
        rng: np.random.Generator,
    ) -> List[Dict[str, Any]]:
        space, tdict = data.tuning_space, data.tasks[0]
        if not self.model or data.n_samples(0) < space.dimension + 2:
            return sample_feasible(space, n, rng, extra=tdict)
        X, y, _ = data.stacked()
        order = np.argsort(y, kind="stable")
        good = X[order[: max(2, len(y) // 4)]]
        kde = ProductKDE(good, space.categorical_mask, space.cardinalities)
        out: List[Dict[str, Any]] = []
        draws = kde.sample(4 * n, rng)
        for u in draws:
            cfg = space.denormalize(u)
            if space.is_feasible(cfg, extra=tdict):
                out.append(cfg)
            if len(out) >= n:
                break
        if len(out) < n:
            out.extend(sample_feasible(space, n - len(out), rng, extra=tdict))
        return out

    def _loop(
        self,
        data: TuningData,
        evaluate: Evaluate,
        n_samples: int,
        rng: np.random.Generator,
    ) -> None:
        """Spend ≈ ``n_samples`` full-fidelity-equivalents across brackets."""
        s_max = len(self.sh.rungs()) - 1
        spent, s = 0.0, s_max
        while spent < n_samples:
            n0 = max(2, int(math.ceil((s_max + 1) / (s + 1) * self.eta**s)))
            configs = self._sample_configs(data, n0, rng)
            # bracket s starts at rung index (s_max - s): shrink the ladder
            bracket = SuccessiveHalvingTuner(
                self.sh.with_fidelity,
                eta=self.eta,
                min_budget=self.sh.rungs()[s_max - s],
            )
            _, cost = bracket.run_bracket(data, configs, evaluate)
            spent += cost
            s = s - 1 if s > 0 else s_max
