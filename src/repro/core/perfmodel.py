"""Incorporation of coarse performance models (Sec. 3.3).

A *performance model* is an analytical formula ``ỹ(t, x)`` for some feature
of the objective (time, flops, message counts, communication volume).  GPTune
folds such models into the LCM by **feature enrichment**: instead of building
the kernel over the β-dimensional point ``x``, it is built over the
(β + γ̃)-dimensional point ``[x, ỹ_1(t,x), …, ỹ_γ̃(t,x)]``.  The LCM matrix
keeps its ``εδ × εδ`` size; only the inputs gain columns.

Models may carry their own hyperparameters (e.g. the machine coefficients
``t_flop, t_msg, t_vol`` of Eq. 7).  Those are re-estimated from the samples
collected so far, in a *model-update phase* inserted before each modeling
phase (the paper notes a bad fixed estimate is worse than no model at all).
:class:`LinearPerformanceModel` implements the common case where the model is
linear in its hyperparameters — Eq. 7 exactly — fitted by non-negative least
squares.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["PerformanceModel", "CallableModel", "LinearPerformanceModel", "ModelFeaturizer"]


class PerformanceModel:
    """Interface for a coarse performance model with optional hyperparameters."""

    def predict(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> float:
        """Evaluate ``ỹ(t, x)``."""
        raise NotImplementedError

    def update(
        self,
        tasks: Sequence[Mapping[str, Any]],
        configs: Sequence[Mapping[str, Any]],
        y: np.ndarray,
    ) -> None:
        """Refit internal hyperparameters from observed ``(t, x, y)`` samples.

        Default: nothing to fit.
        """

    def state_token(self) -> Optional[Any]:
        """Hashable token identifying the current hyperparameter state.

        Cached per-sample predictions made under one token stay valid as
        long as the token is unchanged; ``None`` (the default) means the
        model cannot vouch for its own statelessness, so callers must
        recompute predictions every phase.  Models whose :meth:`update` is
        a no-op should return a constant.
        """
        return None

    def get_state(self) -> Optional[Any]:
        """JSON-serializable hyperparameter state, or ``None`` if stateless."""
        return None

    def set_state(self, state: Any) -> None:
        """Restore hyperparameters written by :meth:`get_state`."""


class CallableModel(PerformanceModel):
    """Adapter wrapping a plain function ``(task, config) -> float``."""

    def __init__(self, fn: Callable[[Mapping[str, Any], Mapping[str, Any]], float]):
        self.fn = fn

    def predict(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> float:
        return float(self.fn(task, config))

    def state_token(self) -> Optional[Any]:
        return ()  # no hyperparameters; predictions never go stale


class LinearPerformanceModel(PerformanceModel):
    """Model linear in unknown machine coefficients (Eq. 7).

    ``ỹ(t, x) = Σ_k c_k · φ_k(t, x)`` where the features φ are known counts
    (e.g. ``C_flop, C_msg, C_vol`` from Eqs. 8–10) and the coefficients c are
    fitted to observed objective values by non-negative least squares each
    model-update phase.

    Parameters
    ----------
    features:
        Callables ``(task, config) -> float`` computing each count φ_k.
    initial_coefficients:
        Starting guess for the c_k (used before any data arrives).
    """

    def __init__(
        self,
        features: Sequence[Callable[[Mapping[str, Any], Mapping[str, Any]], float]],
        initial_coefficients: Optional[Sequence[float]] = None,
    ):
        # scipy.optimize takes ~0.2 s to import: only a campaign with a
        # linear model pays it, while its problem is built
        from scipy.optimize import nnls

        self._nnls = nnls
        self.features = list(features)
        if not self.features:
            raise ValueError("need at least one feature")
        if initial_coefficients is None:
            self.coefficients = np.full(len(self.features), 1.0)
        else:
            self.coefficients = np.asarray(initial_coefficients, dtype=float)
            if self.coefficients.shape != (len(self.features),):
                raise ValueError("coefficient/feature length mismatch")
        self.n_updates = 0

    def _phi(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> np.ndarray:
        return np.array([f(task, config) for f in self.features], dtype=float)

    def predict(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> float:
        return float(self._phi(task, config) @ self.coefficients)

    def update(
        self,
        tasks: Sequence[Mapping[str, Any]],
        configs: Sequence[Mapping[str, Any]],
        y: np.ndarray,
    ) -> None:
        """Refit coefficients by NNLS on the accumulated samples."""
        y = np.asarray(y, dtype=float).ravel()
        if y.size < len(self.features):
            return  # underdetermined; keep current estimate
        Phi = np.vstack([self._phi(t, x) for t, x in zip(tasks, configs)])
        # scale columns for conditioning, then solve the non-negative LS
        scale = np.maximum(np.abs(Phi).max(axis=0), 1e-300)
        coef, _ = self._nnls(Phi / scale, y)
        self.coefficients = coef / scale
        self.n_updates += 1

    def state_token(self) -> Optional[Any]:
        # the coefficients alone: an update that converged to the same
        # values leaves cached predictions valid
        return (self.coefficients.tobytes(),)

    def get_state(self) -> Optional[Any]:
        return {
            "coefficients": [float(c) for c in self.coefficients],
            "n_updates": int(self.n_updates),
        }

    def set_state(self, state: Any) -> None:
        coef = np.asarray(state["coefficients"], dtype=float)
        if coef.shape != (len(self.features),):
            raise ValueError("coefficient/feature length mismatch in state")
        self.coefficients = coef
        self.n_updates = int(state["n_updates"])


class ModelFeaturizer:
    """Builds model-enriched normalized inputs for the LCM.

    Appends each model's prediction — rescaled to roughly ``[0, 1]`` using
    running min/max over everything seen so far — as extra kernel features
    (Sec. 3.3).  The same instance must transform both the training samples
    and the acquisition candidates so the feature scaling stays consistent
    within one modeling/search iteration; a campaign keeps one instance.
    """

    def __init__(self, models: Sequence[Any]):
        self.models: List[PerformanceModel] = [
            m if isinstance(m, PerformanceModel) else CallableModel(m) for m in models
        ]
        self._lo = np.full(len(self.models), np.inf)
        self._hi = np.full(len(self.models), -np.inf)

    @property
    def n_features(self) -> int:
        """γ̃ — number of appended feature columns."""
        return len(self.models)

    def update_hyperparameters(
        self,
        tasks: Sequence[Mapping[str, Any]],
        configs: Sequence[Mapping[str, Any]],
        y: np.ndarray,
    ) -> None:
        """Model-update phase: refit every model's hyperparameters."""
        for m in self.models:
            m.update(tasks, configs, np.asarray(y, dtype=float))

    def raw(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> np.ndarray:
        """Unscaled model outputs ``(γ̃,)`` at one point."""
        return np.array([m.predict(task, config) for m in self.models], dtype=float)

    def observe(self, values: np.ndarray, reset: bool = False) -> None:
        """Fold raw model outputs into the running normalization range.

        ``reset`` starts the range over from ``values``: a full model update
        re-estimates it from every sample under the new hyperparameters.
        """
        v = np.atleast_2d(np.asarray(values, dtype=float))
        if reset:
            self._lo = np.full(self.n_features, np.inf)
            self._hi = np.full(self.n_features, -np.inf)
        self._lo = np.minimum(self._lo, v.min(axis=0))
        self._hi = np.maximum(self._hi, v.max(axis=0))

    def scale(self, values: np.ndarray) -> np.ndarray:
        """Map raw model outputs onto ``[0, 1]`` with the running range."""
        v = np.atleast_2d(np.asarray(values, dtype=float))
        span = np.where(self._hi > self._lo, self._hi - self._lo, 1.0)
        lo = np.where(np.isfinite(self._lo), self._lo, 0.0)
        return np.clip((v - lo) / span, -1.0, 2.0)

    def enrich(
        self,
        task: Mapping[str, Any],
        configs: Sequence[Mapping[str, Any]],
        Xunit: np.ndarray,
        observe: bool = False,
    ) -> np.ndarray:
        """Append scaled model features to normalized inputs.

        Parameters
        ----------
        task:
            The task the configurations belong to.
        configs:
            Native configurations matching the rows of ``Xunit``.
        Xunit:
            ``(n, β)`` normalized inputs.
        observe:
            Whether these points extend the normalization range (True for
            training data, False for acquisition candidates).
        """
        Xunit = np.atleast_2d(np.asarray(Xunit, dtype=float))
        raw = np.vstack([self.raw(task, c) for c in configs])
        if observe:
            self.observe(raw)
        return np.hstack([Xunit, self.scale(raw)])

    def state_token(self) -> Optional[Any]:
        """Combined token over every model's hyperparameter state.

        The running normalization range is deliberately excluded: cached
        *raw* rows depend only on the models' coefficients (scaling is
        applied after caching).  ``None`` when any model cannot produce a
        token — cached raw rows are then invalid as soon as a model-update
        phase ran.
        """
        parts = []
        for m in self.models:
            t = m.state_token()
            if t is None:
                return None
            parts.append(t)
        return tuple(parts)

    def get_state(self) -> Any:
        """JSON-serializable snapshot of the running range + model states."""
        return {
            "lo": [float(v) for v in self._lo],
            "hi": [float(v) for v in self._hi],
            "models": [m.get_state() for m in self.models],
        }

    def set_state(self, state: Any) -> None:
        """Restore a :meth:`get_state` snapshot onto the same model list."""
        lo = np.asarray(state["lo"], dtype=float)
        hi = np.asarray(state["hi"], dtype=float)
        if lo.shape != self._lo.shape or hi.shape != self._hi.shape:
            raise ValueError("featurizer state has a different model count")
        self._lo, self._hi = lo, hi
        for m, s in zip(self.models, state["models"]):
            if s is not None:
                m.set_state(s)
