"""Parameter types for task and tuning spaces.

GPTune describes each task parameter and tuning parameter as one of three
types (Sec. 2 of the paper): *real*, *integer*, or *categorical* (a list of
discrete possibilities such as algorithm choices).  Every parameter knows how
to map its native values onto the unit interval ``[0, 1]`` and back; the
Gaussian-process machinery (kernels, LCM, acquisition search) always operates
in that normalized space, exactly as the reference GPTune implementation does.

The classes here are deliberately immutable value objects: a
:class:`~repro.core.space.Space` is a tuple of parameters plus constraints.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

__all__ = ["Parameter", "Real", "Integer", "Categorical"]


def _clip_unit(unit: Any) -> np.ndarray:
    """Element-wise ``min(1.0, max(0.0, u))`` as a float array (NaN -> 0.0)."""
    return np.fmin(1.0, np.fmax(0.0, np.asarray(unit, dtype=float)))


def _exp(x: np.ndarray) -> np.ndarray:
    """Element-wise ``math.exp``.

    ``np.exp`` differs from libm's ``exp`` in the last bit for a few percent
    of inputs, which would move log-scale integers across rounding edges and
    break equality with the scalar :meth:`Parameter.denormalize`.
    """
    return np.fromiter(map(math.exp, x.tolist()), dtype=float, count=x.size)


def _object_array(values: Sequence[Any]) -> np.ndarray:
    """1-D object array holding ``values`` as-is (tuples stay elements)."""
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


class Parameter:
    """Abstract base class for a single named parameter.

    Subclasses implement the bijection (up to rounding) between native values
    and the normalized unit interval:

    * :meth:`normalize` maps a native value to ``[0, 1]``.
    * :meth:`denormalize` maps a point of ``[0, 1]`` back to a native value.
    * :meth:`sample` draws a uniform random native value.

    Parameters
    ----------
    name:
        Identifier used in configuration dictionaries and constraint
        expressions.  Must be a valid Python identifier so constraints can be
        written as plain expressions over parameter names.
    """

    def __init__(self, name: str):
        if not name.isidentifier():
            raise ValueError(f"parameter name {name!r} is not a valid identifier")
        self.name = name

    # -- interface -------------------------------------------------------
    def normalize(self, value: Any) -> float:
        """Map a native value onto ``[0, 1]``."""
        raise NotImplementedError

    def denormalize(self, unit: float) -> Any:
        """Map a point of ``[0, 1]`` back to a native value."""
        raise NotImplementedError

    def denormalize_array(self, unit: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`denormalize` over a 1-D array of unit values.

        Element ``i`` equals ``denormalize(unit[i])`` exactly (same clipping,
        cells and rounding); categories come back as an object array.
        """
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniformly random native value."""
        return self.denormalize(float(rng.random()))

    @property
    def is_categorical(self) -> bool:
        """Whether the parameter is a discrete choice list."""
        return False

    @property
    def cardinality(self) -> float:
        """Number of distinct values (``math.inf`` for reals)."""
        return math.inf

    def grid(self, n: int) -> list:
        """Return up to ``n`` evenly spaced native values (for grid search)."""
        n = max(int(n), 1)
        return [self.denormalize(u) for u in np.linspace(0.0, 1.0, n)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))


class Real(Parameter):
    """A real-valued parameter on a closed interval ``[lb, ub]``.

    Parameters
    ----------
    name:
        Parameter name.
    lb, ub:
        Inclusive bounds, ``lb < ub``.
    transform:
        ``"linear"`` (default) or ``"log"``.  With ``"log"`` the unit
        interval maps to the interval geometrically, which is the right
        choice for scale-like parameters (e.g. tolerance thresholds).
    """

    def __init__(self, name: str, lb: float, ub: float, transform: str = "linear"):
        super().__init__(name)
        lb, ub = float(lb), float(ub)
        if not lb < ub:
            raise ValueError(f"{name}: need lb < ub, got [{lb}, {ub}]")
        if transform not in ("linear", "log"):
            raise ValueError(f"{name}: unknown transform {transform!r}")
        if transform == "log" and lb <= 0:
            raise ValueError(f"{name}: log transform requires lb > 0")
        self.lb, self.ub, self.transform = lb, ub, transform

    def normalize(self, value: Any) -> float:
        v = float(value)
        if self.transform == "log":
            u = (math.log(v) - math.log(self.lb)) / (math.log(self.ub) - math.log(self.lb))
        else:
            u = (v - self.lb) / (self.ub - self.lb)
        return min(1.0, max(0.0, u))

    def denormalize(self, unit: float) -> float:
        u = min(1.0, max(0.0, float(unit)))
        if self.transform == "log":
            return math.exp(math.log(self.lb) + u * (math.log(self.ub) - math.log(self.lb)))
        return self.lb + u * (self.ub - self.lb)

    def denormalize_array(self, unit: np.ndarray) -> np.ndarray:
        u = _clip_unit(unit)
        if self.transform == "log":
            return _exp(math.log(self.lb) + u * (math.log(self.ub) - math.log(self.lb)))
        return self.lb + u * (self.ub - self.lb)

    def __repr__(self) -> str:
        return f"Real({self.name!r}, {self.lb}, {self.ub}, {self.transform!r})"


class Integer(Parameter):
    """An integer parameter on the inclusive range ``[lb, ub]``.

    The unit interval is partitioned into ``ub - lb + 1`` equal cells so that
    every integer value owns the same normalized measure; this keeps random
    sampling in normalized space uniform over the integers.

    Parameters
    ----------
    name:
        Parameter name.
    lb, ub:
        Inclusive integer bounds, ``lb <= ub``.
    transform:
        ``"linear"`` (default) or ``"log"`` (geometric spacing; needs
        ``lb >= 1``).
    """

    def __init__(self, name: str, lb: int, ub: int, transform: str = "linear"):
        super().__init__(name)
        lb, ub = int(lb), int(ub)
        if lb > ub:
            raise ValueError(f"{name}: need lb <= ub, got [{lb}, {ub}]")
        if transform not in ("linear", "log"):
            raise ValueError(f"{name}: unknown transform {transform!r}")
        if transform == "log" and lb < 1:
            raise ValueError(f"{name}: log transform requires lb >= 1")
        self.lb, self.ub, self.transform = lb, ub, transform

    @property
    def cardinality(self) -> float:
        return self.ub - self.lb + 1

    def normalize(self, value: Any) -> float:
        v = int(round(float(value)))
        v = min(self.ub, max(self.lb, v))
        if self.transform == "log":
            if self.ub == self.lb:
                return 0.5
            u = (math.log(v) - math.log(self.lb)) / (math.log(self.ub) - math.log(self.lb))
            return min(1.0, max(0.0, u))
        # cell-centre encoding: integer k occupies [(k-lb)/n, (k-lb+1)/n)
        n = self.cardinality
        return (v - self.lb + 0.5) / n

    def denormalize(self, unit: float) -> int:
        u = min(1.0, max(0.0, float(unit)))
        if self.transform == "log":
            v = math.exp(math.log(self.lb) + u * (math.log(max(self.ub, 1)) - math.log(self.lb)))
            return min(self.ub, max(self.lb, int(round(v))))
        n = self.cardinality
        k = int(u * n)  # u == 1.0 falls into the last cell below
        return min(self.ub, self.lb + k)

    def denormalize_array(self, unit: np.ndarray) -> np.ndarray:
        u = _clip_unit(unit)
        if self.transform == "log":
            v = _exp(math.log(self.lb) + u * (math.log(max(self.ub, 1)) - math.log(self.lb)))
            # np.rint rounds half to even, like the scalar path's round()
            return np.minimum(self.ub, np.maximum(self.lb, np.rint(v).astype(np.int64)))
        return np.minimum(self.ub, self.lb + (u * self.cardinality).astype(np.int64))

    def grid(self, n: int) -> list:
        vals = sorted({self.denormalize(u) for u in np.linspace(0.0, 1.0, max(int(n), 1))})
        return vals

    def __repr__(self) -> str:
        return f"Integer({self.name!r}, {self.lb}, {self.ub}, {self.transform!r})"


class Categorical(Parameter):
    """A categorical parameter over an explicit list of choices.

    Categories are encoded as equal-width cells of ``[0, 1]`` in the given
    order.  The kernel treats nearby cells as "similar", which matches the
    reference GPTune behaviour of projecting categoricals onto a continuous
    axis; order your categories so that semantically close choices are
    adjacent when that structure exists.

    Parameters
    ----------
    name:
        Parameter name.
    categories:
        Non-empty sequence of distinct, hashable choices.
    """

    def __init__(self, name: str, categories: Sequence[Any]):
        super().__init__(name)
        cats = list(categories)
        if not cats:
            raise ValueError(f"{name}: need at least one category")
        if len(set(map(repr, cats))) != len(cats):
            raise ValueError(f"{name}: duplicate categories")
        self.categories = cats
        self._index = {repr(c): i for i, c in enumerate(cats)}

    @property
    def is_categorical(self) -> bool:
        return True

    @property
    def cardinality(self) -> float:
        return len(self.categories)

    def normalize(self, value: Any) -> float:
        try:
            i = self._index[repr(value)]
        except KeyError:
            raise ValueError(f"{self.name}: {value!r} is not a category") from None
        return (i + 0.5) / len(self.categories)

    def denormalize(self, unit: float) -> Any:
        u = min(1.0, max(0.0, float(unit)))
        k = min(len(self.categories) - 1, int(u * len(self.categories)))
        return self.categories[k]

    def denormalize_array(self, unit: np.ndarray) -> np.ndarray:
        n = len(self.categories)
        k = np.minimum(n - 1, (_clip_unit(unit) * n).astype(np.int64))
        return _object_array(self.categories)[k]

    def grid(self, n: int) -> list:
        return list(self.categories[: max(int(n), 1)]) if n < len(self.categories) else list(self.categories)

    def __repr__(self) -> str:
        return f"Categorical({self.name!r}, {self.categories!r})"
