"""Parameter spaces and constraints.

A :class:`Space` bundles an ordered list of :class:`~repro.core.params.Parameter`
objects with a set of feasibility constraints.  GPTune uses three such spaces
(Table 1 of the paper):

* ``IS`` — the task parameter input space (dimension α),
* ``PS`` — the tuning parameter space (dimension β),
* ``OS`` — the output space (dimension γ; for outputs the "parameters" are
  just named :class:`~repro.core.params.Real` metrics).

Constraints are predicates over *named* parameter values, e.g. the ScaLAPACK
process-grid constraint ``p_r <= p`` from Sec. 2.  They may be Python
callables accepting keyword arguments, or strings evaluated with the
parameter names in scope.  Constraints may also reference task-parameter
names; :meth:`Space.is_feasible` accepts extra bindings for that purpose.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from .params import Parameter

__all__ = ["Space", "Constraint"]

#: largest full-factorial grid :meth:`Space.grid` enumerates
MAX_GRID_POINTS = 1_000_000

ConstraintLike = Union[str, Callable[..., bool]]


class Constraint:
    """A feasibility predicate over named parameter values.

    Parameters
    ----------
    expr:
        Either a string such as ``"p_r * p_c <= p"`` — evaluated with the
        parameter bindings as locals and ``numpy`` available as ``np`` — or a
        callable invoked with the bindings as keyword arguments.  Callables
        are inspected for their accepted keywords so that constraints can be
        written over any subset of parameters.
    name:
        Optional label used in error messages.

    String expressions are compiled once, here; a syntax error raises
    :class:`ValueError` naming the constraint.
    """

    def __init__(self, expr: ConstraintLike, name: Optional[str] = None):
        self.expr = expr
        self.name = name or (expr if isinstance(expr, str) else getattr(expr, "__name__", "constraint"))
        if callable(expr):
            import inspect

            sig = inspect.signature(expr)
            has_var_kw = any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()
            )
            self._kwargs: Optional[frozenset] = None if has_var_kw else frozenset(sig.parameters)
        else:
            self._kwargs = None
        self._compile()
        # whether mask() tries evaluating the expression over whole columns;
        # cleared the first time that fails, so the failure is paid once
        self._vectorize = self._code is not None

    def _compile(self) -> None:
        self._code = None
        if callable(self.expr):
            return
        try:
            self._code = compile(self.expr, f"<constraint {self.name}>", "eval")
        except SyntaxError as e:
            raise ValueError(f"constraint {self.name!r} is not a valid expression: {e.msg}") from e

    def __getstate__(self) -> Dict[str, Any]:
        # code objects do not pickle; __setstate__ recompiles
        state = self.__dict__.copy()
        state.pop("_code", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._compile()

    def __call__(self, bindings: Mapping[str, Any]) -> bool:
        if self._code is None:
            if self._kwargs is None:
                return bool(self.expr(**bindings))
            kw = {k: v for k, v in bindings.items() if k in self._kwargs}
            return bool(self.expr(**kw))
        scope = dict(bindings)
        scope["np"] = np
        return bool(eval(self._code, {"__builtins__": {}}, scope))  # noqa: S307 - sandboxed

    def mask(
        self,
        columns: Mapping[str, np.ndarray],
        n: int,
        extra: Optional[Mapping[str, Any]] = None,
    ) -> np.ndarray:
        """Evaluate the constraint on ``n`` rows given as parameter columns.

        ``columns`` maps parameter names to length-``n`` arrays (see
        :meth:`Space.denormalize_columns`); ``extra`` holds scalar bindings
        such as task parameters.  A string expression is evaluated once over
        the whole columns.  Element ``i`` of the result equals the row-wise
        call on row ``i``'s bindings.

        Callables, and expressions that raise on arrays (``and`` / ``or`` /
        ``not`` need scalars) or give a result of the wrong shape, fall back
        to the row-wise loop.  A scalar result broadcasts only when the
        expression names no column.
        """
        if self._vectorize:
            scope = dict(extra or {})
            scope.update(columns)
            scope["np"] = np
            try:
                with np.errstate(all="raise"):
                    res = np.asarray(eval(self._code, {"__builtins__": {}}, scope))  # noqa: S307
            except Exception:
                # any expression can fail on arrays in its own way; the
                # row-wise loop below re-raises the errors that are genuine
                res = None
            if res is not None:
                if res.shape == (n,):
                    return res.astype(bool)
                if res.shape == () and columns.keys().isdisjoint(self._code.co_names):
                    return np.full(n, bool(res))
            self._vectorize = False
        base = dict(extra or {})
        rows = {k: np.asarray(v).tolist() for k, v in columns.items()}
        out = np.empty(n, dtype=bool)
        for i in range(n):
            bindings = dict(base)
            for k, vals in rows.items():
                bindings[k] = vals[i]
            out[i] = self(bindings)
        return out

    def __repr__(self) -> str:
        return f"Constraint({self.name!r})"


class Space:
    """An ordered collection of parameters with feasibility constraints.

    Parameters
    ----------
    parameters:
        Ordered parameters; their order defines the layout of normalized
        vectors.
    constraints:
        Iterable of :class:`Constraint`, strings, or callables.  A point is
        feasible iff every constraint evaluates truthy.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Iterable[ConstraintLike] = (),
    ):
        params = list(parameters)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        self.parameters: List[Parameter] = params
        self.names: List[str] = names
        self.constraints: List[Constraint] = [
            c if isinstance(c, Constraint) else Constraint(c) for c in constraints
        ]
        self._by_name: Dict[str, Parameter] = {p.name: p for p in params}

    # -- basic container behaviour ----------------------------------------
    @property
    def dimension(self) -> int:
        """Number of parameters (β for the tuning space, α for tasks)."""
        return len(self.parameters)

    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self):
        return iter(self.parameters)

    def __getitem__(self, key: Union[int, str]) -> Parameter:
        if isinstance(key, str):
            return self._by_name[key]
        return self.parameters[key]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __repr__(self) -> str:
        return f"Space({self.parameters!r}, constraints={[c.name for c in self.constraints]!r})"

    # -- dict <-> vector conversions ---------------------------------------
    def to_dict(self, values: Union[Mapping[str, Any], Sequence[Any]]) -> Dict[str, Any]:
        """Coerce a mapping or positional sequence of native values to a dict."""
        if isinstance(values, Mapping):
            missing = [n for n in self.names if n not in values]
            if missing:
                raise KeyError(f"missing parameters: {missing}")
            return {n: values[n] for n in self.names}
        vals = list(values)
        if len(vals) != len(self.names):
            raise ValueError(f"expected {len(self.names)} values, got {len(vals)}")
        return dict(zip(self.names, vals))

    def normalize(self, values: Union[Mapping[str, Any], Sequence[Any]]) -> np.ndarray:
        """Map native values to a point of the unit hypercube."""
        d = self.to_dict(values)
        return np.array([p.normalize(d[p.name]) for p in self.parameters], dtype=float)

    def denormalize(self, unit: Sequence[float]) -> Dict[str, Any]:
        """Map a unit-hypercube point back to native values."""
        u = np.asarray(unit, dtype=float)
        if u.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {u.shape}")
        return {p.name: p.denormalize(u[i]) for i, p in enumerate(self.parameters)}

    def normalize_many(self, rows: Iterable[Union[Mapping[str, Any], Sequence[Any]]]) -> np.ndarray:
        """Vectorized :meth:`normalize` over an iterable of points."""
        rows = list(rows)
        out = np.empty((len(rows), self.dimension), dtype=float)
        for i, r in enumerate(rows):
            out[i] = self.normalize(r)
        return out

    def denormalize_many(self, units: np.ndarray) -> List[Dict[str, Any]]:
        """Vectorized :meth:`denormalize`."""
        units = np.atleast_2d(np.asarray(units, dtype=float))
        return [self.denormalize(u) for u in units]

    def denormalize_columns(self, units: np.ndarray) -> Dict[str, np.ndarray]:
        """Map ``(n, dim)`` unit rows to native-valued columns by name.

        ``columns[name][i]`` equals ``denormalize(units[i])[name]``.
        """
        U = np.atleast_2d(np.asarray(units, dtype=float))
        if U.ndim != 2 or U.shape[1] != self.dimension:
            raise ValueError(f"expected shape (n, {self.dimension}), got {U.shape}")
        return {p.name: p.denormalize_array(U[:, i]) for i, p in enumerate(self.parameters)}

    # -- feasibility --------------------------------------------------------
    def is_feasible(
        self,
        values: Union[Mapping[str, Any], Sequence[Any]],
        extra: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """Check all constraints at a native-valued point.

        ``extra`` supplies additional bindings (typically the task
        parameters) visible to constraints.
        """
        bindings = dict(extra or {})
        bindings.update(self.to_dict(values))
        return all(c(bindings) for c in self.constraints)

    def feasible_mask(
        self, units: np.ndarray, extra: Optional[Mapping[str, Any]] = None
    ) -> np.ndarray:
        """Feasibility of ``(n, dim)`` unit rows as an ``(n,)`` boolean mask.

        Element ``i`` equals ``is_feasible(denormalize(units[i]), extra)``:
        the rows are denormalized column by column and checked by
        :meth:`columns_mask`.
        """
        U = np.atleast_2d(np.asarray(units, dtype=float))
        if not self.constraints:
            return np.ones(U.shape[0], dtype=bool)
        return self.columns_mask(self.denormalize_columns(U), U.shape[0], extra)

    def columns_mask(
        self,
        columns: Mapping[str, np.ndarray],
        n: int,
        extra: Optional[Mapping[str, Any]] = None,
    ) -> np.ndarray:
        """Feasibility of ``n`` native-valued rows given as columns by name.

        Element ``i`` equals ``is_feasible`` on row ``i``.  Each constraint is
        evaluated over whole columns (:meth:`Constraint.mask`) and sees only
        the rows every earlier constraint accepted, as in the
        short-circuiting row-wise check.
        """
        if not self.constraints:
            return np.ones(n, dtype=bool)
        ok = self.constraints[0].mask(columns, n, extra)
        for c in self.constraints[1:]:
            live = np.flatnonzero(ok)
            if live.size == 0:
                break
            ok[live] = c.mask({k: v[live] for k, v in columns.items()}, live.size, extra)
        return ok

    def round_trip(self, values: Union[Mapping[str, Any], Sequence[Any]]) -> Dict[str, Any]:
        """Project native values onto representable ones (normalize∘denormalize).

        Integers are rounded and clipped, categoricals snapped; useful before
        evaluating an externally supplied configuration.
        """
        return self.denormalize(self.normalize(values))

    # -- introspection helpers ----------------------------------------------
    @property
    def categorical_mask(self) -> np.ndarray:
        """Boolean mask of categorical dimensions (used by search operators)."""
        return np.array([p.is_categorical for p in self.parameters], dtype=bool)

    @property
    def cardinalities(self) -> np.ndarray:
        """Per-dimension value counts (``inf`` for reals)."""
        return np.array([p.cardinality for p in self.parameters], dtype=float)

    def grid(self, points_per_dim: int) -> List[Dict[str, Any]]:
        """Full-factorial grid of native configurations (grid-search helper).

        The cross product is capped at :data:`MAX_GRID_POINTS` to avoid
        accidental explosion; callers wanting more should sample instead.
        """
        axes = [p.grid(points_per_dim) for p in self.parameters]
        total = 1
        for a in axes:
            total *= len(a)
            if total > MAX_GRID_POINTS:
                raise ValueError("grid too large; lower points_per_dim")
        out: List[Dict[str, Any]] = []
        idx = [0] * len(axes)
        while True:
            out.append({p.name: axes[i][idx[i]] for i, p in enumerate(self.parameters)})
            for i in reversed(range(len(axes))):
                idx[i] += 1
                if idx[i] < len(axes[i]):
                    break
                idx[i] = 0
            else:
                break
        return out
