"""Bounded L-BFGS-B driven directly through scipy's ``setulb``.

Every hyperparameter fit in the tuner (the LCM restarts of Sec. 3.1 and the
single-task GP) minimizes a likelihood whose value and gradient come from
one call.  scipy's L-BFGS-B ``minimize`` (with ``jac=True``) wraps
that call in ``ScalarFunction`` and ``MemoizeJac``, copies ``x`` twice and
re-processes the bounds on every run; at the small N of autotuning those
fixed costs are a fifth to a quarter of an evaluation.  :func:`minimize`
runs the same reverse-communication loop over scipy's compiled ``setulb``
with none of that wrapping, and reproduces ``minimize`` bit for bit:

* ``x0`` is clipped to the bounds and evaluated once before the first
  ``setulb`` call, as ``ScalarFunction`` does on construction;
* an evaluation request at the previously evaluated ``x``
  (``np.array_equal``) returns the cached ``(f, g)`` without calling
  ``fun`` or counting it in ``nfev``;
* the solver settings are scipy's defaults — ``m = 10`` corrections,
  ``factr = ftol / eps`` with ``ftol = 2.22e-9``, ``pgtol = 1e-5``,
  ``maxls = 20`` and ``maxfun = 15000`` — and the ``maxiter`` cap stops the
  run with task 504 at the same point.

A stacked ``x0`` of ``R`` rows runs ``R`` restarts in lockstep, each with
its own ``setulb`` state, cache, counters and stop test: every round
advances the live restarts until each asks for a new ``(f, g)`` or stops,
then evaluates all the asking rows in one objective call.  The LCM's
multi-start fit uses this to evaluate its restarts on one stacked
likelihood; each restart stays bitwise the run a 1-D ``x0`` would give.

The driver needs the ``setulb`` signature of scipy's C port of L-BFGS-B
(scipy ≥ 1.15).  An older or changed scipy fails at import with an
``ImportError`` naming both versions; there is no silent fallback.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import re
import sys
from typing import Any, Callable, NamedTuple, Tuple

import numpy as np
import scipy

__all__ = ["LBFGSBResult", "check_restarts", "minimize"]

#: First scipy release whose ``_lbfgsb.setulb`` has the signature below.
REQUIRED_SCIPY = "1.15"
SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)

#: the compiled module whose ``setulb`` the driver calls
_LBFGSB = "scipy.optimize._lbfgsb"

# scipy's L-BFGS-B defaults (``_minimize_lbfgsb``)
_M = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAXLS = 20
_MAXFUN = 15000

# ``task[0]`` codes of the C port
_FG, _NEW_X, _STOP = 3, 1, 5
_STOP_MAXITER, _STOP_MAXFUN = 504, 502


def check_setulb(version: str, setulb: Any) -> Callable:
    """Return ``setulb`` if it is the C port's entry point, else raise.

    ``version`` is the installed scipy version string; ``setulb`` is
    ``scipy.optimize._lbfgsb.setulb`` (or ``None`` when the module is
    missing).  Raises :class:`ImportError` naming the installed and the
    required scipy version.
    """
    found = re.match(r"(\d+)\.(\d+)", version)
    need = tuple(int(v) for v in REQUIRED_SCIPY.split("."))
    if found is None or tuple(int(v) for v in found.groups()) < need:
        raise ImportError(
            f"repro.core.lbfgsb needs scipy>={REQUIRED_SCIPY} (the C port of "
            f"L-BFGS-B); scipy {version} is installed"
        )
    doc = (getattr(setulb, "__doc__", None) or "").strip()
    if not callable(setulb) or doc.splitlines()[:1] != [SETULB_SIGNATURE]:
        raise ImportError(
            f"scipy {version}'s scipy.optimize._lbfgsb.setulb does not have the "
            f"signature {SETULB_SIGNATURE} that repro.core.lbfgsb drives "
            f"(written against scipy>={REQUIRED_SCIPY})"
        )
    return setulb


def _load_setulb() -> Callable:
    """``setulb`` of scipy's compiled ``scipy.optimize._lbfgsb`` extension.

    The extension is loaded from ``scipy.optimize``'s directory without
    running ``scipy/optimize/__init__.py``, which imports ``scipy.sparse``,
    ``scipy.spatial`` and most of the optimizers (~0.2 s) for none of which
    the driver has a use.  The module is registered in ``sys.modules``
    under its own name, so a later ``import scipy.optimize`` reuses it.
    """
    module = sys.modules.get(_LBFGSB)
    if module is None:
        package = importlib.util.find_spec("scipy.optimize")  # imports only scipy
        spec = importlib.machinery.PathFinder.find_spec(
            _LBFGSB, package.submodule_search_locations
        )
        if spec is None:
            return check_setulb(scipy.__version__, None)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module = sys.modules.setdefault(_LBFGSB, module)
    return check_setulb(scipy.__version__, getattr(module, "setulb", None))


_setulb = _load_setulb()


def check_restarts(n_start: Any, maxiter: Any) -> Tuple[int, int]:
    """Validated ``(n_start, maxiter)`` of a multi-start fit.

    Raises :class:`ValueError` naming the bad value when either is below 1
    (a fit without restarts has no winner; one without iterations never
    moves).
    """
    if int(n_start) < 1:
        raise ValueError(f"need n_start >= 1, got n_start={n_start!r}")
    if int(maxiter) < 1:
        raise ValueError(f"need maxiter >= 1, got maxiter={maxiter!r}")
    return int(n_start), int(maxiter)


class LBFGSBResult(NamedTuple):
    """Outcome of one :func:`minimize` run (the fields ``minimize`` shares
    with scipy's ``OptimizeResult``, plus the per-restart counts).

    For a 1-D ``x0``, ``x`` is ``(n,)``, ``fun`` a float and ``nit`` an int;
    for a stacked ``(R, n)`` ``x0`` they are ``(R, n)``, ``(R,)`` and
    ``(R,)``.  ``nfev`` is always the total over all restarts and
    ``nfevs`` the ``(R,)`` per-restart counts (``R = 1`` for a 1-D ``x0``).
    """

    x: np.ndarray
    fun: Any
    nfev: int
    nit: Any
    nfevs: np.ndarray


class _Restart:
    """The reverse-communication state of one restart: its ``setulb`` work
    arrays, its one-entry ``(x, f, g)`` cache and its counters."""

    __slots__ = ("x", "f", "g", "last_x", "last_f", "last_g", "nfev", "nit",
                 "wa", "iwa", "task", "ln_task", "lsave", "isave", "dsave")

    def __init__(self, x: np.ndarray, f: float, g: np.ndarray):
        n = x.shape[0]
        self.x = x
        self.last_x, self.last_f, self.last_g = x.copy(), f, g
        self.nfev, self.nit = 1, 0
        # the START call ignores f and g; pass what scipy passes
        self.f, self.g = 0.0, np.zeros(n)
        self.wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)

    def advance(self, lo, hi, nbd, maxiter: int) -> bool:
        """Step ``setulb`` until it asks for ``(f, g)`` at a new ``x``
        (``True``) or stops (``False``); requests at the cached ``x`` are
        answered here without an evaluation."""
        x, task, last_x = self.x, self.task, self.last_x
        work = (self.wa, self.iwa, task, self.lsave, self.isave, self.dsave, _MAXLS,
                self.ln_task)
        while True:
            _setulb(_M, x, lo, hi, nbd, self.f, self.g, _FACTR, _PGTOL, *work)
            code = task[0]
            if code == _FG:
                # np.array_equal(x, last_x), scipy's test, minus its wrapper
                if not (x == last_x).all():
                    return True
                self.f, self.g = self.last_f, self.last_g
            elif code == _NEW_X:
                self.nit += 1
                if self.nit >= maxiter:
                    task[0], task[1] = _STOP, _STOP_MAXITER
                elif self.nfev > _MAXFUN:
                    task[0], task[1] = _STOP, _STOP_MAXFUN
            else:
                return False

    def tell(self, f: float, g: np.ndarray) -> None:
        """Answer the pending request with ``(f, g)`` evaluated at ``x``."""
        self.last_x = self.x.copy()
        self.f = self.last_f = f
        self.g = self.last_g = g
        self.nfev += 1


def minimize(
    fun: Callable[..., Tuple[Any, np.ndarray]],
    x0: np.ndarray,
    args: tuple = (),
    *,
    bounds: Tuple[np.ndarray, np.ndarray],
    maxiter: int = 15000,
) -> LBFGSBResult:
    """Minimize ``fun`` over a box with L-BFGS-B, from one or many starts.

    A stacked ``x0`` of shape ``(R, n)`` runs ``R`` independent restarts in
    lockstep: each round advances every live restart until it asks for a
    new ``(f, g)``, then evaluates all the asking rows in one ``fun`` call.
    A restart that stops drops out.  Every restart keeps its own work
    arrays, cache, counters and stop test, so each one is bitwise the run a
    1-D ``x0`` of that row would give.

    Parameters
    ----------
    fun:
        For a 1-D ``x0``: ``fun(x, *args) -> (f, g)``, the scalar objective
        and its gradient.  For a stacked ``x0``: ``fun(X, rows, *args) ->
        (F, G)`` with ``X`` the ``(k, n)`` asking points, ``rows`` the list
        of their ``k`` restart indices (rows of ``x0``), ``F`` of shape ``(k,)``
        and ``G`` of shape ``(k, n)``.  ``fun`` receives private copies.
    x0:
        Starting point ``(n,)`` or starting points ``(R, n)``; clipped to
        the bounds.
    args:
        Extra positional arguments for ``fun``.
    bounds:
        ``(lower, upper)`` arrays of shape ``(n,)``; ``±inf`` leaves a side
        unbounded.  Build them once per fit and share them across restarts.
    maxiter:
        Iteration cap per restart (scipy's ``options={"maxiter": ...}``).

    Returns
    -------
    LBFGSBResult
        Per restart bitwise equal in ``x``, ``fun``, ``nfev`` and ``nit`` to
        scipy's L-BFGS-B ``minimize(fun, x0, args, jac=True, bounds=...,
        options={"maxiter": maxiter})`` from that restart's start.
    """
    lo, hi = (np.asarray(b, dtype=np.float64) for b in bounds)
    if (lo > hi).any():
        raise ValueError("L-BFGS-B: a lower bound is greater than its upper bound")
    x0 = np.asarray(x0, dtype=np.float64)
    stacked = x0.ndim == 2
    if not stacked:
        x0 = x0.ravel()
    n = x0.shape[-1]
    if lo.shape != (n,) or hi.shape != (n,):
        raise ValueError("L-BFGS-B: bounds and x0 lengths differ")
    if stacked and x0.shape[0] < 1:
        raise ValueError("L-BFGS-B: a stacked x0 needs at least one row")
    X = np.clip(np.atleast_2d(x0), lo, hi)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    # setulb's nbd codes: 0 free, 1 lower only, 2 both, 3 upper only
    nbd = np.where(has_lo, np.where(has_hi, 2, 1), np.where(has_hi, 3, 0)).astype(np.int32)
    lo = np.where(has_lo, lo, 0.0)
    hi = np.where(has_hi, hi, 0.0)

    # evaluate(live, X) -> (list of float f, sequence of contiguous g)
    if stacked:
        def evaluate(live, Xk):
            F, G = fun(Xk, live, *args)
            return (np.asarray(F, dtype=np.float64).tolist(),
                    np.ascontiguousarray(G, dtype=np.float64))
    else:
        def evaluate(live, Xk):
            f, g = fun(Xk[0], *args)
            return [float(f)], (np.ascontiguousarray(g, dtype=np.float64),)

    live = list(range(X.shape[0]))
    F, G = evaluate(live, X.copy())
    restarts = [_Restart(x.copy(), f, g) for x, f, g in zip(X, F, G)]
    while live:
        live = [i for i in live if restarts[i].advance(lo, hi, nbd, maxiter)]
        if live:
            asking = [restarts[i] for i in live]
            F, G = evaluate(live, np.array([r.x for r in asking]))
            for r, f, g in zip(asking, F, G):
                r.tell(f, g)

    nfevs = np.array([r.nfev for r in restarts])
    if not stacked:
        r = restarts[0]
        return LBFGSBResult(x=r.x, fun=r.f, nfev=r.nfev, nit=r.nit, nfevs=nfevs)
    return LBFGSBResult(
        x=np.stack([r.x for r in restarts]),
        fun=np.array([r.f for r in restarts]),
        nfev=int(nfevs.sum()),
        nit=np.array([r.nit for r in restarts]),
        nfevs=nfevs,
    )
