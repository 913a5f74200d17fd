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

The driver needs the ``setulb`` signature of scipy's C port of L-BFGS-B
(scipy ≥ 1.15).  An older or changed scipy fails at import with an
``ImportError`` naming both versions; there is no silent fallback.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple, Tuple

import numpy as np
import scipy

__all__ = ["LBFGSBResult", "minimize"]

#: First scipy release whose ``_lbfgsb.setulb`` has the signature below.
REQUIRED_SCIPY = "1.15"
SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)

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
    try:
        from scipy.optimize import _lbfgsb
    except ImportError:
        return check_setulb(scipy.__version__, None)
    return check_setulb(scipy.__version__, getattr(_lbfgsb, "setulb", None))


_setulb = _load_setulb()


class LBFGSBResult(NamedTuple):
    """Outcome of one :func:`minimize` run (the fields ``minimize`` shares
    with scipy's ``OptimizeResult``)."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int


def minimize(
    fun: Callable[..., Tuple[float, np.ndarray]],
    x0: np.ndarray,
    args: tuple = (),
    *,
    bounds: Tuple[np.ndarray, np.ndarray],
    maxiter: int = 15000,
) -> LBFGSBResult:
    """Minimize ``fun`` over a box with L-BFGS-B.

    Parameters
    ----------
    fun:
        ``fun(x, *args) -> (f, g)``: the scalar objective and its gradient.
        It receives a private copy of ``x``.
    x0:
        Starting point; clipped to the bounds.
    args:
        Extra positional arguments for ``fun``.
    bounds:
        ``(lower, upper)`` arrays of shape ``(n,)``; ``±inf`` leaves a side
        unbounded.  Build them once per fit and share them across restarts.
    maxiter:
        Iteration cap (scipy's ``options={"maxiter": ...}``).

    Returns
    -------
    LBFGSBResult
        Bitwise equal in ``x``, ``fun``, ``nfev`` and ``nit`` to scipy's
        L-BFGS-B ``minimize(fun, x0, args, jac=True, bounds=...,
        options={"maxiter": maxiter})``.
    """
    lo, hi = (np.asarray(b, dtype=np.float64) for b in bounds)
    if (lo > hi).any():
        raise ValueError("L-BFGS-B: a lower bound is greater than its upper bound")
    x = np.clip(np.asarray(x0, dtype=np.float64).ravel(), lo, hi)
    n = x.shape[0]
    if lo.shape != (n,) or hi.shape != (n,):
        raise ValueError("L-BFGS-B: bounds and x0 lengths differ")
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    # setulb's nbd codes: 0 free, 1 lower only, 2 both, 3 upper only
    nbd = np.where(has_lo, np.where(has_hi, 2, 1), np.where(has_hi, 3, 0)).astype(np.int32)
    lo = np.where(has_lo, lo, 0.0)
    hi = np.where(has_hi, hi, 0.0)

    def evaluate(xk):
        f, g = fun(xk.copy(), *args)
        return float(f), np.ascontiguousarray(g, dtype=np.float64)

    last_x = x.copy()
    last_f, last_g = evaluate(last_x)
    nfev = 1
    nit = 0
    # the START call ignores f and g; pass what scipy passes
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    while True:
        _setulb(_M, x, lo, hi, nbd, f, g, _FACTR, _PGTOL, wa, iwa, task,
                lsave, isave, dsave, _MAXLS, ln_task)
        code = task[0]
        if code == _FG:
            if not np.array_equal(x, last_x):
                last_x = x.copy()
                last_f, last_g = evaluate(last_x)
                nfev += 1
            f, g = last_f, last_g
        elif code == _NEW_X:
            nit += 1
            if nit >= maxiter:
                task[0], task[1] = _STOP, _STOP_MAXITER
            elif nfev > _MAXFUN:
                task[0], task[1] = _STOP, _STOP_MAXFUN
        else:
            return LBFGSBResult(x=x, fun=f, nfev=nfev, nit=nit)
