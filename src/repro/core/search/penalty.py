"""Pending-point penalties for asynchronous proposal search.

When evaluations stream through the async engine, the search phase proposes
against a posterior that has not yet absorbed the in-flight configurations.
Left alone, EI would keep proposing the same promising point until its
evaluation lands.  Local penalization prevents that: :func:`penalize_ei`
multiplies the acquisition by :func:`local_penalty`,
``∏_j min(‖x − p_j‖ / r, 1)`` over pending points ``p_j``.  The factor is
0 at a pending point, grows linearly to 1 at distance ``r``, and is exactly
1 beyond it, so (for a non-negative acquisition like EI) the penalized
value is ≤ the unpenalized one everywhere, strictly lower inside the
penalization radius, and *identical* outside it.  Factors are sorted before
multiplying, so the result is invariant to pending-set ordering down to the
last bit (floating-point products are not otherwise associative).  These
four properties are checked by hypothesis in
``tests/test_property_based.py``.  :func:`penalize_lcb` is the same device
for a minimized LCB surface (multi-objective search).
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["local_penalty", "penalize_ei", "penalize_lcb"]


def local_penalty(Xunit: np.ndarray, pending: Any, radius: float) -> np.ndarray:
    """Multiplicative local-penalization factor in ``[0, 1]`` per candidate.

    Parameters
    ----------
    Xunit:
        Candidate points ``(n, dim)`` (or a single point) on the unit cube.
    pending:
        Pending points ``(m, dim)``; empty → factor 1 everywhere.
    radius:
        Penalization radius ``r > 0`` in unit-cube Euclidean distance.

    Returns ``∏_j min(‖x − p_j‖ / r, 1)`` for each candidate, with the
    per-pending factors sorted before the product so the result is exactly
    invariant to the ordering of ``pending``.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    X = np.atleast_2d(np.asarray(Xunit, dtype=float))
    P = np.asarray(pending, dtype=float)
    if P.size == 0:
        return np.ones(X.shape[0])
    P = np.atleast_2d(P)
    d = np.sqrt(np.sum((X[:, None, :] - P[None, :, :]) ** 2, axis=2))
    factors = np.minimum(d / float(radius), 1.0)
    factors.sort(axis=1)  # canonical order: bit-exact permutation invariance
    return np.prod(factors, axis=1)


def penalize_ei(values: np.ndarray, Xunit: np.ndarray, pending: Any, radius: float) -> np.ndarray:
    """Apply the local pending-point penalty to maximized, non-negative
    acquisition ``values`` (EI) at the candidates ``Xunit``.

    Positive finite values are multiplied by :func:`local_penalty`;
    infeasible sentinels (``-inf``) and zeros pass through unscaled, so
    ``-inf * 0 = nan`` can never leak into the optimizer.  An empty
    ``pending`` returns ``values`` unchanged.
    """
    values = np.asarray(values, dtype=float)
    if np.asarray(pending).size == 0:
        return values
    pen = local_penalty(Xunit, pending, radius)
    mask = np.isfinite(values) & (values > 0)
    out = values.copy()
    out[mask] = values[mask] * pen[mask]  # masked: -inf * 0 never happens
    return out


def penalize_lcb(
    lcb: np.ndarray,
    Xunit: np.ndarray,
    pending: Any,
    radius: float,
    incumbent: float,
) -> np.ndarray:
    """Apply the local pending-point penalty to a *minimized* LCB surface.

    :func:`penalize_ei` multiplies a maximized, non-negative
    acquisition (EI) by the :func:`local_penalty` factor — that device is
    meaningless for a lower confidence bound, which is minimized and signed.
    The equivalent transform shrinks the *predicted improvement* over the
    incumbent instead: where ``lcb < incumbent`` the apparent gain
    ``incumbent - lcb`` is scaled by the penalty factor, so a candidate
    sitting on a pending point (factor 0) looks exactly as good as the
    incumbent and no better, while candidates outside the penalization
    radius (factor 1) are bit-identical to the unpenalized surface.  Values
    at or above the incumbent pass through untouched, as do non-finite
    sentinels.

    Parameters
    ----------
    lcb:
        Lower-confidence-bound values ``(n,)`` for one objective, smaller
        is better (already in the surrogate's transformed units).
    Xunit:
        The candidates ``(n, dim)`` the values were computed at.
    pending:
        Pending points ``(m, dim)`` for the same task; empty → no-op.
    radius:
        Penalization radius (see :func:`local_penalty`).
    incumbent:
        The task's best observed value *for this objective* in the same
        transformed units; non-finite incumbents disable the penalty (no
        meaningful improvement baseline exists yet).
    """
    values = np.asarray(lcb, dtype=float)
    P = np.asarray(pending, dtype=float)
    if P.size == 0 or not np.isfinite(incumbent):
        return values
    pen = local_penalty(Xunit, P, radius)
    out = values.copy()
    mask = np.isfinite(values) & (values < incumbent)
    out[mask] = incumbent - (incumbent - values[mask]) * pen[mask]
    return out

