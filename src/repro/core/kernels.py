"""Covariance kernels.

The LCM (Sec. 3.1, Eq. 3) assumes each latent function ``u_q`` has a Gaussian
(squared-exponential) kernel with automatic-relevance-determination (ARD)
lengthscales, one per tuning-parameter dimension:

.. math::

    k_q(x, x') = \\sigma_q^2 \\exp\\Bigl(-\\sum_{j=1}^{\\beta}
        \\frac{(x_j - x'_j)^2}{2 (l_j^q)^2}\\Bigr)

Per the paper we fix ``σ_q = 1`` (the task coefficients ``a_{i,q}`` absorb the
scale).  Everything operates on normalized ``[0,1]^β`` inputs.

Kernel exponents are often far below numpy's fast ``exp`` range: a fit
whose lengthscales sit at their lower bound (white-noise data) makes
nearly every off-diagonal entry underflow, and numpy's vector ``exp``
leaves its SIMD fast path for any argument below about −708.4 — 10–100×
slower per element than in ``[−1, 0]``.  :func:`exp_inplace` returns
``np.exp(E)`` bit for bit; where that is cheaper it keeps every argument
it hands to ``np.exp`` in the fast range.  It rests on two properties of
``np.exp``, which ``tests/test_kernels.py`` pins element by element:

* the result for an element does not depend on its neighbours (or on its
  position in the array), so a subset may be exponentiated on its own and
  scattered back, and
* ``np.exp(x) == +0.0`` for every ``x < −746`` (the last nonzero result,
  the smallest subnormal, is at ``x ≈ −745.1332``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "exp_inplace",
    "pairwise_sq_diffs",
    "gaussian_kernel",
    "gaussian_kernel_batch",
    "gaussian_kernel_with_grad",
]


#: Lowest argument handed to numpy's vector ``exp``; a margin above the
#: −708.4 edge of its fast path.
_EXP_FLOOR = -700.0
#: ``np.exp`` rounds every argument below this to ``+0.0``.
_EXP_ZERO = -746.0

# What the clamped pass costs and saves against plain ``np.exp``, in ns on
# one core of a 2-vCPU Xeon guest (docs/PERFORMANCE.md); the choice only
# needs their orders of magnitude.
#: its extra numpy calls, once per array
_CLAMP_CALL_NS = 5000.0
#: its mask, clamp and multiply passes, per entry
_CLAMP_ENTRY_NS = 1.5
#: gathering and scattering one argument in [−746, −700)
_BAND_ENTRY_NS = 5.0
#: numpy's slow path on one argument below −746, beyond its fast path
_ZERO_ENTRY_NS = 8.0


def _clamp_pays(size: int, n_zero: int, n_band: int) -> bool:
    """Whether the clamped pass beats plain ``np.exp`` on an array of
    ``size`` entries, ``n_zero`` of them below −746 and ``n_band`` in
    [−746, −700).  More zeros or fewer band entries never turn it down,
    so :func:`exp_inplace` asks with upper bounds before it counts."""
    saved = n_zero * _ZERO_ENTRY_NS
    return saved > _CLAMP_CALL_NS + size * _CLAMP_ENTRY_NS + n_band * _BAND_ENTRY_NS


def exp_inplace(E: np.ndarray) -> np.ndarray:
    """``np.exp(E)`` written into ``E`` and returned, bit for bit.

    Plain ``np.exp`` unless the clamped pass (:func:`_exp_clamped`) is
    cheaper, which :func:`_clamp_pays` decides from the array's size and
    its counts of arguments below −746 and in [−746, −700): a tiny array
    goes to ``np.exp`` before anything is counted, and so does an array
    whose arguments below −700 mostly sit in the band, where the clamped
    pass gathers and scatters each one.
    """
    size = E.size
    if not _clamp_pays(size, size, 0):
        return np.exp(E, out=E)
    below = E < _EXP_FLOOR
    # Python ints: arithmetic on numpy scalars costs microseconds a call
    n_below = int(np.count_nonzero(below))
    if not _clamp_pays(size, n_below, 0):
        return np.exp(E, out=E)
    n_zero = int(np.count_nonzero(E < _EXP_ZERO))
    if not _clamp_pays(size, n_zero, n_below - n_zero):
        return np.exp(E, out=E)
    return _exp_clamped(E, below, n_below - n_zero)


def _exp_clamped(E: np.ndarray, below: np.ndarray, n_band: int) -> np.ndarray:
    """``np.exp(E)`` in place without handing ``np.exp`` an argument below
    the fast-path floor; ``below`` marks ``E < −700`` (and is overwritten)
    and ``n_band`` counts the arguments in ``[−746, −700)``.

    ``E`` is clamped to the floor and exponentiated in one fast pass;
    entries whose argument was below the floor are then multiplied by 0.0
    (``exp`` of the floor is a positive normal number, so the product is
    ``+0.0``), and the band arguments — where ``exp`` is still nonzero —
    are exponentiated as a gathered subset and scattered back.  NaN is
    never below the floor and passes through the fast pass as ``np.exp``
    would.
    """
    if n_band:
        band = E >= _EXP_ZERO
        band &= below
        sub = E[band]
    np.maximum(E, _EXP_FLOOR, out=E)
    np.exp(E, out=E)
    # a multiply, not a masked store: scattered masks make the store branchy
    np.multiply(E, np.logical_not(below, out=below), out=E)
    if n_band:
        E[band] = np.exp(sub)
    return E


def pairwise_sq_diffs(X1: np.ndarray, X2: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-dimension squared differences ``D[n, m, j] = (X1[n,j] - X2[m,j])^2``.

    Parameters
    ----------
    X1:
        ``(N1, β)`` input matrix.
    X2:
        ``(N2, β)`` input matrix; defaults to ``X1``.

    Returns
    -------
    ``(N1, N2, β)`` array.  Cubic in memory; intended for the moderate sample
    counts of few-evaluation autotuning (N in the hundreds).
    """
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = X1 if X2 is None else np.atleast_2d(np.asarray(X2, dtype=float))
    diff = X1[:, None, :] - X2[None, :, :]
    return diff * diff


def _check_lengthscales(ls: np.ndarray) -> None:
    """``ValueError`` unless every lengthscale is positive (``inf`` allowed)."""
    if np.any(ls <= 0):
        raise ValueError("lengthscales must be positive")
    if np.any(np.isnan(ls)):
        raise ValueError("lengthscales must not be NaN")


def gaussian_kernel(
    sq_diffs: np.ndarray,
    lengthscales: np.ndarray,
    variance: float = 1.0,
) -> np.ndarray:
    """Evaluate the ARD squared-exponential kernel from precomputed sq-diffs.

    Parameters
    ----------
    sq_diffs:
        Output of :func:`pairwise_sq_diffs`, shape ``(N1, N2, β)``.
    lengthscales:
        ``(β,)`` positive ARD lengthscales ``l_j``.
    variance:
        σ² multiplier (fixed to 1 inside the LCM).
    """
    ls = np.asarray(lengthscales, dtype=float)
    _check_lengthscales(ls)
    expo = sq_diffs / (2.0 * ls * ls)
    return variance * np.exp(-expo.sum(axis=2))


def gaussian_kernel_batch(
    sq_diffs: np.ndarray,
    lengthscales: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """All ``Q`` ARD kernels at once from one BLAS contraction.

    The LCM evaluates ``Q`` Gaussian kernels over the same sample set per
    likelihood call; evaluating them one by one sums the ``β`` exponent terms
    with ``Q`` separate reductions.  Here the exponents for every latent come
    out of a single ``(Q, β) @ (β, N1·N2)`` matrix product, followed by one
    :func:`exp_inplace`.

    Parameters
    ----------
    sq_diffs:
        Output of :func:`pairwise_sq_diffs`, shape ``(N1, N2, β)``.
    lengthscales:
        ``(Q, β)`` positive ARD lengthscales, one row per latent.
    out:
        Optional preallocated ``(Q, N1, N2)`` destination (the likelihood
        optimizer reuses one across its L-BFGS iterations).

    Returns
    -------
    ``(Q, N1, N2)`` array with ``out[q] = k_q`` evaluated at σ² = 1.
    """
    ls = np.atleast_2d(np.asarray(lengthscales, dtype=float))
    _check_lengthscales(ls)
    n1, n2, beta = sq_diffs.shape
    if ls.shape[1] != beta:
        raise ValueError(f"lengthscales have {ls.shape[1]} dims, sq_diffs {beta}")
    q = ls.shape[0]
    if out is None:
        out = np.empty((q, n1, n2))
    flat = out.reshape(q, n1 * n2)
    np.matmul(0.5 / (ls * ls), sq_diffs.reshape(n1 * n2, beta).T, out=flat)
    np.negative(flat, out=flat)
    exp_inplace(flat)
    return out


def gaussian_kernel_with_grad(
    sq_diffs: np.ndarray,
    lengthscales: np.ndarray,
    variance: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Kernel matrix and its gradients w.r.t. ``log l_j``.

    Materializes the full ``(β, N1, N2)`` gradient stack; the LCM's
    vectorized likelihood avoids it by contracting against ``sq_diffs``
    directly.  Retained for the single-task GP and as the LCM's reference
    implementation (:meth:`repro.core.lcm.LCM._nll_and_grad_reference`).

    Returns
    -------
    K:
        ``(N1, N2)`` kernel matrix.
    dK_dlogl:
        ``(β, N1, N2)`` with ``dK_dlogl[j] = ∂K/∂(log l_j)
        = K * (x_j - x'_j)^2 / l_j^2`` — the log-parameterization used by the
        L-BFGS hyperparameter optimizer.
    """
    ls = np.asarray(lengthscales, dtype=float)
    K = gaussian_kernel(sq_diffs, ls, variance)
    # ∂K/∂l_j = K * d_j² / l_j³ ; chain rule ∂/∂log l_j multiplies by l_j.
    grads = K[None, :, :] * np.moveaxis(sq_diffs, 2, 0) / (ls * ls)[:, None, None]
    return K, grads
