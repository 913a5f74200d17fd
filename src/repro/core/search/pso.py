"""Single-task Particle Swarm Optimization: a one-task view of the lockstep
swarm.

:class:`ParticleSwarm` is :class:`~repro.core.search.pso_batched.BatchedParticleSwarm`
with ``n_tasks=1`` behind a ``(n, dim) -> (n,)`` objective: same dynamics,
same generator stream, bitwise the same results.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .pso_batched import BatchedParticleSwarm

__all__ = ["ParticleSwarm"]


class ParticleSwarm(BatchedParticleSwarm):
    """Inertia-weight PSO maximizer on ``[0, 1]^dim`` for one objective.

    Parameters
    ----------
    dim:
        Search dimensionality.
    n_particles:
        Swarm size.
    iterations:
        Number of velocity/position updates.
    inertia, cognitive, social:
        Classic PSO coefficients (ω, c1, c2).  Inertia decays linearly to
        0.4·ω over the run, shifting from exploration to exploitation.
    seed:
        Randomness seed.
    """

    def __init__(
        self,
        dim: int,
        n_particles: int = 40,
        iterations: int = 30,
        inertia: float = 0.72,
        cognitive: float = 1.49,
        social: float = 1.49,
        seed: Optional[int] = None,
    ):
        super().__init__(dim, 1, n_particles, iterations, inertia, cognitive, social, seed)

    def maximize(
        self,
        objective: Callable[[np.ndarray], np.ndarray],
        x0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, float]:
        """Maximize a vectorized objective ``(n, dim) -> (n,)``.

        Parameters
        ----------
        objective:
            Batch objective; ``-inf`` values mark infeasible points.
        x0:
            Optional ``(k, dim)`` seed positions injected into the initial
            swarm (e.g. the incumbent or previous optima).

        Returns
        -------
        ``(x_best, f_best)`` — the best position found and its value.
        """
        if x0 is not None:
            x0 = np.atleast_2d(np.asarray(x0, dtype=float))[None]
        x, f = super().maximize(lambda X: np.asarray(objective(X[0]))[None], x0=x0)
        return x[0], float(f[0])

    def top_batch(self, q: int, min_dist: float = 0.05) -> np.ndarray:
        """Up to ``q`` diverse high-scoring positions from the last run, as
        one ``(<=q, dim)`` array (see :meth:`BatchedParticleSwarm.top_batch`)."""
        return super().top_batch(q, min_dist)[0]
