"""Particle Swarm Optimization over the unit hypercube, many tasks at once.

The paper's search phase "uses global, evolutionary algorithms such as the
Particle Swarm Optimization (PSO) algorithm to optimize the EI", one
maximization per task.  This is the standard inertia-weight PSO of Kennedy
& Eberhart with reflecting bounds on ``[0, 1]^d``; since the tasks share
one fitted LCM, their swarms advance *in lockstep*: all positions live in a
single ``(n_tasks, n_particles, dim)`` tensor and every PSO step issues
exactly one batched objective evaluation (one cross-task posterior call)
instead of ``n_tasks`` small ones, with independent per-task
personal/global bests.  :class:`~repro.core.search.pso.ParticleSwarm` is
the one-task view of this class.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["BatchedParticleSwarm"]


class BatchedParticleSwarm:
    """Inertia-weight PSO maximizer on ``[0, 1]^dim``, one swarm per task.

    Parameters
    ----------
    dim:
        Search dimensionality.
    n_tasks:
        Number of independent swarms advanced in lockstep.
    n_particles:
        Swarm size (per task).
    iterations:
        Number of velocity/position updates.
    inertia, cognitive, social:
        Classic PSO coefficients (ω, c1, c2).  Inertia decays linearly to
        0.4·ω over the run, shifting from exploration to exploitation.
    seed:
        Randomness seed (one generator drives all swarms, so a fixed seed
        reproduces every task's trajectory).
    """

    def __init__(
        self,
        dim: int,
        n_tasks: int,
        n_particles: int = 40,
        iterations: int = 30,
        inertia: float = 0.72,
        cognitive: float = 1.49,
        social: float = 1.49,
        seed: Optional[int] = None,
    ):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        self.dim = int(dim)
        self.n_tasks = int(n_tasks)
        self.n_particles = max(2, int(n_particles))
        self.iterations = max(1, int(iterations))
        self.inertia = float(inertia)
        self.cognitive = float(cognitive)
        self.social = float(social)
        self.rng = np.random.default_rng(seed)

    def maximize(
        self,
        objective: Callable[[np.ndarray], np.ndarray],
        x0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Maximize a batched objective ``(n_tasks, n, dim) -> (n_tasks, n)``.

        Parameters
        ----------
        objective:
            Batch objective over per-task candidate blocks; ``-inf`` values
            mark infeasible points.
        x0:
            Optional per-task seed positions — ``(n_tasks, dim)`` (one seed
            each, e.g. the incumbents) or ``(n_tasks, k, dim)`` — injected
            into the initial swarms.

        Returns
        -------
        ``(x_best, f_best)`` — ``(n_tasks, dim)`` best positions and their
        ``(n_tasks,)`` values.
        """
        T, n, d = self.n_tasks, self.n_particles, self.dim
        pos = self.rng.random((T, n, d))
        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)
            if x0.ndim == 2:
                x0 = x0[:, None, :]
            if x0.shape[0] != T or x0.shape[2] != d:
                raise ValueError("x0 must be (n_tasks, k, dim) or (n_tasks, dim)")
            k = min(x0.shape[1], n)
            pos[:, :k] = np.clip(x0[:, :k], 0.0, 1.0)
        vel = self.rng.uniform(-0.1, 0.1, (T, n, d))

        fit = np.asarray(objective(pos), dtype=float)
        pbest, pbest_f = pos.copy(), fit.copy()
        rows = np.arange(T)
        g = np.argmax(pbest_f, axis=1)
        gbest = pbest[rows, g]  # (T, dim), a copy (advanced indexing)
        gbest_f = pbest_f[rows, g]  # (T,)

        # The update runs in place on preallocated buffers; every product,
        # sum and bound is the same IEEE operation, in the same order, as the
        # textbook ``w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)``, the clip
        # included (``np.clip`` is ``minimum(maximum(.))``, only slower).
        r1 = np.empty((T, n, d))
        r2 = np.empty((T, n, d))
        diff = np.empty((T, n, d))
        gbest_rows = gbest[:, None, :]  # a view: tracks in-place updates
        steps = max(1, self.iterations - 1)
        for it in range(self.iterations):
            w = self.inertia * (1.0 - 0.6 * it / steps)
            self.rng.random(out=r1)
            self.rng.random(out=r2)
            vel *= w
            r1 *= self.cognitive
            r1 *= np.subtract(pbest, pos, out=diff)
            vel += r1
            r2 *= self.social
            r2 *= np.subtract(gbest_rows, pos, out=diff)
            vel += r2
            np.minimum(np.maximum(vel, -0.5, out=vel), 0.5, out=vel)
            pos = pos + vel
            # reflecting bounds keep particles inside the cube
            over, under = pos > 1.0, pos < 0.0
            np.subtract(2.0, pos, out=pos, where=over)
            np.negative(pos, out=pos, where=under)
            np.minimum(np.maximum(pos, 0.0, out=pos), 1.0, out=pos)
            np.multiply(vel, -0.5, out=vel, where=np.logical_or(over, under, out=over))

            fit = np.asarray(objective(pos), dtype=float)
            improved = fit > pbest_f
            np.copyto(pbest, pos, where=improved[:, :, None])
            np.copyto(pbest_f, fit, where=improved)
            # per-task global bests move only when some personal best beat them
            best_f = pbest_f.max(axis=1)
            better = best_f > gbest_f
            if better.any():
                g = np.argmax(pbest_f, axis=1)
                gbest[better] = pbest[rows[better], g[better]]
                gbest_f[better] = best_f[better]
        self._pbest, self._pbest_f = pbest, pbest_f
        return gbest.copy(), gbest_f.copy()

    def top_batch(self, q: int, min_dist: float = 0.05) -> List[np.ndarray]:
        """Per-task diverse high-scoring positions from the last run.

        Greedily picks each task's personal bests in descending score,
        skipping points within ``min_dist`` (Euclidean, normalized space)
        of an already selected one — the batch-proposal strategy behind
        concurrent function evaluations (the paper's Sec. 4.2 notes GPTune
        "supports calling multiple function evaluations concurrently").
        Returns one ``(<=q, dim)`` array per task.  Must be called after
        :meth:`maximize`.
        """
        if not hasattr(self, "_pbest"):
            raise RuntimeError("top_batch() before maximize()")
        out: List[np.ndarray] = []
        for t in range(self.n_tasks):
            order = np.argsort(-self._pbest_f[t], kind="stable")
            picked: list = []
            for i in order:
                if not np.isfinite(self._pbest_f[t, i]):
                    continue
                x = self._pbest[t, i]
                if all(np.linalg.norm(x - p) >= min_dist for p in picked):
                    picked.append(x.copy())
                if len(picked) >= q:
                    break
            if not picked:  # everything infeasible/-inf: return the global best
                picked = [self._pbest[t, order[0]].copy()]
            out.append(np.vstack(picked))
        return out
