"""NSGA-II — non-dominated sorting genetic algorithm II (Deb et al. 2002).

Used by the multi-objective search phase (Algorithm 2): candidates are ranked
by Pareto dominance fronts, ties broken by crowding distance, and evolved
with simulated-binary crossover (SBX) and polynomial mutation on the unit
hypercube.  The implementation minimizes all objectives.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["fast_non_dominated_sort", "crowding_distance", "NSGA2"]


def _dominance(F: np.ndarray) -> np.ndarray:
    """``(n, n)`` bool matrix: ``[i, j]`` iff row ``i`` dominates row ``j``.

    Row ``i`` dominates ``j`` when it is ``<=`` in every objective and ``<``
    in at least one.  Built from one ``(n, n)`` comparison per objective
    column, never an ``(n, n, γ)`` tensor; a ``NaN`` compares false, so it
    neither dominates nor is dominated in that objective.
    """
    n = F.shape[0]
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in F.T:
        c = col[:, None]
        le &= c <= col
        lt |= c < col
    return le & lt


def _peel(dominates: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the fronts of a dominance matrix in order, one at a time.

    Lazy, so a caller that needs only the first few fronts (environmental
    selection stops once the population is full) never peels the rest.
    """
    n = dominates.shape[0]
    dominated_count = dominates.sum(axis=0).astype(int)
    current = np.where(dominated_count == 0)[0]
    assigned = np.zeros(n, dtype=bool)
    while current.size:
        yield current
        assigned[current] = True
        dominated_count = dominated_count - dominates[current].sum(axis=0)
        current = np.where((dominated_count == 0) & ~assigned)[0]


def fast_non_dominated_sort(F: np.ndarray) -> List[np.ndarray]:
    """Partition rows of ``F`` (``(n, γ)`` objectives, minimized) into fronts.

    Returns a list of integer index arrays; front 0 is the Pareto set of the
    population, front 1 the Pareto set after removing front 0, and so on.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return list(_peel(_dominance(F)))


def crowding_distance(F: np.ndarray) -> np.ndarray:
    """Crowding distance of each row within one front (larger = less crowded).

    Boundary points of each objective get infinite distance, preserving the
    extremes of the front.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n, m = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    with np.errstate(invalid="ignore"):
        for j in range(m):
            order = np.argsort(F[:, j], kind="stable")
            fj = F[order, j]
            span = fj[-1] - fj[0]
            dist[order[0]] = dist[order[-1]] = np.inf
            if not np.isfinite(span) or span <= 0:
                continue
            dist[order[1:-1]] += (fj[2:] - fj[:-2]) / span
    return dist


class NSGA2:
    """NSGA-II minimizer over ``[0, 1]^dim``.

    Parameters
    ----------
    dim:
        Decision-space dimensionality.
    pop_size:
        Population size, at least 1 (rounded up to an even number).
    generations:
        Evolution steps.
    eta_crossover, eta_mutation:
        SBX / polynomial-mutation distribution indices.
    p_crossover, p_mutation:
        Crossover probability and per-gene mutation probability, each in
        ``[0, 1]`` (``p_mutation=None`` → ``1/dim``).
    seed:
        Randomness seed.
    label:
        Optional context string (e.g. ``"task 3"``) included in stepping-API
        protocol errors so a misuse inside a multi-task lockstep loop names
        the instance (and generation) that raised.
    """

    def __init__(
        self,
        dim: int,
        pop_size: int = 40,
        generations: int = 25,
        eta_crossover: float = 15.0,
        eta_mutation: float = 20.0,
        p_crossover: float = 0.9,
        p_mutation: Optional[float] = None,
        seed: Optional[int] = None,
        label: Optional[str] = None,
    ):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if pop_size < 1:
            raise ValueError(f"pop_size must be >= 1, got {pop_size!r}")
        p_mutation = 1.0 / dim if p_mutation is None else p_mutation
        for name, p in (("p_crossover", p_crossover), ("p_mutation", p_mutation)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        self.dim = int(dim)
        self.label = label
        self._generation = 0
        self.pop_size = int(pop_size) + int(pop_size) % 2
        self.generations = max(1, int(generations))
        self.eta_c = float(eta_crossover)
        self.eta_m = float(eta_mutation)
        self.p_c = float(p_crossover)
        self.p_m = float(p_mutation)
        self.rng = np.random.default_rng(seed)
        self._pop: Optional[np.ndarray] = None
        self._F: Optional[np.ndarray] = None
        self._children: Optional[np.ndarray] = None

    # -- ask/tell stepping API --------------------------------------------
    #
    # The lockstep multi-objective search phase advances several tasks'
    # NSGA-II instances generation by generation, stacking every task's
    # population into one batched surrogate evaluation.  The monolithic
    # :meth:`minimize` is a thin driver over these steps (same RNG call
    # order, so seeded runs are unchanged).

    def initialize(self, x0: Optional[np.ndarray] = None) -> np.ndarray:
        """Create the initial population; returns it for evaluation.

        Feed the objective rows back via :meth:`tell` before the first
        :meth:`ask`.
        """
        pop = self.rng.random((self.pop_size, self.dim))
        if x0 is not None:
            x0 = np.atleast_2d(np.asarray(x0, dtype=float))
            k = min(x0.shape[0], self.pop_size)
            pop[:k] = np.clip(x0[:k], 0.0, 1.0)
        self._pop = pop
        self._F = None
        self._children = None
        self._generation = 0
        return pop

    def _context(self) -> str:
        """Error-context suffix naming the instance and its generation."""
        where = f"{self.label}, " if self.label else ""
        return f" ({where}generation {self._generation})"

    def _ranked(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current population with its front rank and crowding distance."""
        if self._pop is None or self._F is None:
            raise RuntimeError("ask() before initialize()/tell()" + self._context())
        pop, F = self._pop, self._F
        rank = np.empty(pop.shape[0], dtype=int)
        crowd = np.empty(pop.shape[0])
        for r, idx in enumerate(fast_non_dominated_sort(F)):
            rank[idx] = r
            crowd[idx] = crowding_distance(F[idx])
        return pop, rank, crowd

    def ask(self) -> np.ndarray:
        """Breed one generation of children from the current population.

        Bitwise equal to :meth:`_ask_reference`, generator stream included.
        The loop over pairs only draws, in the reference's order: four
        tournament indices, the crossover coin, ``2*dim`` SBX uniforms when
        it lands, then per child a gene mask and, only if a gene fires, its
        mutation uniforms.  Tournaments, SBX and polynomial mutation then
        run once over ``(pairs, 2, dim)`` arrays, elementwise as in the
        reference.
        """
        pop, rank, crowd = self._ranked()
        n, dim, p_m = pop.shape[0], self.dim, self.p_m
        pairs = self.pop_size // 2
        rng = self.rng
        picks = np.empty((pairs, 4), dtype=np.int64)
        crossed = np.zeros(pairs, dtype=bool)
        u_sbx = np.zeros((pairs, 2 * dim))
        genes = np.empty((pairs, 2, dim))
        u_mut = np.zeros((pairs, 2, dim))
        for p in range(pairs):
            picks[p] = rng.integers(0, n, 4)
            if not rng.random() > self.p_c:
                crossed[p] = True
                rng.random(out=u_sbx[p])
            for c in range(2):
                if min(rng.random(out=genes[p, c]).tolist()) < p_m:
                    rng.random(out=u_mut[p, c])

        # binary tournaments on (rank, crowding distance): (pairs, 2) winners
        i, j = picks[:, 0::2], picks[:, 1::2]
        ri, rj = rank[i], rank[j]
        win = np.where(ri < rj, i, np.where(rj < ri, j, np.where(crowd[i] >= crowd[j], i, j)))
        parents = pop[win]
        p1, p2 = parents[:, 0], parents[:, 1]

        # simulated binary crossover, kept only where the coin landed
        u, swap = u_sbx[:, :dim], u_sbx[:, dim:] < 0.5
        e = 1.0 / (self.eta_c + 1.0)
        beta = np.where(u <= 0.5, (2.0 * u) ** e, (1.0 / (2.0 * (1.0 - u))) ** e)
        b = np.where(swap, beta, 1.0)
        c1 = np.clip(0.5 * ((1 + b) * p1 + (1 - b) * p2), 0, 1)
        c2 = np.clip(0.5 * ((1 - b) * p1 + (1 + b) * p2), 0, 1)
        kids = np.where(crossed[:, None, None], np.stack([c1, c2], axis=1), parents)

        # polynomial mutation of the genes that fired
        e = 1.0 / (self.eta_m + 1.0)
        delta = np.where(
            u_mut < 0.5,
            (2.0 * u_mut) ** e - 1.0,
            1.0 - (2.0 * (1.0 - u_mut)) ** e,
        )
        kids = np.where(genes < p_m, np.clip(kids + delta, 0.0, 1.0), kids)
        self._children = kids.reshape(self.pop_size, dim)
        self._generation += 1
        return self._children

    def _ask_reference(self) -> np.ndarray:
        """Per-pair :meth:`ask`: tournaments, SBX and mutation one pair at a time.

        The readable definition the vectorized :meth:`ask` is pinned
        against (children and generator state, bit for bit).
        """
        pop, rank, crowd = self._ranked()
        rng, dim = self.rng, self.dim

        def tournament() -> int:
            i, j = rng.integers(0, rank.shape[0], 2)
            if rank[i] < rank[j]:
                return int(i)
            if rank[j] < rank[i]:
                return int(j)
            return int(i) if crowd[i] >= crowd[j] else int(j)

        def sbx(p1: np.ndarray, p2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            c1, c2 = p1.copy(), p2.copy()
            if rng.random() > self.p_c:
                return c1, c2
            u = rng.random(dim)
            beta = np.where(
                u <= 0.5,
                (2.0 * u) ** (1.0 / (self.eta_c + 1.0)),
                (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (self.eta_c + 1.0)),
            )
            mask = rng.random(dim) < 0.5
            b = np.where(mask, beta, 1.0)
            c1 = 0.5 * ((1 + b) * p1 + (1 - b) * p2)
            c2 = 0.5 * ((1 - b) * p1 + (1 + b) * p2)
            return np.clip(c1, 0, 1), np.clip(c2, 0, 1)

        def mutate(x: np.ndarray) -> np.ndarray:
            y = x.copy()
            genes = rng.random(dim) < self.p_m
            if not genes.any():
                return y
            u = rng.random(dim)
            delta = np.where(
                u < 0.5,
                (2.0 * u) ** (1.0 / (self.eta_m + 1.0)) - 1.0,
                1.0 - (2.0 * (1.0 - u)) ** (1.0 / (self.eta_m + 1.0)),
            )
            y[genes] = np.clip(y[genes] + delta[genes], 0.0, 1.0)
            return y

        children = []
        while len(children) < self.pop_size:
            a = pop[tournament()]
            b = pop[tournament()]
            c1, c2 = sbx(a, b)
            children.append(mutate(c1))
            children.append(mutate(c2))
        self._children = np.vstack(children[: self.pop_size])
        self._generation += 1
        return self._children

    def tell(self, F: np.ndarray) -> None:
        """Absorb objective rows for the last :meth:`initialize`/:meth:`ask`.

        The first call after :meth:`initialize` records the initial
        population's fitness; subsequent calls run the elitist environmental
        selection on parents ∪ children.
        """
        F = np.atleast_2d(np.asarray(F, dtype=float))
        if self._pop is None:
            raise RuntimeError("tell() before initialize()" + self._context())
        if self._F is None:
            if F.shape[0] != self._pop.shape[0]:
                raise ValueError("fitness row count != population size")
            self._F = F
            return
        if self._children is None:
            raise RuntimeError("tell() without a pending ask()" + self._context())
        if F.shape[0] != self._children.shape[0]:
            raise ValueError("fitness row count != children count")
        # elitist environmental selection on parents ∪ children
        allX = np.vstack([self._pop, self._children])
        allF = np.vstack([self._F, F])
        keep: List[int] = []
        for idx in _peel(_dominance(allF)):
            if len(keep) + idx.size <= self.pop_size:
                keep.extend(idx.tolist())
                if len(keep) == self.pop_size:
                    break
            else:
                cd = crowding_distance(allF[idx])
                order = np.argsort(-cd, kind="stable")
                keep.extend(idx[order][: self.pop_size - len(keep)].tolist())
                break
        self._pop, self._F = allX[keep], allF[keep]
        self._children = None

    def front(self) -> Tuple[np.ndarray, np.ndarray]:
        """First (non-dominated) front ``(X, F)`` of the current population."""
        if self._pop is None or self._F is None:
            raise RuntimeError("front() before initialize()/tell()")
        first = np.flatnonzero(~_dominance(self._F).any(axis=0))
        return self._pop[first], self._F[first]

    @property
    def population(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current population ``(X, F)`` — all ranks, not just the front.

        The driver's ``_pick_k`` tops up from the later non-dominated ranks
        here when the first front has fewer than ``k`` finite points.
        """
        if self._pop is None or self._F is None:
            raise RuntimeError("population before initialize()/tell()")
        return self._pop, self._F

    # -- main loop --------------------------------------------------------
    def minimize(
        self,
        objectives: Callable[[np.ndarray], np.ndarray],
        x0: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evolve toward the Pareto front of a batch objective.

        Parameters
        ----------
        objectives:
            Vectorized ``(n, dim) -> (n, γ)`` function, all objectives
            minimized.  Rows may contain ``inf`` for infeasible points.
        x0:
            Optional seed individuals injected into the initial population.

        Returns
        -------
        ``(X, F)`` — decision vectors and objective rows of the final
        population's first (non-dominated) front.
        """
        pop = self.initialize(x0)
        self.tell(objectives(pop))
        for _ in range(self.generations):
            self.tell(objectives(self.ask()))
        return self.front()
