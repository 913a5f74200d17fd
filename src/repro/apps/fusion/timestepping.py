"""Fusion-code surrogates: M3D_C1 and NIMROD time-stepping drivers.

Both codes "solve nonsymmetric sparse linear systems with preconditioned
GMRES, for which multiple instances of SuperLU_DIST are used to solve the
poloidal plane problems as a block Jacobi preconditioner" (Sec. 6.2).  The
geometry, discretization and MPI count are fixed; a *task* is the number of
time steps ``t`` — which is exactly what makes them a multitask-learning
showcase: tuning on cheap few-step tasks transfers to the expensive
many-step production runs (Sec. 6.5).

The surrogate structure:

* a synthetic poloidal-plane matrix (2-D point-cloud k-NN pattern, standing
  in for the C¹ finite-element / spectral-element blocks),
* **setup**: one SuperLU_DIST factorization per plane block, with real
  symbolic behaviour — COLPERM changes fill, NSUP/NREL change supernodes
  (via :mod:`repro.apps.superlu.symbolic`),
* **per step**: ``n_solves`` GMRES solves whose iteration count depends on
  ROWPERM (no row pivoting weakens the preconditioner on these
  ill-conditioned MHD systems) and whose cost is block triangular solves at
  the computed fill,
* NIMROD additionally assembles its matrices with ``nxbl × nybl`` blocking,
  with the usual too-small/too-large efficiency valley.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Tuple

from ...core.params import Categorical, Integer
from ...core.space import Space
from ..base import Application, noise_rng
from ..superlu import symbolic
from ..superlu.matrices import knn_matrix

__all__ = ["M3DC1", "NIMROD", "ROWPERM_CHOICES"]

ROWPERM_CHOICES = ("NOROWPERM", "LargeDiag_MC64")


class _FusionBase(Application):
    """Shared machinery of the two fusion surrogates.

    Parameters
    ----------
    plane_size:
        Unknowns per poloidal-plane block (downscaled from production runs).
    n_planes:
        Block-Jacobi block count (poloidal planes / Fourier modes).
    n_solves_per_step:
        Linear solves per time step (velocity/field/pressure groups).
    base_iters:
        GMRES iterations per solve with a good row permutation.
    t_max:
        Upper bound of the time-step task range.
    """

    n_objectives = 1
    objective_names = ("runtime",)

    def __init__(
        self,
        plane_size: int = 600,
        n_planes: int = 8,
        n_solves_per_step: int = 3,
        base_iters: int = 12,
        t_max: int = 20,
        noise: float = 0.04,
        **kw,
    ):
        super().__init__(**kw)
        self.plane_size = int(plane_size)
        self.n_planes = int(n_planes)
        self.n_solves_per_step = int(n_solves_per_step)
        self.base_iters = int(base_iters)
        self.t_max = int(t_max)
        self.noise = float(noise)
        self.p_max = self.machine.total_cores
        self._sym_cache: Dict[str, symbolic.SymbolicResult] = {}

    def task_space(self) -> Space:
        return Space([Integer("t", 1, self.t_max)])

    def _symbolic(self, colperm: str) -> symbolic.SymbolicResult:
        if colperm not in self._sym_cache:
            A = knn_matrix(self.plane_size, 9, seed=self.seed + 11)
            self._sym_cache[colperm] = symbolic.analyze(A, colperm, seed=self.seed)
        return self._sym_cache[colperm]

    # -- common cost pieces -------------------------------------------------
    def _factorization_time(self, config: Mapping[str, Any], p: int, p_r: int) -> Tuple[float, float]:
        """(time of one plane factorization, factor nnz) for the config."""
        sym = self._symbolic(config["COLPERM"])
        part = symbolic.supernodes(sym, int(config["NSUP"]), int(config["NREL"]))
        fill = 2.0 * (sym.fill_nnz + part.relaxed_fill) - sym.n
        flops = 2.0 * sym.cholesky_flops
        w = max(part.mean_width, 1.0)
        eff = (w / (w + 12.0)) / (1.0 + (w / 320.0) ** 2)
        p_c = max(1, p // max(1, p_r))
        p_used = max(1, p_r * p_c)
        mach = self.machine
        rate = mach.flops_per_core * mach.blas_efficiency * eff
        t = flops / (rate * p_used) * max(p_r / p_c, p_c / p_r) ** 0.15
        t += part.n_supernodes * (math.log2(max(p_used, 2))) * mach.latency
        return t, fill

    def _rowperm_iters(self, rowperm: str) -> float:
        """Iteration multiplier: no row pivoting weakens the preconditioner."""
        return {"NOROWPERM": 1.7, "LargeDiag_MC64": 1.0}[rowperm]

    def _solve_time(self, fill: float, iters: float, p: int, p_r: int) -> float:
        """Block-Jacobi preconditioned GMRES time for one linear solve."""
        mach = self.machine
        p_c = max(1, p // max(1, p_r))
        p_used = max(1, p_r * p_c)
        # two triangular solves per iteration per plane, bandwidth bound
        trisolve = 2.0 * 16.0 * fill / (mach.mem_bandwidth * mach.nodes)
        matvec = 16.0 * 9.0 * self.plane_size * self.n_planes / (
            mach.mem_bandwidth * mach.nodes
        )
        comm = 2.0 * math.log2(max(p_used, 2)) * mach.latency
        return iters * (trisolve * self.n_planes / max(1, p_used // self.n_planes or 1) + matvec + comm)


class M3DC1(_FusionBase):
    """M3D_C1 surrogate: ``x = [ROWPERM, COLPERM, p_r, NSUP, NREL]`` (β = 5).

    ``p`` (the MPI count) is fixed by the experiment per Sec. 6.2 ("we fix
    the geometry model, its discretizations and MPI count p"), so only the
    grid shape ``p_r`` and the SuperLU structural parameters are tuned.
    """

    name = "m3dc1"

    def tuning_space(self) -> Space:
        return Space(
            [
                Categorical("ROWPERM", list(ROWPERM_CHOICES)),
                Categorical("COLPERM", list(symbolic.COLPERM_CHOICES)),
                Integer("p_r", 1, self.p_max, transform="log"),
                Integer("NSUP", 8, 512, transform="log"),
                Integer("NREL", 1, 64, transform="log"),
            ]
        )

    def default_config(self, task: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            "ROWPERM": "LargeDiag_MC64",
            "COLPERM": "METIS_AT_PLUS_A",
            "p_r": max(1, int(math.sqrt(self.p_max))),
            "NSUP": 128,
            "NREL": 20,
        }

    def run(self, task: Mapping[str, Any], config: Mapping[str, Any], repeat: int) -> float:
        steps = int(task["t"])
        p = self.p_max
        p_r = int(config["p_r"])
        t_fact, fill = self._factorization_time(config, p, p_r)
        iters = self.base_iters * self._rowperm_iters(config["ROWPERM"])
        t_solve = self._solve_time(fill, iters, p, p_r)
        # plane blocks factorize concurrently (p >= n_planes in practice)
        base = t_fact + steps * self.n_solves_per_step * t_solve + 2e-4
        rng = noise_rng(self.seed + repeat, task, config)
        return float(base * math.exp(rng.normal(0.0, self.noise)))


class NIMROD(_FusionBase):
    """NIMROD surrogate: adds assembly blocking ``nxbl, nybl`` (β = 7)."""

    name = "nimrod"

    def tuning_space(self) -> Space:
        return Space(
            [
                Categorical("ROWPERM", list(ROWPERM_CHOICES)),
                Categorical("COLPERM", list(symbolic.COLPERM_CHOICES)),
                Integer("p_r", 1, self.p_max, transform="log"),
                Integer("NSUP", 8, 512, transform="log"),
                Integer("NREL", 1, 64, transform="log"),
                Integer("nxbl", 1, 32, transform="log"),
                Integer("nybl", 1, 32, transform="log"),
            ]
        )

    def default_config(self, task: Mapping[str, Any]) -> Dict[str, Any]:
        return {
            "ROWPERM": "LargeDiag_MC64",
            "COLPERM": "METIS_AT_PLUS_A",
            "p_r": max(1, int(math.sqrt(self.p_max))),
            "NSUP": 128,
            "NREL": 20,
            "nxbl": 4,
            "nybl": 4,
        }

    def _assembly_time(self, nxbl: int, nybl: int) -> float:
        """Per-step matrix assembly with 2-D blocking.

        Too few blocks starve cache reuse; too many pay per-block overhead —
        the sweet spot sits at a moderate block count, as in the real code.
        """
        blocks = nxbl * nybl
        elems = 4.0 * self.plane_size * self.n_planes
        per_elem = 160.0 / self.machine.flops_per_core
        cache_eff = blocks / (blocks + 8.0)
        overhead = 1.0 + blocks / 128.0
        return elems * per_elem / cache_eff * overhead

    def run(self, task: Mapping[str, Any], config: Mapping[str, Any], repeat: int) -> float:
        steps = int(task["t"])
        p = self.p_max
        p_r = int(config["p_r"])
        t_fact, fill = self._factorization_time(config, p, p_r)
        iters = self.base_iters * self._rowperm_iters(config["ROWPERM"])
        t_solve = self._solve_time(fill, iters, p, p_r)
        t_asm = self._assembly_time(int(config["nxbl"]), int(config["nybl"]))
        base = t_fact + steps * (
            self.n_solves_per_step * t_solve + t_asm
        ) + 2e-4
        rng = noise_rng(self.seed + repeat, task, config)
        return float(base * math.exp(rng.normal(0.0, self.noise)))
