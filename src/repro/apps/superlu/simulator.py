"""SuperLU_DIST factorization simulator.

Tuning setup from Sec. 6.2 of the paper: a task is a (PARSEC) matrix name,
and the tuning parameters are

``x = [COLPERM, LOOK, p, p_r, NSUP, NREL]``

— column permutation, look-ahead depth, MPI process count, process-grid
rows, maximum supernode size and supernode relaxation.  The symbolic phase
is *computed* (fill and supernodes really depend on COLPERM/NSUP/NREL via
:mod:`repro.apps.superlu.symbolic`); the numeric phase is priced on the
machine model:

* GEMM-dominated supernodal updates at a BLAS-3 efficiency that grows with
  the mean supernode width (small NSUP ⇒ skinny panels ⇒ BLAS-2 rates);
* per-supernode panel broadcasts along process rows/columns (α-β terms),
  overlapped by the look-ahead pipeline — stalls shrink as ``1/(1+LOOK)``
  but large LOOK windows buffer more panels;
* 2-D grid load imbalance growing with ``NSUP/(n/p_r)`` (few fat block rows
  cannot balance) and with grid aspect;
* objectives: factorization **time** and **memory** (factor storage +
  per-process panel/look-ahead buffers), the two axes of the paper's
  multi-objective study (Fig. 7 / Tab. 5).

Symbolic results (:func:`~repro.apps.superlu.symbolic.analyze`) are cached
per (matrix, COLPERM) on the instance, so one tuning run pays for at most
four analyses per matrix, each on first use: none is computed at
construction, and none outlives the instance.  At the default scale one
analysis of a small PARSEC matrix takes from about a millisecond
(NATURAL) to a few tens of milliseconds (MMD_AT_PLUS_A).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ...core.params import Categorical, Integer
from ...core.space import Space
from ..base import Application, noise_rng
from . import symbolic
from .matrices import PARSEC_STATS, parsec_matrix

__all__ = ["SuperLUDIST", "DEFAULT_CONFIG"]

#: the paper's Tab. 5 default configuration (COLPERM 4 = METIS_AT_PLUS_A)
DEFAULT_CONFIG: Dict[str, Any] = {
    "COLPERM": "METIS_AT_PLUS_A",
    "LOOK": 10,
    "p": 256,
    "p_r": 16,
    "NSUP": 128,
    "NREL": 20,
}


class SuperLUDIST(Application):
    """Sparse LU factorization time/memory simulator.

    Parameters
    ----------
    matrices:
        Task universe (names from :data:`~repro.apps.superlu.matrices.PARSEC_STATS`).
    objectives:
        ``("time",)``, ``("memory",)`` or ``("time", "memory")`` — the γ = 2
        setting reproduces Sec. 6.7.
    scale:
        Matrix downscaling factor passed to the generator.
    noise:
        σ of the lognormal run-to-run noise on the time objective.
    """

    name = "superlu_dist"

    def __init__(
        self,
        matrices: Optional[List[str]] = None,
        objectives: Tuple[str, ...] = ("time",),
        scale: float = 0.05,
        noise: float = 0.05,
        **kw,
    ):
        super().__init__(**kw)
        self.matrices = list(matrices or PARSEC_STATS)
        bad = [m for m in self.matrices if m not in PARSEC_STATS]
        if bad:
            raise ValueError(f"unknown matrices {bad}")
        if not set(objectives) <= {"time", "memory"} or not objectives:
            raise ValueError(f"objectives must be among ('time','memory'), got {objectives}")
        self.objectives = tuple(objectives)
        self.n_objectives = len(self.objectives)
        self.objective_names = self.objectives
        self.scale = float(scale)
        self.noise = float(noise)
        self.p_max = self.machine.total_cores
        self._symbolic_cache: Dict[Tuple[str, str], symbolic.SymbolicResult] = {}

    # -- spaces ------------------------------------------------------------
    def task_space(self) -> Space:
        return Space([Categorical("matrix", self.matrices)])

    def tuning_space(self) -> Space:
        return Space(
            [
                Categorical("COLPERM", list(symbolic.COLPERM_CHOICES)),
                Integer("LOOK", 1, 20),
                Integer("p", 2, self.p_max, transform="log"),
                Integer("p_r", 1, self.p_max, transform="log"),
                Integer("NSUP", 8, 512, transform="log"),
                Integer("NREL", 1, 64, transform="log"),
            ],
            constraints=["p_r <= p"],
        )

    def default_config(self, task: Mapping[str, Any]) -> Dict[str, Any]:
        cfg = dict(DEFAULT_CONFIG)
        cfg["p"] = min(cfg["p"], self.p_max)
        cfg["p_r"] = min(cfg["p_r"], cfg["p"])
        return cfg

    # -- symbolic cache -----------------------------------------------------
    def _symbolic(self, matrix: str, colperm: str) -> symbolic.SymbolicResult:
        key = (matrix, colperm)
        if key not in self._symbolic_cache:
            A = parsec_matrix(matrix, scale=self.scale, seed=self.seed)
            self._symbolic_cache[key] = symbolic.analyze(A, colperm, seed=self.seed)
        return self._symbolic_cache[key]

    # -- simulator -----------------------------------------------------------
    def _factorization(self, task: Mapping[str, Any], config: Mapping[str, Any]) -> Tuple[float, float]:
        """Deterministic (time_seconds, memory_bytes) for one configuration."""
        matrix = task["matrix"]
        colperm = config["COLPERM"]
        look = int(config["LOOK"])
        p, p_r = int(config["p"]), int(config["p_r"])
        nsup, nrel = int(config["NSUP"]), int(config["NREL"])
        p_c = max(1, p // p_r)
        p_used = p_r * p_c
        mach = self.machine

        sym = self._symbolic(matrix, colperm)
        part = symbolic.supernodes(sym, nsup, nrel)
        n = sym.n
        # LU stores L and U on the symmetric pattern: ≈ 2|L| − n entries,
        # plus the zero padding introduced by relaxed amalgamation
        factor_nnz = 2.0 * (sym.fill_nnz + part.relaxed_fill) - n
        flops = 2.0 * sym.cholesky_flops  # LU ≈ 2× Cholesky on the pattern

        # BLAS-3 efficiency from the mean supernode width
        w = max(part.mean_width, 1.0)
        gemm_eff = (w / (w + 12.0)) / (1.0 + (w / 320.0) ** 2)
        nthreads = max(1, self.p_max // p)
        rate = (
            mach.flops_per_core
            * mach.blas_efficiency
            * nthreads
            * gemm_eff
            / (1.0 + 0.03 * (nthreads - 1))
        )

        # 2-D grid imbalance: few block-rows per process row cannot balance
        rows_per_pr = max(n / (w * p_r), 1.0)
        imbalance = (1.0 + 1.0 / rows_per_pr) * max(p_r / p_c, p_c / p_r) ** 0.15
        t_comp = flops / (rate * p_used) * imbalance

        # panel communication: every supernode broadcasts its panel along
        # its process row and column; look-ahead hides a growing share
        nsn = part.n_supernodes
        avg_panel_bytes = 8.0 * factor_nnz / max(nsn, 1)
        log_pr = math.log2(p_r) if p_r > 1 else 0.0
        log_pc = math.log2(p_c) if p_c > 1 else 0.0
        t_msg = nsn * (log_pr + log_pc) * mach.latency
        t_vol = avg_panel_bytes * nsn * (log_pr + log_pc) / max(p_c, 1) * mach.inv_bandwidth
        stall = 1.0 + 2.0 / (1.0 + look)  # pipeline bubbles shrink with LOOK
        t_comm = (t_msg + t_vol) * stall

        time_s = t_comp + t_comm + 1e-4

        # memory: factors distributed over processes, plus per-process panel
        # and look-ahead window buffers that grow with NSUP and LOOK
        factor_bytes = 16.0 * factor_nnz  # value + index
        buffer_bytes = p_used * (2 + look) * nsup * (n / max(p_r, 1)) * 8.0 * 0.05
        memory_bytes = factor_bytes + buffer_bytes
        return time_s, memory_bytes

    def run(self, task: Mapping[str, Any], config: Mapping[str, Any], repeat: int) -> Any:
        time_s, memory_b = self._factorization(task, config)
        rng = noise_rng(self.seed + repeat, task, config)
        time_s *= math.exp(rng.normal(0.0, self.noise))
        out = {"time": time_s, "memory": memory_b}
        vals = [out[o] for o in self.objectives]
        return vals[0] if self.n_objectives == 1 else vals

    # -- conveniences for benchmarks ------------------------------------------
    def evaluate_default(self, matrix: str) -> Tuple[float, float]:
        """(time, memory) of the paper's default configuration."""
        return self._factorization({"matrix": matrix}, self.default_config({"matrix": matrix}))
