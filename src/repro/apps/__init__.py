"""Application substrates evaluated in the paper (Table 2).

The names below resolve on first use (PEP 562): tuning one application
does not import the others (SuperLU alone pulls in ``scipy.sparse`` and
``scipy.spatial``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".analytical": ("AnalyticalApp", "analytical_function", "true_minimum"),
    ".base": ("Application", "noise_rng"),
    ".fusion": ("M3DC1", "NIMROD"),
    ".hypre": ("HypreApp",),
    ".scalapack": ("PDGEQRF", "PDSYEVX"),
    ".superlu": ("SuperLUDIST",),
    ".synthetic": ("BraninApp", "RosenbrockApp", "SphereApp"),
})
