"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at reduced
scale (see DESIGN.md §4 for the experiment index and per-benchmark
downscaling).  Results are printed as paper-style rows *and* dumped as JSON
under ``benchmarks/results/`` so EXPERIMENTS.md can cite exact numbers.

Run with::

    pytest benchmarks/ --benchmark-only -s

Importing this module pins OpenBLAS to one thread (unless
``OPENBLAS_NUM_THREADS`` is already set), as ``tests/conftest.py`` and the
end-to-end benchmark's children do, so a script that imports it before
numpy gives the same records at any machine's default thread count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json  # noqa: E402
from typing import Any, Dict  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: fast-but-honest GPTune options used across the benchmark suite
FAST_OPTS = dict(n_start=2, lbfgs_maxiter=80, pso_iters=15, ei_candidates=24)


def save_results(name: str, payload: Dict[str, Any]) -> str:
    """Write a benchmark's payload to ``benchmarks/results/<name>.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
    return path


def print_table(title: str, headers, rows) -> None:
    """Print a fixed-width table resembling the paper's layout."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def fmt(x: float, nd: int = 4) -> str:
    """Compact float formatting for table cells."""
    return f"{x:.{nd}g}"
