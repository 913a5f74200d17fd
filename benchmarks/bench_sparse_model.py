"""Sparse inducing-point LCM vs the exact LCM: fit cost and tuning quality.

The exact LCM factorizes the full Nδ×Nδ task-stacked covariance — O(N³)
per likelihood evaluation — which caps multitask campaigns at a few
hundred observations.  The sparse backend (``repro.core.model.SparseLCM``)
fits θ on M inducing rows and assembles a Nyström/SoR posterior in
O(N·M²), turning the modeling phase linear in N.

This harness measures both claims at N≈2000 and gates the registry
semantics deterministically.  ``--check`` runs the CI gates and writes
``benchmarks/results/BENCH_model.json``:

* **fit-speedup** — at N≈2000 the sparse fit is ≥ 10× faster than the
  exact fit (same single restart, same L-BFGS iteration cap);
* **small-n-exact** — below ``sparse_threshold`` the ``auto`` policy
  selects the exact backend and an ``auto`` campaign reproduces the
  explicit ``exact-lcm`` campaign record-for-record (and incumbents to
  1e-8);
* **quality** — a forced-sparse campaign's incumbents land within 5% of
  the exact campaign's on every task;
* **sparse-determinism** — a same-seed forced-sparse async campaign
  reproduces every evaluation exactly;
* **sparse-resume** — a forced-sparse async campaign killed mid-flight
  and resumed from its checkpoint reproduces the uninterrupted
  evaluation set exactly.

Run::

    PYTHONPATH=src python benchmarks/bench_sparse_model.py           # timings
    PYTHONPATH=src python benchmarks/bench_sparse_model.py --check   # CI gates
"""

import argparse
import json
import math
import os
import time

# harness first: it pins OpenBLAS to one thread before numpy loads
from harness import fmt, print_table
import numpy as np

from repro.core import (
    GPTune,
    Integer,
    LCM,
    Options,
    Real,
    Space,
    SparseLCM,
    TuningProblem,
    select_backend,
)
from repro.runtime.async_engine import SimScheduler
from repro.runtime.simclock import SimClock

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "BENCH_model.json"
)

#: the scaling point: far past any exact-LCM comfort zone
N_LARGE, N_TASKS_LARGE, N_DIMS, N_INDUCING = 2000, 4, 2, 128

#: L-BFGS cap shared by both fits so the comparison is per-iteration fair
FIT_MAXITER = 10

#: campaign shape for the quality/determinism gates
N_TASKS, N_SAMPLES, N_WORKERS = 4, 10, 4
TASKS = [{"t": i} for i in range(N_TASKS)]


def objective(t, c):
    """Smooth single-objective surface with a task-dependent optimum."""
    x = float(c["x"])
    mu = 0.2 + 0.06 * float(t["t"])
    return 1.0 + (x - mu) ** 2


def duration(task, cfg):
    """Deterministic virtual duration, a pure hash of (task, x)."""
    x = float(cfg["x"])
    u = math.sin(x * 12.9898 + float(task) * 78.233) * 43758.5453
    u -= math.floor(u)
    return 1.0 + 2.0 * u


def _problem():
    return TuningProblem(
        Space([Integer("t", 0, 16)]),
        Space([Real("x", 0.0, 1.0)]),
        objective,
    )


def _options(**kw):
    base = dict(
        seed=7, n_start=1, pso_iters=8, ei_candidates=12, lbfgs_maxiter=40
    )
    base.update(kw)
    return Options(**base)


def _synthetic(n, n_tasks, n_dims, seed=0):
    """Smooth correlated multitask data at arbitrary scale."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, n_dims))
    tidx = rng.integers(0, n_tasks, size=n)
    tidx[:n_tasks] = np.arange(n_tasks)  # every task observed
    y = (
        np.sin(3.0 * X[:, 0])
        + 0.5 * np.cos(2.0 * X[:, 1 % n_dims])
        + 0.3 * tidx
        + 0.05 * rng.normal(size=n)
    )
    return X, y, tidx


def time_fits():
    """Wall-clock one exact and one sparse fit at N_LARGE observations."""
    X, y, tidx = _synthetic(N_LARGE, N_TASKS_LARGE, N_DIMS)

    t0 = time.perf_counter()
    sparse = SparseLCM(
        N_TASKS_LARGE, N_DIMS, n_inducing=N_INDUCING,
        n_start=1, maxiter=FIT_MAXITER, seed=0,
    ).fit(X, y, tidx)
    t_sparse = time.perf_counter() - t0

    t0 = time.perf_counter()
    exact = LCM(
        N_TASKS_LARGE, N_DIMS, n_start=1, maxiter=FIT_MAXITER, seed=0
    ).fit(X, y, tidx)
    t_exact = time.perf_counter() - t0

    return t_exact, t_sparse, exact, sparse


def run_campaign(**opt_kw):
    opts = _options(**opt_kw)
    return GPTune(_problem(), opts).tune(TASKS, N_SAMPLES)


def run_sparse_async():
    opts = _options(
        model_backend="sparse-lcm", n_inducing=8,
        async_eval=True, max_inflight=N_WORKERS, n_workers=N_WORKERS,
    )
    clock = SimClock()
    tuner = GPTune(_problem(), opts, scheduler=SimScheduler(duration, clock=clock))
    res = tuner.tune(TASKS, N_SAMPLES)
    return res, clock.now


class _Kill(Exception):
    pass


def check_sparse_resume(reference):
    """Kill a forced-sparse async campaign mid-flight, resume, compare."""
    import tempfile

    def kill_at_3(rounds, data, stats):
        if rounds == 3:
            raise _Kill()

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "sparse.ck.json")
        opts = _options(
            model_backend="sparse-lcm", n_inducing=8,
            async_eval=True, max_inflight=N_WORKERS, n_workers=N_WORKERS,
            checkpoint_path=path,
        )
        tuner = GPTune(
            _problem(), opts, scheduler=SimScheduler(duration, clock=SimClock())
        )
        try:
            tuner.tune(TASKS, N_SAMPLES, callback=kill_at_3)
        except _Kill:
            pass
        fresh = GPTune(
            _problem(), opts, scheduler=SimScheduler(duration, clock=SimClock())
        )
        resumed = fresh.resume(path)
    return bool(resumed.data.to_records() == reference.data.to_records())


def check_gates(t_exact, t_sparse):
    """The five deterministic CI gates; prints PASS/FAIL per gate."""
    speedup = t_exact / t_sparse
    g_speed = bool(speedup >= 10.0)
    print(f"  fit-speedup: {fmt(speedup)}x at N={N_LARGE} "
          f"(exact {fmt(t_exact)}s vs sparse {fmt(t_sparse)}s)  "
          f"{'PASS' if g_speed else 'FAIL'}")

    auto_res = run_campaign(model_backend="auto")
    exact_res = run_campaign(model_backend="exact-lcm")
    small_n = N_TASKS * N_SAMPLES
    g_small = bool(
        select_backend("auto", small_n, _options().sparse_threshold) == "exact-lcm"
        and auto_res.data.to_records() == exact_res.data.to_records()
        and np.allclose(
            auto_res.best_values(), exact_res.best_values(), atol=1e-8
        )
    )
    print(f"  small-n-exact: auto selects exact below threshold and "
          f"reproduces the exact campaign  {'PASS' if g_small else 'FAIL'}")

    sparse_res = run_campaign(model_backend="sparse-lcm", n_inducing=8)
    g_quality = bool(
        np.all(sparse_res.best_values() <= exact_res.best_values() * 1.05)
    )
    print(f"  quality: forced-sparse incumbents within 5% of exact on all "
          f"{N_TASKS} tasks  {'PASS' if g_quality else 'FAIL'}")

    a1, m1 = run_sparse_async()
    a2, m2 = run_sparse_async()
    g_det = bool(a1.data.to_records() == a2.data.to_records() and m1 == m2)
    print(f"  sparse-determinism: same-seed async sparse rerun identical "
          f"(makespan {fmt(m1)}s virtual)  {'PASS' if g_det else 'FAIL'}")

    g_resume = check_sparse_resume(a1)
    print(f"  sparse-resume: killed-mid-flight sparse campaign resumes to "
          f"the identical evaluation set  {'PASS' if g_resume else 'FAIL'}")

    return {
        "fit_speedup_at_least_10x": g_speed,
        "small_n_selects_exact": g_small,
        "quality_within_5pct": g_quality,
        "same_seed_identical": g_det,
        "deterministic_resume": g_resume,
        "passed": g_speed and g_small and g_quality and g_det and g_resume,
    }, {
        "exact_best": [float(v) for v in exact_res.best_values()],
        "sparse_best": [float(v) for v in sparse_res.best_values()],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Sparse inducing-point LCM vs exact LCM fit cost"
    )
    ap.add_argument("--check", action="store_true",
                    help="run the deterministic CI gates")
    ap.add_argument("--out", default=DEFAULT_OUT, help="JSON output path")
    args = ap.parse_args(argv)

    print(f"== exact vs sparse LCM fit: N={N_LARGE}, δ={N_TASKS_LARGE}, "
          f"M={N_INDUCING}, maxiter={FIT_MAXITER} ==")
    t_exact, t_sparse, exact, sparse = time_fits()
    print_table(
        "surrogate fit cost",
        ["backend", "fit (s)", "log-likelihood", "complexity"],
        [
            ["exact-lcm", fmt(t_exact), fmt(exact.log_likelihood_), "O(N^3)"],
            ["sparse-lcm", fmt(t_sparse), fmt(sparse.log_likelihood_),
             "O(N*M^2)"],
        ],
    )
    print(f"speedup {fmt(t_exact / t_sparse)}x")

    payload = {
        "config": {
            "n_large": N_LARGE,
            "n_tasks_large": N_TASKS_LARGE,
            "n_inducing": N_INDUCING,
            "fit_maxiter": FIT_MAXITER,
            "campaign": {"n_tasks": N_TASKS, "n_samples": N_SAMPLES},
        },
        "fit": {
            "exact_seconds": float(t_exact),
            "sparse_seconds": float(t_sparse),
            "speedup": float(t_exact / t_sparse),
            "exact_log_likelihood": float(exact.log_likelihood_),
            "sparse_log_likelihood": float(sparse.log_likelihood_),
        },
    }

    ok = True
    if args.check:
        print("== deterministic gates ==")
        payload["checks"], payload["campaigns"] = check_gates(t_exact, t_sparse)
        ok = payload["checks"]["passed"]

    os.makedirs(os.path.dirname(os.path.abspath(args.out)) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
