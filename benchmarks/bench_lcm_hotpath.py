"""Micro-benchmarks and regression gates for the LCM modeling hot path.

Times the three operations that dominate GPTune's tuner overhead — one
likelihood+gradient evaluation, one full ``fit``, and batched ``predict`` —
at several sample counts, comparing the vectorized fast path against the
retained loop-based reference implementation
(:meth:`repro.core.lcm.LCM._nll_and_grad_reference`).  A second table times
one evaluation at the shapes the end-to-end campaigns fit (δ=6, β=1,
N ∈ {30, 48, 60}, and the sparse backend's δ=2, β=1, N=128 inner fit),
where the per-call fixed cost rather than the O(N³) algebra dominates.  A
third table times one 3-start ``LCM.fit`` at those shapes three ways: the
restarts in lockstep through the ``setulb`` driver (what every campaign
runs), the same driver with one restart per group, and scipy's
``minimize`` wrapper row by row, interleaved in a child process with
``OPENBLAS_NUM_THREADS=1`` (as the end-to-end children run).
Results are printed as a table and dumped to ``BENCH_lcm.json``.

``--check`` runs the deterministic CI gates (wall-clock numbers stay
informational, so the job cannot be flaky):

* **equivalence** — the vectorized nll/grad must match the reference within
  1e-8 (nll) / 1e-6 (grad ∞-norm) on randomized (δ, β, Q, θ) cases;
* **layout cache** — nll and gradient must be bitwise equal between a fresh
  ``LCM`` and one whose task-layout cache was last built for another
  ``tidx`` (a permuted layout of the same N, and a different N);
* **driver ≡ minimize** — at every end-to-end shape, ``LCM.fit`` through
  the direct ``setulb`` driver (:mod:`repro.core.lbfgsb`) and through
  ``scipy.optimize.minimize(method="L-BFGS-B")`` must give bitwise-equal θ
  and the same summed ``nfev``;
* **lockstep ≡ per-restart** — at every end-to-end shape, the fit whose
  restarts advance in one lockstep group and the fit that runs each
  restart as its own group must give bitwise-equal θ, ``L`` and ``α`` and
  the same per-restart ``nfev``;
* **warm-refit accounting** — a 20-iteration single-objective campaign with
  ``refit_warm_start`` + ``refit_interval=2`` must spend strictly fewer
  L-BFGS multi-starts than the cold baseline (counted from the campaign
  log's ``model-fit`` events) while reaching an incumbent no worse than 5%
  above the cold run's.

Run::

    PYTHONPATH=src python benchmarks/bench_lcm_hotpath.py            # full timings
    PYTHONPATH=src python benchmarks/bench_lcm_hotpath.py --check    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np
from scipy import optimize

from repro.core import GPTune, Options, Real, Space, TuningProblem
from repro.core.kernels import pairwise_sq_diffs
from repro.core import lbfgsb, lcm as lcm_module
from repro.core.lcm import LCM
from repro.reporting import phase_breakdown
from repro.runtime.async_engine import SerialScheduler

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "BENCH_lcm.json"
)

#: the acceptance-point shape: N=400 stacked samples, δ=4 tasks, β=6 dims
DELTA, BETA, Q = 4, 6, 3

#: randomized shapes for the equivalence gate: (δ, β, Q, N)
EQUIV_CASES = [(2, 2, 2, 24), (3, 4, 2, 30), (4, 6, 3, 40), (1, 3, 1, 16), (5, 5, 3, 36)]

#: shapes the end-to-end campaigns fit, (δ, β, N) with the default Q:
#: lockstep MLA stacks ≤ 60 rows of 6 tasks, the sparse backend's inner
#: fit sees 128 inducing rows of 2 tasks
E2E_SHAPES = [(6, 1, 30), (6, 1, 48), (6, 1, 60), (2, 1, 128)]


def _synthetic(rng, n, delta=DELTA, beta=BETA):
    X = rng.random((n, beta))
    tidx = np.sort(rng.integers(0, delta, n))
    y = np.sin(3.0 * X[:, 0]) + 0.3 * tidx + 0.05 * rng.normal(size=n)
    return X, y, tidx


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_nll_grad(sizes, repeats):
    """Single nll+grad evaluation: fast path vs reference, per N."""
    rng = np.random.default_rng(0)
    out = {}
    for n in sizes:
        X, y, tidx = _synthetic(rng, n)
        sqd = pairwise_sq_diffs(X)
        m = LCM(DELTA, BETA, n_latent=Q, seed=0)
        theta = m._initial_theta(y, restart=1)
        m._nll_and_grad(theta, sqd, y, tidx)  # warm the workspace
        t_fast = _best_of(lambda: m._nll_and_grad(theta, sqd, y, tidx), repeats)
        t_ref = _best_of(
            lambda: m._nll_and_grad_reference(theta, sqd, y, tidx), max(2, repeats // 2)
        )
        out[str(n)] = {
            "fast_s": t_fast,
            "reference_s": t_ref,
            "speedup": t_ref / t_fast if t_fast > 0 else float("inf"),
        }
        print(f"  nll+grad N={n:<4} fast {t_fast*1e3:8.2f} ms   "
              f"ref {t_ref*1e3:8.2f} ms   speedup {t_ref/t_fast:5.2f}x")
    return out


def bench_nll_grad_e2e(repeats):
    """One nll+grad evaluation at the end-to-end campaign shapes."""
    rng = np.random.default_rng(3)
    out = {}
    for delta, beta, n in E2E_SHAPES:
        X, y, tidx = _synthetic(rng, n, delta, beta)
        sqd = pairwise_sq_diffs(X)
        m = LCM(delta, beta, seed=0)
        theta = m._initial_theta(y, restart=1)
        m._nll_and_grad(theta, sqd, y, tidx)  # warm the workspace and layout
        calls = max(20, 20000 // n)

        def batch():
            for _ in range(calls):
                m._nll_and_grad(theta, sqd, y, tidx)

        t = _best_of(batch, repeats) / calls
        key = f"d{delta}_b{beta}_n{n}"
        out[key] = {"delta": delta, "beta": beta, "n": n, "Q": m.params.Q, "fast_s": t}
        print(f"  nll+grad δ={delta} β={beta} N={n:<4} {t*1e6:8.1f} us/eval")
    return out


def bench_fit(sizes):
    """One full fit (n_start=1, capped iterations) per N."""
    rng = np.random.default_rng(1)
    out = {}
    for n in sizes:
        X, y, tidx = _synthetic(rng, n)
        m = LCM(DELTA, BETA, n_latent=Q, seed=0, n_start=1, maxiter=30)
        t0 = time.perf_counter()
        m.fit(X, y, tidx)
        out[str(n)] = {"fit_s": time.perf_counter() - t0}
        print(f"  fit      N={n:<4} {out[str(n)]['fit_s']*1e3:8.2f} ms")
    return out


def bench_predict(n, batch, calls):
    """Batched predict throughput, with and without the weight cache."""
    rng = np.random.default_rng(2)
    X, y, tidx = _synthetic(rng, n)
    m = LCM(DELTA, BETA, n_latent=Q, seed=0, n_start=1, maxiter=30).fit(X, y, tidx)
    Xstar = rng.random((batch, BETA))
    m.predict(0, Xstar)  # populate the cache

    t0 = time.perf_counter()
    for _ in range(calls):
        m.predict(0, Xstar)
    t_cached = (time.perf_counter() - t0) / calls

    t0 = time.perf_counter()
    for _ in range(calls):
        m._pred_cache.clear()
        m.predict(0, Xstar)
    t_cold = (time.perf_counter() - t0) / calls
    print(f"  predict  N={n} batch={batch}: cached {t_cached*1e6:7.1f} us/call   "
          f"cold {t_cold*1e6:7.1f} us/call")
    return {
        "n": n,
        "batch": batch,
        "cached_s_per_call": t_cached,
        "uncached_s_per_call": t_cold,
    }


class _ScipyPath:
    """``scipy.optimize.minimize`` behind the driver's call signature: a
    stacked ``x0`` runs row by row, each row's objective called as the
    one-row stack of that restart."""

    @staticmethod
    def minimize(fun, x0, args=(), *, bounds, maxiter=15000):
        runs = []
        for r, row in enumerate(x0):
            def one(x, *a, r=r):
                f, g = fun(x[None], [r], *a)
                return f[0], g[0]

            runs.append(optimize.minimize(
                one, row, args=args, jac=True, method="L-BFGS-B",
                bounds=list(zip(*bounds)), options={"maxiter": maxiter},
            ))
        nfevs = np.array([res.nfev for res in runs])
        return lbfgsb.LBFGSBResult(
            x=np.stack([res.x for res in runs]), fun=np.array([res.fun for res in runs]),
            nfev=int(nfevs.sum()), nit=np.array([res.nit for res in runs]), nfevs=nfevs,
        )


class _CountingPath:
    """Sums ``nfev`` over ``minimize`` calls, as the e2e tracer does, and
    keeps the per-restart counts in restart order."""

    def __init__(self, path):
        self.path, self.nfev, self.nfevs = path, 0, []

    def minimize(self, *args, **kwargs):
        res = self.path.minimize(*args, **kwargs)
        self.nfev += int(res.nfev)
        self.nfevs.extend(int(v) for v in res.nfevs)
        return res


class _RestartPerGroup(SerialScheduler):
    """An inline scheduler whose ``n_workers`` makes :meth:`LCM.fit` run
    every restart as its own group."""

    def __init__(self, n_workers):
        super().__init__()
        self.n_workers = n_workers


#: the three fit paths of ``fit_paths``: (optimizer at the seam, restart
#: groups); "driver" is the lockstep fit every campaign runs
_PATHS = {
    "driver": (lbfgsb, None),
    "per_restart": (lbfgsb, _RestartPerGroup(3)),
    "minimize": (_ScipyPath, None),
}


def _fit_through(path, executor, delta, beta, X, y, tidx):
    """One e2e-shaped ``LCM.fit`` (3 starts) with ``path`` at the
    ``optimize`` seam; returns ``(seconds, model, counting path)``."""
    counting = _CountingPath(path)
    saved, lcm_module.optimize = lcm_module.optimize, counting
    try:
        t0 = time.perf_counter()
        m = LCM(delta, beta, n_start=3, maxiter=60, seed=0, executor=executor).fit(X, y, tidx)
        elapsed = time.perf_counter() - t0
    finally:
        lcm_module.optimize = saved
    return elapsed, m, counting


def _same_fit(a, b):
    return all(getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in ("theta", "_L", "_alpha"))


def fit_paths(repeats):
    """Per-fit time and result of the lockstep ``setulb`` driver, the same
    driver with one restart per group, and scipy's wrapper at the e2e
    shapes, the three paths interleaved fit by fit."""
    rng = np.random.default_rng(5)
    out = {}
    for delta, beta, n in E2E_SHAPES:
        X, y, tidx = _synthetic(rng, n, delta, beta)
        times = {name: [] for name in _PATHS}
        runs = {}
        for _ in range(repeats):
            for name, (path, executor) in _PATHS.items():
                t, m, counting = _fit_through(path, executor, delta, beta, X, y, tidx)
                times[name].append(t)
                runs[name] = (m, counting)
        med = {name: float(np.median(v)) for name, v in times.items()}
        (drv, drv_count), (per, per_count), (ref, ref_count) = (runs[k] for k in _PATHS)
        out[f"d{delta}_b{beta}_n{n}"] = {
            "delta": delta, "beta": beta, "n": n,
            "driver_s": med["driver"], "per_restart_s": med["per_restart"],
            "minimize_s": med["minimize"],
            "speedup": med["minimize"] / med["driver"],
            "lockstep_speedup": med["per_restart"] / med["driver"],
            "theta_equal": drv.theta.tobytes() == ref.theta.tobytes(),
            "nfev_driver": drv_count.nfev, "nfev_minimize": ref_count.nfev,
            "lockstep_equal": _same_fit(drv, per),
            "nfevs_driver": drv_count.nfevs, "nfevs_per_restart": per_count.nfevs,
        }
    return out


def bench_fit_paths(repeats):
    """Run :func:`fit_paths` in a child with single-threaded BLAS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--fit-paths-child", str(repeats)],
        env=env, check=True, capture_output=True, text=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for row in out.values():
        print(f"  fit δ={row['delta']} β={row['beta']} N={row['n']:<4} "
              f"lockstep {row['driver_s']*1e3:7.2f} ms   "
              f"per-restart {row['per_restart_s']*1e3:7.2f} ms   "
              f"minimize {row['minimize_s']*1e3:7.2f} ms   "
              f"speedup {row['speedup']:5.2f}x (lockstep {row['lockstep_speedup']:4.2f}x)")
    return out


def check_driver_equivalence(rows):
    """Gate: driver ≡ minimize — bitwise θ and equal nfev at every shape."""
    bad = [k for k, r in rows.items()
           if not (r["theta_equal"] and r["nfev_driver"] == r["nfev_minimize"])]
    passed = not bad
    print(f"  driver ≡ minimize: {len(rows) - len(bad)}/{len(rows)} e2e shapes "
          f"bitwise-equal θ and nfev  {'PASS' if passed else 'FAIL ' + ', '.join(bad)}")
    return {"shapes": len(rows), "mismatched": bad, "passed": passed}


def check_lockstep_equivalence(rows):
    """Gate: lockstep ≡ per-restart — one lockstep group and one group per
    restart give bitwise-equal θ, L and α and equal per-restart nfev."""
    bad = [k for k, r in rows.items()
           if not (r["lockstep_equal"] and r["nfevs_driver"] == r["nfevs_per_restart"])]
    passed = not bad
    print(f"  lockstep ≡ per-restart: {len(rows) - len(bad)}/{len(rows)} e2e shapes "
          f"bitwise-equal θ, L, α and per-restart nfev  "
          f"{'PASS' if passed else 'FAIL ' + ', '.join(bad)}")
    return {"shapes": len(rows), "mismatched": bad, "passed": passed}


def check_equivalence():
    """Gate: fast path ≡ reference within 1e-8 (nll) / 1e-6 (grad ∞-norm)."""
    rng = np.random.default_rng(7)
    worst_nll, worst_grad = 0.0, 0.0
    for delta, beta, q, n in EQUIV_CASES:
        X = rng.random((n, beta))
        tidx = rng.integers(0, delta, n)
        y = np.sin(3.0 * X[:, 0]) + 0.3 * tidx + 0.05 * rng.normal(size=n)
        sqd = pairwise_sq_diffs(X)
        m = LCM(delta, beta, n_latent=q, seed=3)
        for restart in range(3):
            theta = m._initial_theta(y, restart=restart)
            f_fast, g_fast = m._nll_and_grad(theta, sqd, y, tidx)
            f_ref, g_ref = m._nll_and_grad_reference(theta, sqd, y, tidx)
            worst_nll = max(worst_nll, abs(f_fast - f_ref))
            worst_grad = max(worst_grad, float(np.max(np.abs(g_fast - g_ref))))
    passed = worst_nll < 1e-8 and worst_grad < 1e-6
    print(f"  equivalence: |Δnll| <= {worst_nll:.3e} (gate 1e-8), "
          f"|Δgrad|∞ <= {worst_grad:.3e} (gate 1e-6)  "
          f"{'PASS' if passed else 'FAIL'}")
    return {
        "cases": len(EQUIV_CASES) * 3,
        "max_nll_diff": worst_nll,
        "max_grad_diff": worst_grad,
        "passed": passed,
    }


def check_layout_cache():
    """Gate: a layout cache built for another ``tidx`` changes no bit.

    For every equivalence and end-to-end shape, one model first evaluates a
    shorter layout and then a permuted task layout of the same N, then the
    target layout; its nll and gradient must equal a fresh model's bitwise.
    """
    rng = np.random.default_rng(11)
    cases = list(EQUIV_CASES) + [(d, b, min(d, 3), n) for d, b, n in E2E_SHAPES]
    mismatches = 0
    for delta, beta, q, n in cases:
        X, y, tidx = _synthetic(rng, n, delta, beta)
        sqd = pairwise_sq_diffs(X)
        stale = LCM(delta, beta, n_latent=q, seed=0)
        for restart in range(3):
            theta = stale._initial_theta(y, restart=restart)
            k = n // 2
            stale._nll_and_grad(theta, pairwise_sq_diffs(X[:k]), y[:k], tidx[:k].copy())
            stale._nll_and_grad(theta, sqd, y, rng.permutation(tidx))
            f_stale, g_stale = stale._nll_and_grad(theta, sqd, y, tidx)
            f_new, g_new = LCM(delta, beta, n_latent=q, seed=0)._nll_and_grad(
                theta, sqd, y, tidx
            )
            if not (f_stale == f_new and g_stale.tobytes() == g_new.tobytes()):
                mismatches += 1
    passed = mismatches == 0
    print(f"  layout cache: {mismatches} bitwise mismatch(es) over {len(cases) * 3} "
          f"evaluations  {'PASS' if passed else 'FAIL'}")
    return {"cases": len(cases) * 3, "mismatches": mismatches, "passed": passed}


def _campaign(options):
    problem = TuningProblem(
        task_space=Space([Real("t", 0.0, 1.0)]),
        tuning_space=Space([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)]),
        objective=lambda task, cfg: 1.0
        + (cfg["x"] - 0.2 - 0.3 * task["t"]) ** 2
        + (cfg["y"] - 0.7 * task["t"]) ** 2,
        name="bench-lcm-hotpath",
    )
    # n_samples=40 with initial_fraction=0.5 → 20 LHS + 20 BO iterations
    return GPTune(problem, options).tune([{"t": 0.2}, {"t": 0.8}], 40)


def check_warm_refit():
    """Gate: warm refits spend strictly fewer multi-starts, equal quality.

    Deterministic: the gate counts L-BFGS starts from ``model-fit`` events
    rather than comparing wall-clock times.  Both campaigns run with
    ``telemetry=True``, so the gate doubles as a regression check that span
    recording neither changes results nor breaks the driver; the recorded
    phase/model span totals are returned for the JSON payload.
    """
    base = dict(
        seed=0, n_start=2, lbfgs_maxiter=60, pso_iters=8, ei_candidates=16,
        telemetry=True,
    )
    cold = _campaign(Options(**base))
    warm = _campaign(Options(**base, refit_warm_start=True, refit_interval=2))
    cold_starts = cold.events.total("model-fit", "n_starts")
    warm_starts = warm.events.total("model-fit", "n_starts")
    extends = warm.events.count("model-extend")
    cold_best = cold.best_values()
    warm_best = warm.best_values()
    fewer = warm_starts < cold_starts
    quality = bool(np.all(warm_best <= cold_best * 1.05))
    passed = fewer and quality and extends > 0
    print(f"  warm refit: starts {cold_starts} -> {warm_starts}, "
          f"{extends} posterior extension(s), "
          f"best {[f'{v:.6f}' for v in cold_best]} -> "
          f"{[f'{v:.6f}' for v in warm_best]}  "
          f"{'PASS' if passed else 'FAIL'}")
    spans = {
        label: phase_breakdown(res.events.events)
        for label, res in (("cold", cold), ("warm", warm))
    }
    for label, bd in spans.items():
        phases = {k: v for k, v in sorted(bd.items()) if k.startswith(("phase.", "model."))}
        line = "  ".join(f"{k}={v['total_s'] * 1e3:.1f}ms" for k, v in phases.items())
        print(f"  spans[{label}]: {line}")
    return {
        "cold_starts": int(cold_starts),
        "warm_starts": int(warm_starts),
        "extend_events": int(extends),
        "cold_best": [float(v) for v in cold_best],
        "warm_best": [float(v) for v in warm_best],
        "passed": passed,
    }, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="run the deterministic CI gates (plus quick timings)")
    ap.add_argument("--out", default=DEFAULT_OUT, help="JSON output path")
    ap.add_argument("--fit-paths-child", type=int, metavar="REPEATS",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.fit_paths_child:
        print(json.dumps(fit_paths(args.fit_paths_child)))
        return 0

    sizes = [100, 300, 400, 600]
    repeats = 3 if args.check else 7

    print("== LCM hot-path micro-benchmarks ==")
    payload = {
        "config": {"delta": DELTA, "beta": BETA, "n_latent": Q, "sizes": sizes},
        "nll_grad": bench_nll_grad(sizes, repeats),
        "nll_grad_e2e": bench_nll_grad_e2e(repeats),
        "fit": bench_fit([100, 300] if args.check else [100, 300, 600]),
        "fit_paths_e2e": bench_fit_paths(5 if args.check else 11),
        "predict": bench_predict(n=300, batch=40, calls=50 if args.check else 200),
    }
    at400 = payload["nll_grad"]["400"]["speedup"]
    print(f"  nll+grad speedup at N=400, δ={DELTA}, β={BETA}: {at400:.2f}x "
          f"(informational target >= 3x)")

    ok = True
    if args.check:
        print("== deterministic gates ==")
        eq = check_equivalence()
        lc = check_layout_cache()
        de = check_driver_equivalence(payload["fit_paths_e2e"])
        le = check_lockstep_equivalence(payload["fit_paths_e2e"])
        wr, spans = check_warm_refit()
        payload["checks"] = {
            "equivalence": eq,
            "layout_cache": lc,
            "driver_equivalence": de,
            "lockstep_equivalence": le,
            "warm_refit": wr,
            "passed": (eq["passed"] and lc["passed"] and de["passed"] and le["passed"]
                       and wr["passed"]),
        }
        payload["spans"] = spans
        ok = payload["checks"]["passed"]

    os.makedirs(os.path.dirname(os.path.abspath(args.out)) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
