"""Ablation + regression gates — search-phase and modeling-phase choices.

pytest-benchmark ablations:

1. **EI by PSO vs EI by random candidates** (Sec. 3.1 argues for global
   evolutionary optimization of the cheap acquisition; HpBandSter's
   TPE-style candidate sampling is "faster, but less accurate", Sec. 5).
2. **Multi-start count n_start** for the L-BFGS hyperparameter fit
   (Sec. 4.3 distributes restarts over MPI ranks because they matter).
3. **Performance-model hyperparameter update on/off** — Sec. 3.3 warns "a
   bad hyperparameter estimate will result in worse tuning performance
   compared to no performance model"; we verify a *mis-calibrated frozen*
   model predicts worse than an updated one.

Run as a script, this file is additionally the gated harness for the
lockstep batched search phase: it times the search on an 8-task campaign at
the default PSO settings and writes ``benchmarks/results/BENCH_search.json``
with wall-clock search times and ``phase.search`` span totals.  ``--check``
runs the deterministic CI gates (wall-clock times stay informational so the
job cannot be flaky):

* **equivalence** — ``predict_tasks`` must match an independent posterior
  within 1e-10 on random fits, on shared and per-task candidate blocks:
  the dense Eqs. 5–6 of ``tests/posterior_reference.py`` for the exact
  LCM, the task's own GP (its primitive ``predict``) for the per-task GP
  backend;
* **quality** — every incumbent of the fixed-seed campaign must be within
  5% of the objective's known minimum of 1.0;
* **determinism** — rerunning the campaign with the same seed must
  reproduce every evaluation exactly, and exactly one ``search-mode``
  event (``batched``) must be recorded;
* **NSGA-II** — a 3-task lockstep two-objective campaign shaped like the
  crowd-mo workload (6 tuning parameters, default NSGA-II settings) run
  through the vectorized ``NSGA2.ask`` and through the per-pair
  ``NSGA2._ask_reference`` must breed bitwise-equal children in every
  generation and record identical evaluations.

An informational ``nsga_generation`` row times one NSGA-II generation
(``ask`` + ``tell``) at that shape through both paths.

Run::

    PYTHONPATH=src python benchmarks/bench_ablation_search.py            # timings
    PYTHONPATH=src python benchmarks/bench_ablation_search.py --check    # CI gates
"""

import argparse
import json
import os
import sys
import time

# harness first: it pins OpenBLAS to one thread before numpy loads
from harness import fmt, print_table, save_results
import numpy as np

from repro.apps.analytical import analytical_function
from repro.core import (
    LCM,
    EIAcquisition,
    GPTune,
    LinearPerformanceModel,
    NSGA2,
    Options,
    ParticleSwarm,
    PerTaskGP,
    Real,
    Space,
    TuningProblem,
)
from repro.reporting import phase_breakdown

# the dense reference posterior is test code: import it from the repo root
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.posterior_reference import lcm_posterior  # noqa: E402

DELTA, TRAIN = 4, 8

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "BENCH_search.json"
)

#: the acceptance point: 8 tasks × default PSO settings (40 particles, 30 iters)
N_TASKS, N_SAMPLES = 8, 24

#: the search objective's minimum, 1.0 for every task (the quality reference)
KNOWN_MIN = 1.0

#: the crowd-mo search shape: 3 tasks, 6 tuning parameters, 2 objectives
MO_TASKS, MO_DIM, MO_SAMPLES = 3, 6, 12

_FAST_ASK = NSGA2.ask


def _fit(rng, n_start=2, seed=0):
    X, y, tid = [], [], []
    for i in range(DELTA):
        xs = rng.random(TRAIN)
        X.append(xs[:, None])
        y.append(analytical_function(0.5 * i, xs))
        tid.extend([i] * TRAIN)
    X, y, tid = np.vstack(X), np.concatenate(y), np.array(tid)
    return LCM(DELTA, 1, n_latent=2, seed=seed, n_start=n_start).fit(X, y, tid), X, y, tid


def test_ablation_pso_vs_random_candidates(benchmark):
    rng = np.random.default_rng(23)
    lcm, X, y, tid = _fit(rng)
    rows, record = [], {}
    for i in range(DELTA):
        acq = EIAcquisition(lambda Xq, i=i: lcm.predict(i, Xq), y_best=float(y[tid == i].min()))
        budget = 24 * 15  # equal acquisition-evaluation budgets
        _, ei_pso = ParticleSwarm(1, n_particles=24, iterations=15, seed=i).maximize(acq)
        cand = rng.random((budget, 1))
        ei_rand = float(np.max(acq(cand)))
        rows.append([i, fmt(ei_pso, 4), fmt(ei_rand, 4)])
        record[str(i)] = {"pso": ei_pso, "random": ei_rand}
    print_table(
        "Ablation: max EI found, PSO vs equal-budget random candidates",
        ["task", "EI (PSO)", "EI (random)"],
        rows,
    )
    save_results("ablation_pso_vs_random", record)

    pso_wins = sum(1 for r in record.values() if r["pso"] >= r["random"] - 1e-12)
    assert pso_wins >= DELTA - 1  # PSO at least ties on nearly every task
    benchmark(lambda: None)


def test_ablation_multistart(benchmark):
    rows, lls = [], {}
    for n_start in (1, 2, 4):
        rng = np.random.default_rng(29)
        lcm, *_ = _fit(rng, n_start=n_start, seed=7)
        rows.append([n_start, fmt(lcm.log_likelihood_, 6)])
        lls[n_start] = lcm.log_likelihood_
    print_table("Ablation: L-BFGS multi-start count", ["n_start", "log-likelihood"], rows)
    save_results("ablation_multistart", {str(k): v for k, v in lls.items()})

    # more restarts can only improve the best-of restarts likelihood
    assert lls[4] >= lls[1] - 1e-6
    assert lls[2] >= lls[1] - 1e-6
    benchmark(lambda: None)


def test_ablation_perfmodel_update(benchmark):
    """Frozen-bad vs refitted model coefficients (Sec. 3.3's warning)."""
    rng = np.random.default_rng(31)
    true_c = np.array([3.0, 0.5])
    feats = [lambda t, c: c["a"], lambda t, c: c["b"]]
    cfgs = [{"a": float(a), "b": float(b)} for a, b in rng.random((30, 2))]
    y = np.array([true_c[0] * c["a"] + true_c[1] * c["b"] for c in cfgs])

    frozen = LinearPerformanceModel(feats, initial_coefficients=[0.01, 50.0])  # badly wrong
    updated = LinearPerformanceModel(feats, initial_coefficients=[0.01, 50.0])
    updated.update([{}] * len(cfgs), cfgs, y)

    err_frozen = np.sqrt(np.mean([(frozen.predict({}, c) - yy) ** 2 for c, yy in zip(cfgs, y)]))
    err_updated = np.sqrt(np.mean([(updated.predict({}, c) - yy) ** 2 for c, yy in zip(cfgs, y)]))
    print_table(
        "Ablation: performance-model hyperparameter update (Sec. 3.3)",
        ["variant", "RMSE"],
        [["frozen bad coefficients", fmt(err_frozen, 4)], ["on-the-fly NNLS update", fmt(err_updated, 4)]],
    )
    save_results("ablation_perfmodel_update", {"frozen": float(err_frozen), "updated": float(err_updated)})

    assert err_updated < 0.05 * err_frozen
    benchmark(lambda: None)


# ---------------------------------------------------------------------------
# Gated harness: lockstep batched search phase (script entry point)
# ---------------------------------------------------------------------------


def _search_problem():
    return TuningProblem(
        task_space=Space([Real("t", 0.0, 1.0)]),
        tuning_space=Space([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)]),
        objective=lambda task, cfg: 1.0
        + (cfg["x"] - 0.2 - 0.3 * task["t"]) ** 2
        + (cfg["y"] - 0.7 * task["t"]) ** 2,
        name="bench-search",
    )


def _search_tasks(n_tasks=N_TASKS):
    return [{"t": float(t)} for t in np.linspace(0.05, 0.95, n_tasks)]


def _search_campaign():
    """8-task campaign at *default* PSO settings (40 particles, 30 iters)."""
    opts = Options(seed=11, n_start=1, lbfgs_maxiter=40, telemetry=True)
    return GPTune(_search_problem(), opts).tune(_search_tasks(), N_SAMPLES)


def bench_search(repeats):
    """Time the lockstep search; keep the result + fastest timings."""
    best, res = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = _search_campaign()
        wall = time.perf_counter() - t0
        span = phase_breakdown(res.events.events).get(
            "phase.search", {"count": 0, "total_s": 0.0}
        )
        timing = {
            "search_s": float(res.stats["search_time"]),
            "campaign_s": wall,
            "span_phase_search_total_s": float(span["total_s"]),
            "span_phase_search_count": int(span["count"]),
            "best_values": [float(v) for v in res.best_values()],
        }
        if best is None or timing["search_s"] < best["search_s"]:
            best = timing
    print(f"  search {best['search_s']*1e3:8.1f} ms   "
          f"phase.search span {best['span_phase_search_total_s']*1e3:8.1f} ms "
          f"({best['span_phase_search_count']} spans)   "
          f"campaign {best['campaign_s']:6.2f} s")
    return best, res


def check_predict_tasks_equivalence():
    """Gate: ``predict_tasks`` ≡ an independent posterior within 1e-10 (the
    dense Eqs. 5–6 for the LCM, the per-task GPs' ``predict`` for
    :class:`PerTaskGP`)."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for delta, beta, q, n in [(2, 2, 1, 24), (4, 3, 2, 48), (8, 2, 2, 64)]:
        X = rng.random((n, beta))
        tidx = np.arange(n) % delta
        y = np.sin(3.0 * X[:, 0]) + 0.3 * tidx + 0.05 * rng.normal(size=n)
        models = (
            LCM(delta, beta, n_latent=q, seed=3, n_start=1, maxiter=30).fit(X, y, tidx),
            PerTaskGP(delta, beta, n_start=1, maxiter=30, seed=3).fit(X, y, tidx),
        )
        tasks = list(range(delta))
        for m in models:
            for Xstar in (rng.random((10, beta)), rng.random((delta, 6, beta))):
                mu, var = m.predict_tasks(tasks, Xstar)
                for s, t in enumerate(tasks):
                    block = Xstar if Xstar.ndim == 2 else Xstar[s]
                    mu1, var1 = (
                        lcm_posterior(m, t, block) if isinstance(m, LCM)
                        else m.predict(t, block)
                    )
                    worst = max(worst, float(np.max(np.abs(mu[s] - mu1))),
                                float(np.max(np.abs(var[s] - var1))))
    passed = worst < 1e-10
    print(f"  equivalence: |Δposterior| <= {worst:.3e} (gate 1e-10)  "
          f"{'PASS' if passed else 'FAIL'}")
    return {"max_diff": worst, "passed": passed}


def check_campaign_gates(res):
    """Gates on the timed run: quality, search-mode events, determinism."""
    quality = bool(np.all(res.best_values() <= 1.05 * KNOWN_MIN))
    print(f"  quality: incumbents within 5% of the known minimum on all "
          f"{N_TASKS} tasks  {'PASS' if quality else 'FAIL'}")

    seen = [e.fields.get("mode") for e in res.events.events if e.kind == "search-mode"]
    spans = [e for e in res.events.events
             if e.kind == "span" and e.fields.get("name") == "phase.search"]
    modes_ok = seen == ["batched"] and bool(spans) and all(
        s.fields.get("mode") == "batched" for s in spans
    )
    print(f"  telemetry: search-mode events {seen}, {len(spans)} phase.search "
          f"span(s)  {'PASS' if modes_ok else 'FAIL'}")

    determinism = _search_campaign().data.to_records() == res.data.to_records()
    print(f"  determinism: same-seed rerun identical  "
          f"{'PASS' if determinism else 'FAIL'}")

    return {
        "quality_within_5pct": quality,
        "search_mode_events": modes_ok,
        "same_seed_identical": determinism,
        "passed": quality and modes_ok and determinism,
    }


def _mo_problem():
    names = [f"x{k}" for k in range(MO_DIM)]

    def objectives(task, cfg):
        x = np.array([cfg[n] for n in names])
        return [1.0 + float(np.sum((x - 0.3 * task["t"]) ** 2)),
                1.0 + float(np.sum((x - 0.8) ** 2)) + 0.1 * task["t"]]

    return TuningProblem(
        task_space=Space([Real("t", 0.0, 1.0)]),
        tuning_space=Space([Real(n, 0.0, 1.0) for n in names]),
        objective=objectives,
        n_objectives=2,
        name="bench-search-mo",
    )


def _mo_campaign(ask):
    """Lockstep two-objective campaign with ``NSGA2.ask`` bound to ``ask``;
    returns the result and every generation's children, in call order."""
    children = []

    def logged(self):
        kids = ask(self)
        children.append(kids.copy())
        return kids

    NSGA2.ask = logged
    try:
        opts = Options(seed=5, n_start=1, lbfgs_maxiter=40)
        res = GPTune(_mo_problem(), opts).tune(_search_tasks(MO_TASKS), MO_SAMPLES)
    finally:
        NSGA2.ask = _FAST_ASK
    return res, children


def check_nsga_reference():
    """Gate: vectorized ``ask`` ≡ per-pair ``_ask_reference``, bit for bit."""
    fast, fast_kids = _mo_campaign(_FAST_ASK)
    ref, ref_kids = _mo_campaign(NSGA2._ask_reference)
    kids_equal = len(fast_kids) == len(ref_kids) > 0 and all(
        a.tobytes() == b.tobytes() for a, b in zip(fast_kids, ref_kids)
    )
    records_equal = fast.data.to_records() == ref.data.to_records()
    passed = kids_equal and records_equal
    print(f"  nsga2: children of {len(fast_kids)} asks bitwise equal "
          f"{kids_equal}, records equal {records_equal}  "
          f"{'PASS' if passed else 'FAIL'}")
    return {"asks": len(fast_kids), "children_equal": kids_equal,
            "records_equal": records_equal, "passed": passed}


def bench_nsga_generation(repeats=5):
    """Informational: one ``ask`` + ``tell`` at the crowd-mo search shape."""
    def objectives(X):
        return np.stack([np.sum((X - 0.2) ** 2, axis=1),
                         np.sum((X - 0.8) ** 2, axis=1)], axis=1)

    def per_generation(reference):
        nsga = NSGA2(dim=MO_DIM, seed=0)
        ask = nsga._ask_reference if reference else nsga.ask
        nsga.tell(objectives(nsga.initialize()))
        t0 = time.perf_counter()
        for _ in range(nsga.generations):
            nsga.tell(objectives(ask()))
        return (time.perf_counter() - t0) / nsga.generations

    best = {"fast": float("inf"), "reference": float("inf")}
    for _ in range(repeats):  # interleaved, so load drift hits both paths
        for name in best:
            best[name] = min(best[name], per_generation(name == "reference"))
    row = {"dim": MO_DIM, "pop_size": NSGA2(dim=MO_DIM).pop_size,
           "fast_ms": best["fast"] * 1e3, "reference_ms": best["reference"] * 1e3,
           "speedup": best["reference"] / best["fast"]}
    print(f"  nsga2 generation (dim {MO_DIM}, pop {row['pop_size']}): "
          f"{row['fast_ms']:.3f} ms vs reference {row['reference_ms']:.3f} ms "
          f"({row['speedup']:.1f}x)")
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Lockstep search-phase benchmark")
    ap.add_argument("--check", action="store_true",
                    help="run the deterministic CI gates (plus quick timings)")
    ap.add_argument("--out", default=DEFAULT_OUT, help="JSON output path")
    args = ap.parse_args(argv)

    print(f"== lockstep search: {N_TASKS} tasks x {N_SAMPLES} samples, "
          f"default PSO settings ==")
    timing, res = bench_search(repeats=2 if args.check else 3)
    payload = {
        "config": {"n_tasks": N_TASKS, "n_samples": N_SAMPLES},
        "search": timing,
        "nsga_generation": bench_nsga_generation(),
    }

    ok = True
    if args.check:
        print("== deterministic gates ==")
        eq = check_predict_tasks_equivalence()
        camp = check_campaign_gates(res)
        nsga = check_nsga_reference()
        payload["checks"] = {
            "equivalence": eq,
            "campaign": camp,
            "nsga2_reference": nsga,
            "passed": eq["passed"] and camp["passed"] and nsga["passed"],
        }
        ok = payload["checks"]["passed"]

    os.makedirs(os.path.dirname(os.path.abspath(args.out)) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
