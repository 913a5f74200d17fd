"""Async streaming engine vs lockstep MLA under heavy-tailed evaluation times.

The lockstep loop (Algorithm 1) barriers every task on the slowest
evaluation of each batch; real application runs have heavy-tailed wall
times (a node allocation stall, a pathological configuration), so one
straggler holds the whole campaign.  The async engine
(``Options(async_eval=True)``) lets every other evaluation stream past it.

This harness makes that claim *deterministic*: evaluation durations are a
pure hash of ``(task, x)`` with a heavy tail (~7% of configurations take
50× the base time), executed on the virtual-clock
:class:`~repro.runtime.async_engine.SimScheduler`.  The async campaign's
makespan is the simulated clock at completion; the lockstep campaign's
makespan is the same durations pushed through the barrier schedule it
actually executed (per-batch LPT list scheduling over the same worker
count), reconstructed from its evaluation order.  No real sleeping, no
flakiness.

``--check`` runs the CI gates and writes
``benchmarks/results/BENCH_async.json``:

* **speedup** — async makespan ≥ 2× better than lockstep on the 8-task
  campaign;
* **quality** — async incumbents within 5% of the lockstep reference on
  every task (streaming must not cost tuning quality);
* **no-duplicates** — the async campaign never evaluates a configuration
  twice for the same task (pending-point penalty + dedup);
* **determinism** — a same-seed async rerun reproduces every evaluation
  exactly;
* **deterministic resume** — a campaign killed mid-flight (in-flight
  evaluations checkpointed with their remaining virtual durations) and
  resumed on a fresh scheduler reproduces the uninterrupted evaluation
  set exactly;
* **mo-speedup** — the *multi-objective* async campaign (per-task NSGA-II
  streaming) beats the lockstep NSGA-II barrier schedule by ≥ 1.5× on the
  same heavy-tailed durations;
* **mo-quality** — per task, the async campaign's 2-D Pareto hypervolume
  is within 5% of the lockstep reference (streaming must not cost front
  coverage).

Run::

    PYTHONPATH=src python benchmarks/bench_async_engine.py           # timings
    PYTHONPATH=src python benchmarks/bench_async_engine.py --check   # CI gates
"""

import argparse
import json
import math
import os

import numpy as np

from harness import fmt, print_table
from repro.core import GPTune, Integer, Options, Real, Space, TuningProblem
from repro.runtime.async_engine import SimScheduler
from repro.runtime.simclock import SimClock

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "BENCH_async.json"
)

#: the acceptance point: 8 tasks, shared worker pool, per-task budget
N_TASKS, N_SAMPLES, N_WORKERS = 8, 10, 8
TASKS = [{"t": i} for i in range(N_TASKS)]

#: heavy-tail parameters: base ~U[1,3] virtual seconds, 50x for ~7% of configs
TAIL_FRACTION, TAIL_FACTOR = 0.07, 50.0


def objective(t, c):
    """Smooth single-objective surface with a task-dependent optimum."""
    x = float(c["x"])
    mu = 0.2 + 0.06 * float(t["t"])
    return 1.0 + (x - mu) ** 2


def duration(task, cfg):
    """Deterministic heavy-tailed virtual duration, a pure hash of (task, x).

    The same configuration costs the same whether the async or the lockstep
    campaign evaluates it, so the makespan comparison is apples-to-apples.
    """
    x = float(cfg["x"])
    u = math.sin(x * 12.9898 + float(task) * 78.233) * 43758.5453
    u -= math.floor(u)  # uniform-ish hash in [0, 1)
    d = 1.0 + 2.0 * u
    if u > 1.0 - TAIL_FRACTION:
        d *= TAIL_FACTOR
    return d


def _problem():
    return TuningProblem(
        Space([Integer("t", 0, N_TASKS)]),
        Space([Real("x", 0.0, 1.0)]),
        objective,
    )


def _options(**kw):
    base = dict(
        seed=5,
        n_start=2,
        pso_iters=8,
        ei_candidates=16,
        lbfgs_maxiter=40,
        n_workers=N_WORKERS,
    )
    base.update(kw)
    return Options(**base)


def run_async():
    """Async streaming campaign on the virtual clock; returns (result, makespan)."""
    clock = SimClock()
    sched = SimScheduler(duration, clock=clock)
    res = GPTune(
        _problem(),
        _options(async_eval=True, max_inflight=N_WORKERS),
        scheduler=sched,
    ).tune(TASKS, N_SAMPLES)
    return res, clock.now


def _lpt(durations, n_workers):
    """Longest-processing-time list-scheduling makespan over n_workers."""
    loads = [0.0] * n_workers
    for d in sorted(durations, reverse=True):
        k = loads.index(min(loads))
        loads[k] += d
    return max(loads) if durations else 0.0


def run_lockstep():
    """Lockstep campaign + its barrier-schedule makespan on the same durations.

    The lockstep loop evaluates the LHS design in one batch, then one
    proposal per task per iteration.  Each batch runs on ``N_WORKERS``
    workers (LPT); the barrier means batch walls add up — exactly the
    schedule a ``ProcessScheduler`` drained to empty each round would
    execute, with the simulated durations substituted for real wall time.
    """
    res = GPTune(_problem(), _options(backend="serial")).tune(TASKS, N_SAMPLES)
    eps_init = max(2, int(round(N_SAMPLES * _options().initial_fraction)))
    design = [
        duration(i, res.data.X[i][k])
        for i in range(N_TASKS)
        for k in range(min(eps_init, len(res.data.X[i])))
    ]
    makespan = _lpt(design, N_WORKERS)
    for j in range(eps_init, N_SAMPLES):
        batch = [
            duration(i, res.data.X[i][j])
            for i in range(N_TASKS)
            if j < len(res.data.X[i])
        ]
        makespan += _lpt(batch, N_WORKERS)
    return res, makespan


def _no_duplicates(res):
    for i in range(N_TASKS):
        keys = [tuple(sorted(d.items())) for d in res.data.X[i]]
        if len(keys) != len(set(keys)):
            return False
    return True


class _Kill(Exception):
    pass


def check_deterministic_resume(async_res):
    """Kill the campaign mid-flight, resume from checkpoint, compare."""
    import tempfile

    def kill_at_3(rounds, data, stats):
        if rounds == 3:
            raise _Kill()

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "async.ck.json")
        opts = _options(
            async_eval=True, max_inflight=N_WORKERS, checkpoint_path=path
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
    return bool(resumed.data.to_records() == async_res.data.to_records())


def mo_objective(t, c):
    """Two conflicting objectives: a task-dependent optimum vs a fixed one.

    The Pareto front spans ``x ∈ [0.2 + 0.06·t, 0.9]``, so front *coverage*
    (hypervolume) distinguishes a tuner that explores the trade-off from one
    that camps on a single compromise point.
    """
    x = float(c["x"])
    mu = 0.2 + 0.06 * float(t["t"])
    return [1.0 + (x - mu) ** 2, 1.0 + (x - 0.9) ** 2]


def _mo_problem():
    return TuningProblem(
        Space([Integer("t", 0, N_TASKS)]),
        Space([Real("x", 0.0, 1.0)]),
        mo_objective,
        n_objectives=2,
    )


def run_async_mo():
    """Multi-objective async campaign on the virtual clock."""
    clock = SimClock()
    sched = SimScheduler(duration, clock=clock)
    res = GPTune(
        _mo_problem(),
        _options(async_eval=True, max_inflight=N_WORKERS),
        scheduler=sched,
    ).tune(TASKS, N_SAMPLES)
    return res, clock.now


def run_lockstep_mo():
    """Lockstep NSGA-II campaign + its barrier-schedule makespan.

    Algorithm 2 evaluates the LHS design in one batch, then up to
    ``pareto_batch`` proposals per task per iteration; each iteration's
    proposals form one barrier batch (LPT over the shared workers), and the
    batch walls add up.
    """
    opts = _options(backend="serial")
    res = GPTune(_mo_problem(), opts).tune(TASKS, N_SAMPLES)
    eps_init = max(2, int(round(N_SAMPLES * opts.initial_fraction)))
    k = opts.pareto_batch
    design = [
        duration(i, res.data.X[i][r])
        for i in range(N_TASKS)
        for r in range(min(eps_init, len(res.data.X[i])))
    ]
    makespan = _lpt(design, N_WORKERS)
    j = eps_init
    while True:
        batch = [
            duration(i, res.data.X[i][r])
            for i in range(N_TASKS)
            for r in range(j, min(j + k, len(res.data.X[i])))
        ]
        if not batch:
            break
        makespan += _lpt(batch, N_WORKERS)
        j += k
    return res, makespan


def _hv2d(F, ref):
    """2-D hypervolume (minimization) of a point set against ``ref``.

    Standard sweep: sort by the first objective ascending and sum the
    rectangles each non-dominated point adds over the best second objective
    seen so far.  Points outside the reference box contribute nothing.
    """
    pts = sorted(
        (float(f[0]), float(f[1]))
        for f in F
        if f[0] <= ref[0] and f[1] <= ref[1]
    )
    hv, best1 = 0.0, float(ref[1])
    for f0, f1 in pts:
        if f1 < best1:
            hv += (ref[0] - f0) * (best1 - f1)
            best1 = f1
    return hv


def check_mo_gates():
    """Multi-objective streaming gates: makespan and Pareto hypervolume."""
    async_res, async_makespan = run_async_mo()
    lock_res, lock_makespan = run_lockstep_mo()

    speedup = lock_makespan / async_makespan
    g_speed = bool(speedup >= 1.5)
    print(f"  mo-speedup: {fmt(speedup)}x (lockstep {fmt(lock_makespan)}s vs "
          f"async {fmt(async_makespan)}s virtual)  "
          f"{'PASS' if g_speed else 'FAIL'}")

    hv_ratios = []
    for i in range(N_TASKS):
        Fa = np.asarray(async_res.data.Y[i], dtype=float)
        Fl = np.asarray(lock_res.data.Y[i], dtype=float)
        ref = np.max(np.vstack([Fa, Fl]), axis=0) + 0.1
        hv_a = _hv2d(async_res.pareto_front(i)[1], ref)
        hv_l = _hv2d(lock_res.pareto_front(i)[1], ref)
        hv_ratios.append(hv_a / hv_l if hv_l > 0 else 1.0)
    g_hv = bool(min(hv_ratios) >= 0.95)
    print(f"  mo-quality: per-task Pareto hypervolume within 5% of lockstep "
          f"(worst ratio {fmt(min(hv_ratios))})  {'PASS' if g_hv else 'FAIL'}")

    return {
        "makespan_virtual_s": float(async_makespan),
        "lockstep_makespan_virtual_s": float(lock_makespan),
        "speedup": float(speedup),
        "hypervolume_ratios": [float(r) for r in hv_ratios],
        "mo_speedup_at_least_1_5x": g_speed,
        "mo_hypervolume_within_5pct": g_hv,
    }


def check_gates(async_res, async_makespan, lock_res, lock_makespan):
    """The four deterministic CI gates; prints PASS/FAIL per gate."""
    speedup = lock_makespan / async_makespan
    g_speed = bool(speedup >= 2.0)
    print(f"  speedup: {fmt(speedup)}x (lockstep {fmt(lock_makespan)}s vs "
          f"async {fmt(async_makespan)}s virtual)  "
          f"{'PASS' if g_speed else 'FAIL'}")

    g_quality = bool(
        np.all(async_res.best_values() <= lock_res.best_values() * 1.05)
    )
    print(f"  quality: async incumbents within 5% of lockstep on all "
          f"{N_TASKS} tasks  {'PASS' if g_quality else 'FAIL'}")

    g_nodup = _no_duplicates(async_res)
    print(f"  no-duplicates: no config evaluated twice  "
          f"{'PASS' if g_nodup else 'FAIL'}")

    rerun, rerun_makespan = run_async()
    g_det = bool(
        rerun.data.to_records() == async_res.data.to_records()
        and rerun_makespan == async_makespan
    )
    print(f"  determinism: same-seed async rerun identical "
          f"(makespan {fmt(rerun_makespan)}s)  {'PASS' if g_det else 'FAIL'}")

    g_resume = check_deterministic_resume(async_res)
    print(f"  resume: killed-mid-flight campaign resumes to the identical "
          f"evaluation set  {'PASS' if g_resume else 'FAIL'}")

    mo = check_mo_gates()
    g_mo = mo["mo_speedup_at_least_1_5x"] and mo["mo_hypervolume_within_5pct"]

    return {
        "speedup_at_least_2x": g_speed,
        "quality_within_5pct": g_quality,
        "no_duplicate_evals": g_nodup,
        "same_seed_identical": g_det,
        "deterministic_resume": g_resume,
        "multi_objective": mo,
        "passed": g_speed and g_quality and g_nodup and g_det and g_resume
        and g_mo,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Async streaming vs lockstep MLA under heavy-tailed durations"
    )
    ap.add_argument("--check", action="store_true",
                    help="run the deterministic CI gates")
    ap.add_argument("--out", default=DEFAULT_OUT, help="JSON output path")
    args = ap.parse_args(argv)

    print(f"== async vs lockstep: {N_TASKS} tasks x {N_SAMPLES} samples, "
          f"{N_WORKERS} workers, heavy tail {TAIL_FACTOR}x @ "
          f"{TAIL_FRACTION:.0%} ==")
    async_res, async_makespan = run_async()
    lock_res, lock_makespan = run_lockstep()

    stop = async_res.events.of_kind("async-stop")[0]
    drains = async_res.events.of_kind("async-drain")
    print_table(
        "simulated makespan",
        ["mode", "makespan (virtual s)", "evaluations", "best (mean)"],
        [
            ["lockstep", fmt(lock_makespan),
             sum(lock_res.data.n_samples(i) for i in range(N_TASKS)),
             fmt(float(np.mean(lock_res.best_values())))],
            ["async", fmt(async_makespan),
             sum(async_res.data.n_samples(i) for i in range(N_TASKS)),
             fmt(float(np.mean(async_res.best_values())))],
        ],
    )
    print(f"async: {len(drains)} drain round(s), "
          f"peak inflight {stop.fields['peak_inflight']}, "
          f"speedup {fmt(lock_makespan / async_makespan)}x")

    payload = {
        "config": {
            "n_tasks": N_TASKS,
            "n_samples": N_SAMPLES,
            "n_workers": N_WORKERS,
            "tail_fraction": TAIL_FRACTION,
            "tail_factor": TAIL_FACTOR,
        },
        "lockstep": {
            "makespan_virtual_s": float(lock_makespan),
            "best_values": [float(v) for v in lock_res.best_values()],
        },
        "async": {
            "makespan_virtual_s": float(async_makespan),
            "best_values": [float(v) for v in async_res.best_values()],
            "drain_rounds": len(drains),
            "peak_inflight": int(stop.fields["peak_inflight"]),
        },
        "speedup": float(lock_makespan / async_makespan),
    }

    ok = True
    if args.check:
        print("== deterministic gates ==")
        payload["checks"] = check_gates(
            async_res, async_makespan, lock_res, lock_makespan
        )
        ok = payload["checks"]["passed"]

    os.makedirs(os.path.dirname(os.path.abspath(args.out)) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
