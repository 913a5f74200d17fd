"""End-to-end campaign benchmark: four workloads and an outside-in layer trace.

Run from the repository root::

    python3 benchmarks/e2e/bench_e2e.py                      # every workload, 3 children each
    python3 benchmarks/e2e/bench_e2e.py --workload mla-async --seed 4 --seconds 25 --trace 0
    python3 benchmarks/e2e/bench_e2e.py --seconds 25 --trace 1 --out traced.json
    python3 benchmarks/e2e/bench_e2e.py --compare base.json -- new.json

A run of one workload starts fresh child processes (``campaigns.py``) one
after another, after one untimed warm-up process that only imports
``repro``; each child runs one or more closed-loop ``GPTune.tune``
campaigns in sequence (see :func:`run_plan`).  Children use
single-threaded BLAS and the serial backend, so the load is one busy
process, plus the history service for ``crowd-mo``.  Times are rescaled to
a reference CPU speed (see ``campaigns.Stopwatch``).

``--seed`` generates every campaign's inputs: task sets, archive contents
and ``Options.seed``.  Each run checks its outputs (every budget reached,
no configuration evaluated again in a later iteration, archive counts,
identical records from one seed in two processes, no silent GP fallback)
and exits 1 if a check fails.

The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}`` per workload, holding the end-to-end
metrics of ``BENCHMARK.json`` under ``--trace 0`` and its per-layer
metrics under ``--trace 1``.  ``--out FILE`` appends the run records (raw
per-campaign values, checks, machine fingerprint) to a JSON file that
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
CHILD = os.path.join(HERE, "campaigns.py")

WORKLOADS = ("mla-lockstep", "mla-async", "archive-sparse", "crowd-mo")

#: end-to-end metric -> unit
E2E_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "iter_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: workload -> (set-up seconds, campaign seconds, campaigns per child):
#: typical wall times, which turn ``--seconds`` into a fixed number of
#: child processes.  Several campaigns share a child where set-up would
#: otherwise take a large part of the run.
NOMINAL = {
    "mla-lockstep": (0.9, 0.85, 6),
    "mla-async": (0.9, 1.9, 3),
    "archive-sparse": (0.95, 1.1, 6),
    "crowd-mo": (2.3, 5.9, 1),
}

#: a child still running this many seconds after its run began is killed
#: and the run fails
RUN_DEADLINE_S = 170.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def fingerprint() -> Dict[str, Any]:
    """The machine and library versions a result was measured with."""
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


# -- running ---------------------------------------------------------------


def run_child(workload: str, seeds: List[int], index: int, traced: bool, smoke: bool,
              deadline: float) -> List[Dict[str, Any]]:
    """Campaigns of ``seeds`` in one fresh child process; returns their reports."""
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f"child-{os.getpid()}.json")
    cmd = [sys.executable, CHILD, "--workload", workload, "--seeds", ",".join(map(str, seeds)),
           "--out", out, "--index", str(index)]
    if traced:
        cmd += ["--trace", trace_path(workload)]
    if smoke:
        cmd.append("--smoke")
    spawned = time.monotonic()
    # its own session, so a stuck child is stopped with the service it started
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: child for seeds {seeds} exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child for seeds {seeds} failed:\n{err}")
    with open(out, encoding="utf-8") as fh:
        reports = json.load(fh)
    os.unlink(out)
    for r in reports:
        r["traced"] = traced
    return reports


def trace_path(workload: str) -> str:
    return os.path.join(RESULTS, f"trace-{workload}.jsonl")


def run_plan(workload: str, seed: int, seconds: float, repeats: int,
             trace: bool) -> List[Tuple[List[int], bool]]:
    """``(campaign seeds, traced)`` for each child process of a run.

    The plan depends on the arguments only, so one run seed always means
    the same inputs: campaign ``c`` of run seed ``S`` draws its inputs from
    seed ``1000 * S + c``.  ``--repeats`` sets the number of children, or
    ``--seconds`` does through the workload's nominal child time.

    Untraced, each child runs the workload's campaigns-per-child count
    (:data:`NOMINAL`), and the second child starts with the first child's
    first seed: that determinism probe compares two fresh processes.  Traced, every child runs one campaign,
    and each seed runs twice, traced then untraced, so the pairs give the
    tracing overhead and show that the wrappers change no result.
    """
    setup_s, campaign_s, per_child = NOMINAL[workload]
    if trace:
        pairs = max(1, int(seconds // (2 * (setup_s + campaign_s))) if seconds else repeats // 2)
        return [([1000 * seed + c], t) for c in range(pairs) for t in (True, False)]
    children = max(repeats, int(seconds // (setup_s + per_child * campaign_s)))
    seeds = [1000 * seed + c for c in range(children * per_child - 1)]
    seeds.insert(per_child, seeds[0])
    return [(seeds[i:i + per_child], False) for i in range(0, len(seeds), per_child)]


def run_workload(workload: str, seed: int, seconds: float, repeats: int, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    """Run one workload's child processes one after another and aggregate."""
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        open(trace_path(workload), "w").close()
    begin = time.monotonic()
    reps: List[Dict[str, Any]] = []
    for seeds, traced in run_plan(workload, seed, seconds, repeats, trace):
        reps.extend(run_child(workload, seeds, len(reps), traced, smoke,
                              begin + RUN_DEADLINE_S))
    return aggregate(workload, seed, trace, reps)


def _median(xs):
    return float(statistics.median(xs))


def aggregate(workload: str, seed: int, trace: bool, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians over campaigns, raw values, and the run-level checks."""
    plain = [r for r in reps if not r["traced"]]
    iters = [x for r in plain for x in r["iter_ms"]]
    raw = {
        "seed": [r["seed"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps if r["setup_s"] is not None],
        "campaign_s": [r["campaign_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "campaign_wall_s": [r["campaign_wall_s"] for r in plain],
        "setup_wall_s": [r["setup_wall_s"] for r in reps if r["setup_wall_s"] is not None],
        "best_regret": [r["best_regret"] for r in reps],
        "makespan_sim_s": [r["makespan_sim_s"] for r in reps],
        "lbfgs_starts": [r["lbfgs_starts"] for r in reps],
        "batch_repeats": [r["batch_repeats"] for r in reps],
    }
    values = {
        "setup_s": _median(raw["setup_s"]),
        "campaign_s": statistics.fmean(raw["campaign_s"]),
        "iter_p50_ms": _median(iters),
        "peak_rss_mb": _median(raw["peak_rss_mb"]),
    }
    checks: Dict[str, bool] = {}
    for r in reps:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and bool(ok)
    groups: Dict[int, List[Dict[str, Any]]] = {}
    for r in reps:
        groups.setdefault(r["seed"], []).append(r)
    checks["same_seed_identical"] = any(len(g) > 1 for g in groups.values()) and all(
        len({(r["records_digest"], r["makespan_sim_s"], r["lbfgs_starts"]) for r in g}) == 1
        for g in groups.values()
    )
    run = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "campaigns": len(reps),
        "iter_samples": len(iters),
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()},
        "raw": raw,
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": sum(r["evaluations"] for r in reps),
        "failed": sum(r["failed_evals"] + r["archive_missing"] for r in reps),
    }
    if trace:
        traced = [r for r in reps if r["traced"]]
        layers = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        layers["trace_overhead_frac"] = _median([
            t["campaign_s"] / u["campaign_s"] - 1.0
            for t, u in zip(traced, plain) if t["seed"] == u["seed"]
        ])
        run["layers"] = layers
        run["root_span_s"] = [r["root_span_s"] for r in traced]
        run["traced_campaign_wall_s"] = [r["campaign_wall_s"] for r in traced]
    return run


# -- reporting -------------------------------------------------------------


def load_declared() -> Dict[str, Any]:
    """``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(run: Dict[str, Any], declared: Dict[str, Any]) -> Dict[str, Any]:
    """The last-line JSON object for one run."""
    if run["trace"]:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        metrics = {k: {"value": run["layers"][k], "unit": units[k]} for k in units}
    else:
        metrics = {m["name"]: run["metrics"][m["name"]] for m in declared["end_to_end"]}
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def print_run(run: Dict[str, Any]) -> None:
    print(f"\n== {run['workload']} (seed {run['seed']}, {run['campaigns']} campaigns, "
          f"{run['iter_samples']} iteration samples) ==")
    for name, m in run["metrics"].items():
        print(f"  {name:14s} {m['value']:12.5g} {m['unit']}")
    raw = run["raw"]
    print(f"  campaign wall s: {[round(x, 3) for x in raw['campaign_wall_s']]}")
    print(f"  best_regret {raw['best_regret'][0]:.4g}   makespan_sim_s "
          f"{raw['makespan_sim_s'][0]}   lbfgs_starts {raw['lbfgs_starts'][0]}")
    if "layers" in run:
        print("  -- per-layer (median over traced campaigns) --")
        for layer, names in LAYERS.items():
            for name in names:
                print(f"  {layer:22s} {name:28s} {run['layers'][name]:12.5g}")
    bad = [k for k, ok in run["checks"].items() if not ok]
    print(f"  checks: {'ok' if not bad else 'FAILED ' + ', '.join(bad)}"
          f"   evaluations {run['attempted']}, failed {run['failed']}")


#: layer -> its per-layer metrics (README.md maps each to the end-to-end
#: metric and workload it should move)
LAYERS = {
    "core.lcm": ["lcm.fit.calls", "lcm.fit.self_frac", "lcm.lbfgs_starts", "lcm.nll_evals",
                 "lcm.extend.calls", "lcm.extend.self_frac", "lcm.predict.calls",
                 "lcm.predict.rows", "lcm.predict.self_frac"],
    "core.model": ["sparse.fit.calls", "sparse.fit.self_frac", "sparse.fit.total_frac",
                   "sparse.extend.self_frac", "sparse.predict.calls",
                   "sparse.predict.self_frac", "gp.fit.calls"],
    "core.search": ["search.calls", "search.self_frac"],
    "core.sampling": ["sampling.calls", "sampling.self_frac"],
    "core.problem": ["eval.calls", "eval.self_frac", "eval.failed"],
    "runtime.async_engine": ["engine.starts", "engine.waits", "engine.self_frac",
                             "engine.inflight_mean", "engine.makespan_ratio"],
    "runtime.resilience": ["checkpoint.calls", "checkpoint.self_frac", "checkpoint.bytes"],
    "service.store": ["store.append.calls", "store.append.self_frac", "store.records.rows",
                      "store.records.self_frac"],
    "service.client": ["client.append.calls", "client.append.self_frac",
                       "client.append.wait_frac"],
    "service.server": ["server.request_frac", "server.commits", "server.records_per_commit",
                       "server.flush_frac"],
    "service.modelcache": ["cache.lookup.calls", "cache.hits", "cache.self_frac"],
    "core.mla": ["unattributed_frac", "trace_overhead_frac"],
}


# -- compare ---------------------------------------------------------------


def _quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, Any]:
    """Compare side ``b`` (the change) against side ``a`` (the parent)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x in a for y in b if sign * (y - x) > 0)
    pairs = len(a) * len(b)
    qa, qb = _quartiles(a), _quartiles(b)
    iqr_a = qa[2] - qa[0]
    worse = -sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    spread = max(iqr_a / abs(qa[1]) if qa[1] else 0.0,
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    if pairs and wins / pairs >= 0.9 and abs(qb[1] - qa[1]) > iqr_a:
        v = "improved"
    elif worse > bound:
        v = "regressed"
    elif spread > bound:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"a": qa, "b": qb, "wins": wins, "pairs": pairs, "worse": worse, "verdict": v}


def load_runs(paths: List[str]) -> List[Dict[str, Any]]:
    runs = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            runs.extend(json.load(fh)["runs"])
    return [r for r in runs if not r["trace"]]


def compare(side_a: List[str], side_b: List[str]) -> int:
    declared = load_declared()
    a_runs, b_runs = load_runs(side_a), load_runs(side_b)
    regressed = 0
    print(f"{'workload':15s} {'metric':12s} {'parent q1/med/q3':>28s} "
          f"{'change q1/med/q3':>28s} {'won':>7s} {'worse':>7s}  verdict")
    for wl in WORKLOADS:
        for m in declared["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs if r["workload"] == wl]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs if r["workload"] == wl]
            if not a or not b:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            regressed += v["verdict"] == "regressed"
            fa = "/".join(f"{x:.4g}" for x in v["a"])
            fb = "/".join(f"{x:.4g}" for x in v["b"])
            print(f"{wl:15s} {m['name']:12s} {fa:>28s} {fb:>28s} "
                  f"{v['wins']:>3d}/{v['pairs']:<3d} {v['worse']:+7.1%}  {v['verdict']}")
    return 1 if regressed else 0


# -- entry point -------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            print("usage: --compare A.json [A2.json ...] -- B.json [B2.json ...]", file=sys.stderr)
            return 2
        cut = rest.index("--")
        return compare(rest[:cut], rest[cut + 1:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="run as many child processes per workload as fit in this many "
                         "seconds at the nominal speed")
    ap.add_argument("--repeats", type=int, default=3,
                    help="child processes per workload (the minimum with --seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny budgets (self-test)")
    ap.add_argument("--out", help="append the run records to this JSON file")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench_e2e: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.repeats < 2:
        ap.error("--repeats must be >= 2 (the determinism probe repeats a campaign)")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    declared = load_declared()
    subprocess.run([sys.executable, "-c", "import repro"], env=child_env(), check=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for wl in workloads:
        run = run_workload(wl, args.seed, args.seconds, args.repeats, bool(args.trace),
                           args.smoke)
        runs.append(run)
        print_run(run)
        print(json.dumps(result_line(run, declared)), flush=True)
    if args.out:
        doc = {"fingerprint": fingerprint(), "runs": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc["runs"].extend(runs)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
