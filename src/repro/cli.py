"""Command-line interface.

Exposes the library's common flows without writing Python, matching the
artifact appendix's "run one script, read Popt/Oopt" experience::

    python -m repro.cli list-apps
    python -m repro.cli tune --app analytical --tasks 0,2,4 --samples 20
    python -m repro.cli tune --app pdgeqrf --nodes 4 --samples 10 --seed 1
    python -m repro.cli tune --app hypre --samples 16 --checkpoint run.ck.json
    python -m repro.cli tune --app hypre --checkpoint run.ck.json --resume
    python -m repro.cli tune --app analytical --samples 16 --telemetry run.jsonl
    python -m repro.cli report run.jsonl --strict
    python -m repro.cli compare --app superlu_dist --samples 12
    python -m repro.cli sensitivity --app hypre --samples 16
    python -m repro.cli serve --root ./tuning-db --port 8577
    python -m repro.cli query --url http://localhost:8577 --problem hypre \
        --task '{"nx": 100, "ny": 100, "nz": 100}' -k 3

``tune`` prints the optimal configuration ("Popt") and objective ("Oopt")
per task plus the Tab. 3-style phase breakdown ("stats:").  With
``--checkpoint`` a resumable snapshot is written after every batch; a killed
campaign continues exactly where it stopped with ``--resume``.

``serve`` runs the shared tuning-history service over a sharded store
directory; ``tune --history URL_OR_PATH`` archives into (and warm-starts
from) a service, a store directory, or a legacy JSON file, so concurrent
campaigns crowd-tune against one database.  ``query`` asks an archive for
the tasks nearest to a given one (the transfer-learning source lookup).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from .apps import M3DC1, NIMROD, AnalyticalApp, HypreApp, PDGEQRF, PDSYEVX, SuperLUDIST
from .core import GPTune, Options, surrogate_sensitivity
from .core.metrics import mean_stability, win_task
from .core.model import available_backends
from .runtime import cori_haswell

__all__ = ["main", "build_app", "APPS"]

APPS = {
    "analytical": AnalyticalApp,
    "pdgeqrf": PDGEQRF,
    "pdsyevx": PDSYEVX,
    "superlu_dist": SuperLUDIST,
    "hypre": HypreApp,
    "m3dc1": M3DC1,
    "nimrod": NIMROD,
}


def build_app(name: str, nodes: int, seed: int):
    """Instantiate an application on an ``nodes``-node Cori model."""
    if name not in APPS:
        raise SystemExit(f"unknown app {name!r}; known: {', '.join(sorted(APPS))}")
    kwargs: Dict[str, Any] = {"machine": cori_haswell(nodes), "seed": seed}
    if name == "hypre":
        kwargs["solve_cap"] = 1000
    if name in ("m3dc1", "nimrod"):
        kwargs["plane_size"] = 300
    return APPS[name](**kwargs)


def _parse_tasks(app, spec: Optional[str], n_random: int, seed: int) -> List[Dict[str, Any]]:
    if spec:
        space = app.task_space()
        tasks = []
        for chunk in spec.split(";"):
            vals = [v.strip() for v in chunk.split(",")]
            coerced: List[Any] = []
            for v in vals:
                try:
                    coerced.append(int(v))
                except ValueError:
                    try:
                        coerced.append(float(v))
                    except ValueError:
                        coerced.append(v)
            tasks.append(space.to_dict(coerced))
        return tasks
    return app.sample_tasks(n_random, seed=seed)


def _cmd_list_apps(_args) -> int:
    for name, cls in sorted(APPS.items()):
        app = cls() if name != "hypre" else cls(solve_cap=512)
        print(f"{name:14s} β={app.tuning_space().dimension:<3} "
              f"tasks={app.task_space().names} γ={app.n_objectives}")
    return 0


def _archive_from(spec: str):
    """Resolve an archive spec: service URL, store directory, or legacy JSON."""
    if spec.startswith(("http://", "https://")):
        from .service import ServiceClient

        return ServiceClient(spec)
    if spec.endswith(".json"):
        from .core import HistoryDB

        return HistoryDB(spec)
    from .service import ShardedStore

    return ShardedStore(spec)


def _cmd_tune(args) -> int:
    app = build_app(args.app, args.nodes, args.seed)
    # async campaigns need an overlapping backend to stream; lockstep keeps
    # the serial default
    backend = args.backend or ("thread" if args.async_eval else "serial")
    try:
        opts = Options(
            seed=args.seed,
            n_start=args.n_start,
            verbose=args.verbose,
            checkpoint_path=args.checkpoint,
            retry_attempts=args.retries,
            eval_timeout=args.eval_timeout,
            model_cache_path=args.model_cache,
            telemetry=bool(args.telemetry),
            backend=backend,
            async_eval=bool(args.async_eval),
            max_inflight=args.max_inflight,
            async_refit_secs=args.async_interval,
            allow_async_fallback=bool(args.allow_async_fallback),
            model_backend=args.model_backend,
            sparse_threshold=args.sparse_threshold,
            n_inducing=args.n_inducing,
        )
    except ValueError as e:
        raise SystemExit(str(e))
    problem = app.problem(with_models=args.models)
    if args.failure_value is not None:
        problem.failure_value = np.full(problem.n_objectives, float(args.failure_value))
    history = _archive_from(args.history) if args.history else None
    tuner = GPTune(problem, opts, history=history)
    sink = None
    if args.telemetry:
        from .runtime import JsonlEventWriter

        sink = JsonlEventWriter(args.telemetry)
        tuner.events.add_sink(sink)
    try:
        if args.resume:
            if not args.checkpoint:
                raise SystemExit("--resume requires --checkpoint PATH")
            if not os.path.exists(args.checkpoint):
                raise SystemExit(f"checkpoint {args.checkpoint!r} not found")
            try:
                result = tuner.resume(args.checkpoint)
            except ValueError as e:
                raise SystemExit(str(e))
            tasks = result.data.tasks
            print(
                f"resumed from {args.checkpoint}; campaign now has "
                f"{len(result.data)} evaluations"
            )
        else:
            tasks = _parse_tasks(app, args.tasks, args.random_tasks, args.seed)
            result = tuner.tune(tasks, args.samples)
    finally:
        if sink is not None:
            sink.close()
    if sink is not None:
        print(f"telemetry: {sink.count} event(s) -> {args.telemetry}")
    for i, t in enumerate(tasks):
        cfg, val = result.best(i)
        print(f"task {json.dumps(t)}")
        print(f"  Popt: {json.dumps(cfg)}")
        print(f"  Oopt: {val:.6g}")
    s = result.stats
    print(
        f"stats: total {s['total_time']:.4g}  objective {s['objective_time']:.4g}  "
        f"modeling {s['modeling_time']:.4g}  search {s['search_time']:.4g}"
    )
    counts = result.events.counts()
    notable = {k: v for k, v in counts.items() if k != "checkpoint"}
    if notable:
        print("events: " + "  ".join(f"{k} {v}" for k, v in sorted(notable.items())))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(result.data.to_records(), fh, indent=2)
        print(f"archived {len(result.data)} evaluations to {args.output}")
    return 0


def _cmd_compare(args) -> int:
    # the baseline tuners pull in scipy.stats; only this verb needs them
    from .tuners import HpBandSterTuner, OpenTunerTuner, RandomSearchTuner, YtoptTuner

    app = build_app(args.app, args.nodes, args.seed)
    tasks = _parse_tasks(app, args.tasks, args.random_tasks, args.seed)
    prob = app.problem()
    opts = Options(seed=args.seed, n_start=args.n_start)

    mla = GPTune(prob, opts).tune(tasks, args.samples)
    gpt = mla.best_values()
    gpt_traj = [[y[0] for y in mla.data.Y[i]] for i in range(len(tasks))]
    baselines = {
        "opentuner": OpenTunerTuner(),
        "hpbandster": HpBandSterTuner(),
        "ytopt": YtoptTuner(),
        "random": RandomSearchTuner(),
    }
    results = {"gptune": gpt}
    trajs = {"gptune": gpt_traj}
    for name, tuner in baselines.items():
        recs = [tuner.tune(prob, t, args.samples, seed=args.seed + 37 + i)
                for i, t in enumerate(tasks)]
        results[name] = np.array([r.best()[1] for r in recs])
        trajs[name] = [r.values[:, 0] for r in recs]

    y_star = np.min(np.vstack(list(results.values())), axis=0)
    print(f"{'tuner':>12} {'mean best':>12} {'WinTask(GPTune vs)':>20} {'stability':>10}")
    for name, best in results.items():
        wt = "-" if name == "gptune" else f"{100 * win_task(gpt, best):.0f}%"
        stab = mean_stability(trajs[name], y_star)
        print(f"{name:>12} {float(np.mean(best)):>12.5g} {wt:>20} {stab:>10.3f}")
    return 0


def _cmd_sensitivity(args) -> int:
    app = build_app(args.app, args.nodes, args.seed)
    tasks = _parse_tasks(app, args.tasks, 1, args.seed)
    opts = Options(seed=args.seed, n_start=args.n_start)
    result = GPTune(app.problem(), opts).tune(tasks[:1], args.samples)
    sens = surrogate_sensitivity(result.models[0], result.data, task=0, seed=args.seed)
    print(f"sensitivity for task {json.dumps(tasks[0])} ({args.samples} samples):")
    print(f"{'parameter':>18} {'S1':>8} {'ST':>8}")
    for name, idx in sens.items():
        print(f"{name:>18} {idx['S1']:>8.3f} {idx['ST']:>8.3f}")
    return 0


def _cmd_report(args) -> int:
    """Render the Table-3-style phase report from a telemetry JSONL export."""
    from .reporting import render_campaign_report
    from .runtime.trace import CampaignLog

    if not os.path.exists(args.path):
        raise SystemExit(f"telemetry file {args.path!r} not found")
    try:
        log = CampaignLog.load_jsonl(args.path)
    except ValueError as e:
        raise SystemExit(str(e))
    text, ok = render_campaign_report(log, tolerance=args.tolerance)
    print(text)
    if args.strict and not ok:
        print("report: FAIL (span totals disagree with the campaign stats)")
        return 1
    return 0


def _cmd_query(args) -> int:
    if bool(args.url) == bool(args.root):
        raise SystemExit("query needs exactly one of --url or --root")
    archive = _archive_from(args.url or args.root)
    if not args.problem:
        stats = (
            archive.stats()
            if hasattr(archive, "stats")
            else {"problems": {p: {"count": archive.count(p)} for p in archive.problems()}}
        )
        for name, info in sorted(stats["problems"].items()):
            etag = info.get("etag", "")
            print(f"{name:20s} {info['count']:>8} record(s)  {etag[:12]}")
        if not stats["problems"]:
            print("(archive is empty)")
        return 0
    if not args.task:
        print(f"{args.problem}: {archive.count(args.problem)} record(s)")
        return 0
    try:
        task = json.loads(args.task)
        if not isinstance(task, dict):
            raise ValueError("not an object")
    except ValueError as e:
        raise SystemExit(f"--task must be a JSON object: {e}")
    from .service.query import nearest_tasks

    matches = nearest_tasks(archive.records(args.problem), task, k=args.k)
    if not matches:
        print(f"{args.problem}: no archived tasks")
        return 0
    for t, recs, d in matches:
        ys = [r["y"][0] for r in recs]
        print(
            f"task {json.dumps(t)}  distance {d:.4g}  "
            f"{len(recs)} record(s)  best {min(ys):.6g}"
        )
    return 0


def _cmd_serve(args) -> int:
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    server_kwargs = {
        "max_pending": args.max_pending,
        "max_inflight": args.max_inflight,
    }
    if args.shards == 1:
        from .service import serve

        serve(
            args.root,
            args.host,
            args.port,
            verbose=not args.quiet,
            cache_bytes=args.cache_bytes,
            **server_kwargs,
        )
        return 0

    from .service import ShardSupervisor

    server_kwargs["cache_bytes"] = args.cache_bytes
    server_kwargs["verbose"] = not args.quiet
    with ShardSupervisor(
        args.root, args.shards, host=args.host, server_kwargs=server_kwargs
    ) as sup:
        topo_url = sup.serve_topology(port=args.port)
        print(f"topology  {topo_url}/v1/topology")
        for sid, url in sorted(sup.topology()["shards"].items()):
            print(f"{sid:10s} {url}")
        print(f"routing: RouterClient({topo_url!r})", flush=True)
        sup.watch()
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list tunable applications")

    def common(p):
        p.add_argument("--app", required=True, choices=sorted(APPS))
        p.add_argument("--tasks", help="semicolon-separated task tuples, e.g. '4000,4000;8000,2000'")
        p.add_argument("--random-tasks", type=int, default=2, help="random task count when --tasks absent")
        p.add_argument("--samples", type=int, default=10, help="ε_tot per task")
        p.add_argument("--nodes", type=int, default=1, help="Cori nodes in the machine model")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n-start", type=int, default=2, help="L-BFGS restarts")

    p_tune = sub.add_parser("tune", help="run multitask MLA")
    common(p_tune)
    p_tune.add_argument("--models", action="store_true", help="attach coarse performance models")
    p_tune.add_argument("--verbose", action="store_true")
    p_tune.add_argument("--output", help="archive evaluations to a JSON file")
    p_tune.add_argument(
        "--checkpoint", help="write a resumable campaign checkpoint to this path"
    )
    p_tune.add_argument(
        "--resume", action="store_true",
        help="continue a killed campaign from --checkpoint "
             "(tasks and --samples come from the checkpoint)",
    )
    p_tune.add_argument(
        "--retries", type=int, default=1,
        help="attempts per evaluation (crashes/NaN/timeouts are retried)",
    )
    p_tune.add_argument(
        "--eval-timeout", type=float,
        help="per-evaluation timeout in seconds",
    )
    p_tune.add_argument(
        "--failure-value", type=float,
        help="penalty objective value recorded when an evaluation still "
             "fails after --retries attempts (default: abort the run)",
    )
    p_tune.add_argument(
        "--history",
        help="shared archive to load from and append to: a service URL "
             "(http://...), a sharded store directory, or a legacy *.json file",
    )
    p_tune.add_argument(
        "--model-cache",
        help="surrogate-cache file; campaigns sharing it warm-start the "
             "modeling phase from each other's fitted hyperparameters",
    )
    p_tune.add_argument(
        "--telemetry", metavar="PATH",
        help="record timestamped phase/model spans and stream every campaign "
             "event to this JSONL file (render it with 'repro report PATH')",
    )
    p_tune.add_argument(
        "--model-backend", default="auto",
        choices=("auto",) + available_backends(),
        help="surrogate backend for the modeling phase: 'auto' escalates "
             "from the exact LCM to the sparse inducing-point LCM past "
             "--sparse-threshold observations (default: auto)",
    )
    p_tune.add_argument(
        "--sparse-threshold", type=int, default=512, metavar="N",
        help="observation count past which 'auto' switches to the sparse "
             "backend (default: 512)",
    )
    p_tune.add_argument(
        "--n-inducing", type=int, default=128, metavar="M",
        help="inducing-set size of the sparse backend (default: 128)",
    )
    p_tune.add_argument(
        "--async", dest="async_eval", action="store_true",
        help="stream evaluations through the asynchronous queue instead of "
             "the lockstep loop: completions are absorbed as they land and "
             "stragglers no longer stall the other tasks (see docs/ASYNC.md)",
    )
    p_tune.add_argument(
        "--max-inflight", type=int, metavar="N",
        help="cap on concurrently outstanding evaluations with --async "
             "(default: max(2, workers))",
    )
    p_tune.add_argument(
        "--async-interval", type=float, metavar="SECS",
        help="with --async, refit/extend the surrogate at most once per "
             "SECS seconds instead of before every fill round (default: "
             "every round)",
    )
    p_tune.add_argument(
        "--allow-async-fallback", action="store_true",
        help="with --async, run campaign shapes the streaming loop does not "
             "support through the lockstep loop (recording an "
             "'async-fallback' event) instead of failing fast",
    )
    p_tune.add_argument(
        "--backend", default=None,
        choices=("serial", "thread", "process"),
        help="evaluation backend; with --async the default becomes 'thread' "
             "so evaluations actually overlap",
    )

    p_cmp = sub.add_parser("compare", help="GPTune vs baseline tuners")
    common(p_cmp)

    p_sens = sub.add_parser("sensitivity", help="Sobol indices of the fitted surrogate")
    common(p_sens)

    p_serve = sub.add_parser("serve", help="run the shared tuning-history service")
    p_serve.add_argument("--root", required=True, help="sharded store directory")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8577)
    p_serve.add_argument("--quiet", action="store_true", help="suppress request logging")
    p_serve.add_argument(
        "--shards", type=int, default=1,
        help="backend server processes behind a consistent-hash topology; "
             "with N>1 the --port serves GET /v1/topology for RouterClient "
             "bootstrap and each shard stores under <root>/shard-NN/",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=4096,
        help="queued (not yet committing) record bound before appends get 429",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="concurrently handled request bound before requests get 429",
    )
    p_serve.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024,
        help="hot-shard read cache budget in bytes (0 disables)",
    )

    p_report = sub.add_parser(
        "report", help="phase-time breakdown from a --telemetry JSONL export"
    )
    p_report.add_argument("path", help="telemetry JSONL written by 'repro tune --telemetry'")
    p_report.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when span totals disagree with the campaign "
             "stats by more than --tolerance",
    )
    p_report.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative tolerance of the consistency gate (default 0.05)",
    )

    p_query = sub.add_parser("query", help="inspect an archive / nearest-task lookup")
    p_query.add_argument(
        "--url", help="service URL (mutually exclusive with --root)"
    )
    p_query.add_argument("--root", help="local store directory or legacy *.json file")
    p_query.add_argument("--problem", help="problem name to query")
    p_query.add_argument(
        "--task", help='query task as a JSON object, e.g. \'{"t": 2.5}\''
    )
    p_query.add_argument("-k", type=int, default=3, help="number of nearest tasks")

    args = parser.parse_args(argv)
    if args.command == "list-apps":
        return _cmd_list_apps(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "sensitivity":
        return _cmd_sensitivity(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "query":
        return _cmd_query(args)
    raise AssertionError  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
