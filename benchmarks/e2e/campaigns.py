"""Campaigns of one end-to-end workload, in a fresh process.

``bench_e2e.py`` starts this script once per child process::

    python benchmarks/e2e/campaigns.py --workload mla-lockstep --seeds 0,1,2 \\
        --out reports.json [--trace FILE] [--smoke] [--spawned-at T]

For each seed it builds the workload's inputs from that seed (the program
receives only those inputs), runs one closed-loop ``GPTune.tune`` campaign
and checks its outputs; it writes the list of campaign reports to
``--out``.  ``--spawned-at`` is the parent's ``time.monotonic()`` just
before it started this process, so the first campaign's set-up time
includes interpreter start-up and imports.

Times are taken between :class:`Stopwatch` marks; see its docstring for
how they are rescaled to a reference CPU speed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
from scipy.linalg import cho_solve

from tracing import BENCH_SPAN, LayerTrace, layer_metrics, root_seconds

HERE = os.path.dirname(os.path.abspath(__file__))

#: seconds between the stopwatch's periodic marks
TICK_S = 0.1

# -- reference-speed stopwatch ------------------------------------------------

_rng = np.random.default_rng(12345)
_KM = _rng.random((96, 96))
_KS = _KM @ _KM.T + 96.0 * np.eye(96)
_KB = _rng.random(96)

#: fast-state time of one :func:`_kernel` call (min of 3) on the machine the
#: baseline was recorded on, an Intel Xeon (family 6, model 207) KVM guest
REF_KERNEL_S = 3.1e-4


def _kernel() -> float:
    """A fixed slice of the campaign's own instruction mix: small dense
    linear algebra, elementwise transcendentals and interpreted loops."""
    t = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        e = np.exp(-_KM)
        low = np.linalg.cholesky(_KS)
        x = cho_solve((low, True), _KB)
        acc += float(e[0, 0] + x[0])
        acc += sum(k * 0.5 for k in range(60))
    return time.perf_counter() - t


class Stopwatch:
    """Wall-clock marks, with on-CPU time rescaled to a reference speed.

    The CPU of a shared cloud machine alternates between a fast state and
    one about 1.7x slower, for seconds at a time, when a co-tenant loads
    the same core; the program's CPU time stretches by the same factor.
    Each mark runs a short fixed kernel (:func:`_kernel`, min of three) and
    records wall and process CPU time around it.  A segment between two
    marks counts its on-CPU seconds times ``REF_KERNEL_S / k``, where ``k``
    is the mean kernel time at its two ends, plus its off-CPU seconds
    (sleeps, sockets, fsync, waiting on another process) as measured.  The
    kernel's own time is excluded from every segment.

    Besides the marks the caller takes, :meth:`tick_every` takes one every
    ``period`` seconds from a ``SIGALRM`` handler, so the speed is sampled
    densely however long the program runs between callbacks.
    """

    def __init__(self, trace=None):
        self.marks = []  # (wall_before, cpu_before, kernel_s, wall_after, cpu_after)
        self.trace = trace
        self._busy = False

    def mark(self) -> int:
        """Take a mark; returns its index."""
        self._busy = True
        try:
            idx = self.trace.open(BENCH_SPAN) if self.trace is not None else None
            w0, u0 = time.monotonic(), time.process_time()
            k = min(_kernel() for _ in range(3))
            self.marks.append((w0, u0, k, time.monotonic(), time.process_time()))
            if idx is not None:
                self.trace.close(idx)
            return len(self.marks) - 1
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.mark()

    def tick_every(self, period: float) -> None:
        """Take a mark every ``period`` seconds until :meth:`stop_ticking`."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop_ticking(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    @staticmethod
    def _segment(wall: float, cpu: float, k: float) -> float:
        cpu = min(max(cpu, 0.0), wall)
        return cpu * REF_KERNEL_S / k + (wall - cpu)

    def since_spawn(self, spawned_at: float, b: int) -> tuple:
        """``(rescaled, wall)`` seconds from process spawn to mark ``b``."""
        w0, u0, k0, w1, u1 = self.marks[0]
        first = self._segment(w0 - spawned_at, u0, k0)
        rest, wall = self.between(0, b)
        return first + rest, (w0 - spawned_at) + wall

    def between(self, a: int, b: int) -> tuple:
        """``(rescaled, wall)`` seconds from mark ``a`` to mark ``b``."""
        scaled = wall = 0.0
        for i in range(a + 1, b + 1):
            _, _, k_prev, w_prev, u_prev = self.marks[i - 1]
            w, u, k, _, _ = self.marks[i]
            scaled += self._segment(w - w_prev, u - u_prev, 0.5 * (k_prev + k))
            wall += w - w_prev
        return scaled, wall


# -- workloads ----------------------------------------------------------------

#: campaign sizes.  One campaign's cost varies with its seed by up to 16%,
#: so ``full`` campaigns are small enough that a 25-second run averages
#: over many of them; ``smoke`` keeps every code path at a tiny budget
SIZES = {
    "mla-lockstep": {"full": {"tasks": 6, "eps": 10}, "smoke": {"tasks": 2, "eps": 6}},
    "mla-async": {"full": {"tasks": 6, "eps": 12}, "smoke": {"tasks": 2, "eps": 8}},
    "archive-sparse": {
        "full": {"tasks": 2, "archived": 300, "eps": 303},
        "smoke": {"tasks": 2, "archived": 12, "eps": 16},
    },
    "crowd-mo": {"full": {"tasks": 3, "eps": 24}, "smoke": {"tasks": 2, "eps": 16}},
}

#: L-BFGS iteration cap for every workload: most fits of these campaigns
#: would otherwise stop anywhere between 20 and 200 iterations depending on
#: the seed, and the cap keeps the modeling work per seed nearly constant
LBFGS_MAXITER = 60


class Campaign:
    """A set-up campaign: tuner, inputs, and what the checks need."""

    def __init__(self, tuner, tasks, n_samples, y_default, y_ref,
                 archive_count=None, archive_before=0, clock=None, durations=None):
        self.tuner = tuner
        self.tasks = tasks
        self.n_samples = n_samples
        self.y_default = y_default  # callables, evaluated after timing
        self.y_ref = y_ref
        self.archive_count = archive_count
        self.archive_before = archive_before
        self.clock = clock
        self.durations = durations
        self.server = None
        self.client = None

    def server_metrics(self):
        """``/metrics`` totals of the service, or ``{}`` without one."""
        if self.server is None:
            return {}
        with urllib.request.urlopen(self.server.url + "/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        return _prometheus_totals(text)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()


def _options(seed, **kw):
    from repro import Options

    return Options(seed=seed, backend="serial", lbfgs_maxiter=LBFGS_MAXITER, **kw)


def _analytical_tasks(rng, n):
    return [{"t": float(t)} for t in rng.uniform(0.5, 8.0, n)]


def _analytical_refs(tasks):
    from repro.apps.analytical import analytical_function, true_minimum

    default = [lambda t=t: float(analytical_function(t["t"], 0.5)) for t in tasks]
    ref = [lambda t=t: true_minimum(t["t"])[1] for t in tasks]
    return default, ref


def setup_mla_lockstep(seed, size, workdir):
    from repro import GPTune
    from repro.apps.analytical import AnalyticalApp

    tasks = _analytical_tasks(np.random.default_rng(seed), size["tasks"])
    tuner = GPTune(AnalyticalApp().problem(), _options(seed))
    return Campaign(tuner, tasks, size["eps"], *_analytical_refs(tasks))


def setup_mla_async(seed, size, workdir):
    from repro import GPTune
    from repro.apps.scalapack import PDGEQRF
    from repro.runtime.async_engine import SimScheduler
    from repro.runtime.machine import cori_haswell
    from repro.runtime.simclock import SimClock

    app = PDGEQRF(machine=cori_haswell(4))
    tasks = app.sample_tasks(size["tasks"], seed)
    durations = []

    def duration(i, cfg):
        # the virtual duration of an evaluation is its simulated runtime
        d = min(app.run(tasks[i], cfg, r) for r in range(app.repeats))
        durations.append(d)
        return d

    clock = SimClock()
    opts = _options(seed, async_eval=True, max_inflight=4, refit_interval=8,
                    refit_warm_start=True)
    tuner = GPTune(app.problem(), opts, scheduler=SimScheduler(duration, clock=clock))
    default = [lambda t=t: float(app.objective(t, app.default_config(t))) for t in tasks]
    ref = [lambda: 0.0 for _ in tasks]
    return Campaign(tuner, tasks, size["eps"], default, ref, clock=clock,
                    durations=durations)


def setup_archive_sparse(seed, size, workdir):
    from repro import GPTune, ShardedStore
    from repro.apps.analytical import AnalyticalApp, analytical_function

    rng = np.random.default_rng(seed)
    tasks = _analytical_tasks(rng, size["tasks"])
    app = AnalyticalApp()
    store = ShardedStore(os.path.join(workdir, "archive"))
    rows = []
    for t in tasks:
        for x in rng.random(size["archived"]):
            rows.append({"task": t, "x": {"x": float(x)},
                         "y": [float(analytical_function(t["t"], x))]})
    store.append(app.name, rows)
    tuner = GPTune(app.problem(), _options(seed, model_backend="auto"), history=store)
    return Campaign(tuner, tasks, size["eps"], *_analytical_refs(tasks),
                    archive_count=lambda: store.count(app.name),
                    archive_before=len(rows))


class _Server:
    """``python -m repro.cli serve`` on an ephemeral port, fresh store."""

    def __init__(self, root):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--root", root,
             "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if " on http://" not in line:
                raise RuntimeError(f"service did not start: {line!r}")
            self.url = line.split(" on ")[1].split()[0]
            while True:  # readiness: poll every 10 ms
                try:
                    with urllib.request.urlopen(self.url + "/metrics", timeout=5):
                        break
                except OSError:
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _prometheus_totals(text):
    """Totals the per-layer metrics need from a ``/metrics`` scrape."""
    out = {"commits": 0.0, "records": 0.0, "flush_s": 0.0, "request_s": 0.0, "append_s": 0.0}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(" ", 1)
        value = float(value)
        if name.startswith("repro_service_commits_total"):
            out["commits"] += value
        elif name.startswith("repro_service_committed_records_total"):
            out["records"] += value
        elif name.startswith("repro_service_flush_seconds_sum"):
            out["flush_s"] += value
        elif name.startswith("repro_http_request_seconds_sum") and 'endpoint="metrics"' not in name:
            out["request_s"] += value
            if 'endpoint="records"' in name and 'method="POST"' in name:
                out["append_s"] += value
    return out


#: the PARSEC matrices whose symbolic analysis takes under 0.2 s; the other
#: three take 1-3 s each, which would make the campaign's cost depend on
#: whether the seed happens to draw them
SMALL_MATRICES = ("Si2", "SiH4", "SiNa", "Na5", "benzene")


def setup_crowd_mo(seed, size, workdir):
    from repro import GPTune, ServiceClient
    from repro.apps.superlu import SuperLUDIST

    app = SuperLUDIST(objectives=("time", "memory"))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(SMALL_MATRICES), size["tasks"], replace=False)
    tasks = [{"matrix": SMALL_MATRICES[int(i)]} for i in sorted(chosen)]
    server = _Server(os.path.join(workdir, "db"))
    client = ServiceClient(server.url, pool_size=1)
    opts = _options(
        seed,
        model_cache_path=os.path.join(workdir, "fits.jsonl"),
        checkpoint_path=os.path.join(workdir, "campaign.ck.json"),
        checkpoint_every=1,
    )
    tuner = GPTune(app.problem(), opts, history=client)
    default = [lambda t=t: app.evaluate_default(t["matrix"])[0] for t in tasks]
    ref = [lambda: 0.0 for _ in tasks]
    camp = Campaign(tuner, tasks, size["eps"], default, ref,
                    archive_count=lambda: client.count(app.name))
    camp.server, camp.client = server, client
    return camp


SETUP = {
    "mla-lockstep": setup_mla_lockstep,
    "mla-async": setup_mla_async,
    "archive-sparse": setup_archive_sparse,
    "crowd-mo": setup_crowd_mo,
}


# -- checks -----------------------------------------------------------------


def records_digest(records) -> str:
    """Order-sensitive digest of ``TuningData.to_records()``."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def repeated_configs(data, tick_counts) -> tuple:
    """``(across, within)``: evaluations of a configuration the same task
    already evaluated in an earlier iteration, and in the same iteration.

    ``tick_counts`` holds each task's evaluation count at every callback,
    which splits a task's evaluations into the batches of its iterations.
    """
    across = within = 0
    for i, xs in enumerate(data.X):
        edges = [counts[i] for counts in tick_counts]
        first: dict = {}
        for j, x in enumerate(xs):
            key = json.dumps(x, sort_keys=True)
            if key not in first:
                first[key] = j
            elif bisect.bisect_right(edges, first[key]) == bisect.bisect_right(edges, j):
                within += 1
            else:
                across += 1
    return across, within


def best_regret(data, camp) -> float:
    """Mean over tasks of (incumbent - y_ref) / (y_default - y_ref), objective 0."""
    out = []
    for i in range(data.n_tasks):
        inc = float(np.min([y[0] for y in data.Y[i]]))
        ref, default = camp.y_ref[i](), camp.y_default[i]()
        out.append((inc - ref) / (default - ref))
    return float(np.mean(out))


def makespan_ratio(camp) -> float:
    """Virtual makespan over its lower bound, ``max(Σd / inflight, max d)``."""
    if camp.clock is None or not camp.durations:
        return 0.0
    inflight = camp.tuner.options.max_inflight
    bound = max(sum(camp.durations) / inflight, max(camp.durations))
    return float(camp.clock.now) / bound


# -- one child process ----------------------------------------------------------


def run(workload, seeds, smoke, trace_path, first_index, spawned_at):
    """Run one campaign per seed, one after another, in this process.

    Set-up time is reported for the first campaign only: it runs from the
    process start, imports included, to the call of ``tune()``.
    """
    watch = Stopwatch()
    watch.mark()
    watch.tick_every(TICK_S)
    size = SIZES[workload]["smoke" if smoke else "full"]
    reports = []
    try:
        for n, seed in enumerate(seeds):
            workdir = os.path.join(HERE, "results", f"work-{os.getpid()}-{n}")
            os.makedirs(workdir, exist_ok=True)
            try:
                camp = SETUP[workload](seed, size, workdir)
                try:
                    reports.append(_campaign(workload, seed, camp, watch, trace_path,
                                             first_index + n, spawned_at if n == 0 else None))
                finally:
                    camp.close()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    finally:
        watch.stop_ticking()
    return reports


def _campaign(workload, seed, camp, watch, trace_path, index, spawned_at):
    ticks, tick_counts = [], []

    def callback(iteration, data, stats):
        tick_counts.append([data.n_samples(i) for i in range(data.n_tasks)])
        ticks.append(watch.mark())
        return False

    trace = LayerTrace(campaign=index) if trace_path else None
    with trace if trace is not None else contextlib.nullcontext():
        start = watch.mark()
        watch.trace = trace  # marks inside the campaign become spans
        result = camp.tuner.tune(camp.tasks, camp.n_samples, callback=callback)
        watch.trace = None
        end = watch.mark()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    server = camp.server_metrics()
    archived = camp.archive_count() if camp.archive_count else None
    setup = watch.since_spawn(spawned_at, start) if spawned_at is not None else (None, None)
    out = _report(workload, seed, camp, result, watch, start, ticks, end, setup,
                  rss_mb, archived, tick_counts)
    if trace is not None:
        out["layers"] = layer_metrics(
            trace.spans, trace.nll_evals, result.events, server, makespan_ratio(camp)
        )
        out["root_span_s"] = root_seconds(trace.spans)
        out["checks"]["gp_fit_unless_downgraded"] = (
            out["layers"]["gp.fit.calls"] == 0 or out["downgrades"] > 0
        )
        trace.write(trace_path)
    return out


def _report(workload, seed, camp, result, watch, start, ticks, end, setup,
            rss_mb, archived, tick_counts):
    data = result.data
    campaign_s, campaign_wall = watch.between(start, end)
    iters = [watch.between(a, b) for a, b in zip(ticks, ticks[1:])]
    evaluations = data.n_samples() - camp.archive_before
    failed_evals = int(result.stats.get("n_eval_failures", 0))
    expected = camp.archive_before + evaluations
    missing = max(0, expected - archived) if archived is not None else 0
    across, within = repeated_configs(data, tick_counts)
    checks = {
        "budget": all(data.n_samples(i) == camp.n_samples for i in range(data.n_tasks)),
        "no_repeat_across_iterations": across == 0,
    }
    if archived is not None:
        checks["archive_count"] = archived == expected
    return {
        "workload": workload,
        "seed": seed,
        "setup_s": setup[0],
        "setup_wall_s": setup[1],
        "campaign_s": campaign_s,
        "campaign_wall_s": campaign_wall,
        "iter_ms": [1e3 * s for s, _ in iters],
        "peak_rss_mb": rss_mb,
        "evaluations": evaluations,
        "failed_evals": failed_evals,
        "archive_missing": missing,
        "best_regret": best_regret(data, camp),
        "makespan_sim_s": float(camp.clock.now) if camp.clock is not None else None,
        "lbfgs_starts": int(result.events.total("model-fit", "n_starts")),
        "downgrades": int(result.events.count("model-downgrade")),
        "batch_repeats": within,
        "records_digest": records_digest(data.to_records()),
        "checks": checks,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seeds", required=True, help="comma-separated campaign seeds")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default="", help="append spans to this JSONL file")
    ap.add_argument("--index", type=int, default=0, help="campaign id of the first seed")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spawned-at", type=float, default=None)
    args = ap.parse_args(argv)
    # a terminated child still runs its clean-up, which stops the service
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = run(args.workload, seeds, args.smoke, args.trace, args.index, spawned_at)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
