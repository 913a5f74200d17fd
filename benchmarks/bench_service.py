"""Crowd-tuning service under load: batching, sharding, and fault drills.

The tuning-history service is the paper's "shared database" (Sec. 1,
goal 3) made concurrent: many campaigns post one evaluation at a time and
read each other's history.  This harness measures the three throughput
levers of that deployment and drills its crash story:

* **group commit** — the seed append path pays one lock acquire + one
  ``write`` + one ``fsync`` per record; :class:`~repro.service.batch.
  WriteBatcher` coalesces the submits that arrive while a shard's commit
  is in flight into that shard's next commit (leader/follower, no timer),
  while a lone serial writer still pays exactly one fsync per submit;
* **horizontal sharding** — ``repro serve --shards N`` runs N backend
  processes behind a consistent-hash router, multiplying both available
  GILs and independent fsync streams;
* **durability under faults** — a SIGKILLed backend must lose nothing it
  acknowledged and duplicate nothing the router retried (appends carry
  client-side rids, so retries are exactly-once).

**Determinism.**  On CI filesystems ``fsync`` is nearly free, which would
make a wall-clock batching gate measure the container's page cache rather
than the design.  Like ``bench_async_engine.py``'s virtual durations, the
microbenchmark therefore emulates production storage: ``os.fsync`` inside
the store pays a fixed ``FSYNC_EMU`` latency (3 ms — a fast cloud disk).
Real-disk numbers are reported alongside, unemulated and ungated.

``--check`` runs the CI gates and writes
``benchmarks/results/BENCH_service.json``:

* **batching** — ≥ 3× write throughput over the unbatched seed path under
  48 concurrent writers on emulated 3 ms-fsync storage;
* **coalescing** — ≥ 3 records per durable commit on average (the
  syscall-level statement of the same claim, immune to scheduling noise);
* **single-writer latency** — one serial writer's ``submit`` p50 stays
  below 2 × the emulated fsync: nothing waits for a batch-mate that never
  comes;
* **no-loss/no-dup (batching)** — both stores hold every acknowledged
  record exactly once;
* **scaling** — a 4-shard topology strictly out-throughputs 1 shard on a
  mixed append/read HTTP workload;
* **latency** — append p99 under the mixed workload stays below 2 s
  (generous; typical is tens of milliseconds);
* **fault drill** — with a backend SIGKILLed mid-load and auto-restarted,
  every acknowledged append is present exactly once and no rid is ever
  duplicated.

Run::

    PYTHONPATH=src python benchmarks/bench_service.py           # timings
    PYTHONPATH=src python benchmarks/bench_service.py --check   # CI gates
"""

import argparse
import json
import os
import shutil
import tempfile
import threading
import time

from harness import fmt, print_table
from repro.observability import MetricsRegistry
from repro.service import RouterClient, ShardSupervisor, ShardedStore, WriteBatcher
import repro.service.store as _store_mod

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "BENCH_service.json"
)

#: microbench shape: 48 writer threads over 4 problems, 20 records each
MICRO_THREADS, MICRO_RECORDS, MICRO_PROBLEMS = 48, 20, 4
#: emulated fsync latency (production-disk regime; see module docstring)
FSYNC_EMU = 0.003
#: serial-writer shape: one thread, this many one-record submits
SERIAL_SUBMITS = 50

#: HTTP workload shape: threads x ops, mixed 4:1 append:read, 8 problems
HTTP_THREADS, HTTP_OPS, HTTP_PROBLEMS = 12, 40, 8

#: fault drill shape
DRILL_SHARDS, DRILL_THREADS, DRILL_OPS, DRILL_PROBLEMS = 4, 8, 30, 8


def _record(i):
    return {"task": {"m": i}, "x": {"a": i, "b": i * 0.5}, "y": [float(i)]}


class _EmulatedDisk:
    """Patch the store module's ``os.fsync`` to cost ``FSYNC_EMU`` extra."""

    def __enter__(self):
        self._real = _store_mod.os.fsync

        def slow_fsync(fd, _real=self._real):
            _real(fd)
            time.sleep(FSYNC_EMU)

        _store_mod.os.fsync = slow_fsync
        return self

    def __exit__(self, *exc):
        _store_mod.os.fsync = self._real


# -- part 1: group commit vs the seed append path ----------------------------

def _drive_writers(write_one):
    """Run the microbench write pattern; returns elapsed seconds."""
    def work(t):
        prob = f"prob{t % MICRO_PROBLEMS}"
        for i in range(MICRO_RECORDS):
            write_one(prob, _record(t * 1000 + i))

    threads = [
        threading.Thread(target=work, args=(t,)) for t in range(MICRO_THREADS)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def _verify_store(store):
    """Every submitted record present exactly once; returns (ok, total)."""
    total, ok = 0, True
    per_problem = (MICRO_THREADS // MICRO_PROBLEMS) * MICRO_RECORDS
    for p in range(MICRO_PROBLEMS):
        rids = [r["rid"] for r in store.records(f"prob{p}", with_rid=True)]
        total += len(rids)
        if len(rids) != len(set(rids)) or len(rids) != per_problem:
            ok = False
    return ok, total


def bench_batching(root, emulate=True):
    """Unbatched seed path vs group commit; returns the result dict."""
    n = MICRO_THREADS * MICRO_RECORDS
    ctx = _EmulatedDisk() if emulate else _NullCtx()
    with ctx:
        un_store = ShardedStore(os.path.join(root, "unbatched"))
        un_elapsed = _drive_writers(
            lambda prob, rec: un_store.append(prob, [rec])
        )

        ba_store = ShardedStore(os.path.join(root, "batched"))
        metrics = MetricsRegistry()
        batcher = WriteBatcher(ba_store, metrics=metrics)
        ba_elapsed = _drive_writers(
            lambda prob, rec: batcher.submit(prob, [rec])
        )
        batcher.close()

    un_ok, _ = _verify_store(un_store)
    ba_ok, _ = _verify_store(ba_store)
    commits = metrics.counter_value("repro_service_commits_total")
    committed = metrics.counter_value("repro_service_committed_records_total")
    return {
        "records": n,
        "unbatched_rec_per_s": n / un_elapsed,
        "batched_rec_per_s": n / ba_elapsed,
        "speedup": un_elapsed / ba_elapsed,
        "commits": int(commits),
        "records_per_commit": committed / max(commits, 1.0),
        "no_loss_no_dup": bool(un_ok and ba_ok),
    }


def bench_serial_writer(root):
    """One writer, one record per submit, on emulated storage."""
    store = ShardedStore(root)
    metrics = MetricsRegistry()
    batcher = WriteBatcher(store, metrics=metrics)
    latencies = []
    with _EmulatedDisk():
        for i in range(SERIAL_SUBMITS):
            t0 = time.perf_counter()
            batcher.submit("serial", [_record(i)])
            latencies.append(time.perf_counter() - t0)
    batcher.close()
    latencies.sort()
    return {
        "submits": SERIAL_SUBMITS,
        "p50_ms": latencies[len(latencies) // 2] * 1000.0,
        "max_ms": latencies[-1] * 1000.0,
        "commits": int(metrics.counter_value("repro_service_commits_total")),
        "stored": store.count("serial"),
    }


class _NullCtx:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


# -- part 2: 1-shard vs 4-shard HTTP topology --------------------------------

def bench_scaling(root, n_shards):
    """Mixed append/read workload against an N-shard topology."""
    with ShardSupervisor(os.path.join(root, f"shards{n_shards}"), n_shards) as sup:
        client = RouterClient(sup.serve_topology(), pool_size=HTTP_THREADS)
        latencies = []
        lat_lock = threading.Lock()

        def work(t):
            for i in range(HTTP_OPS):
                prob = f"prob{(t * HTTP_OPS + i) % HTTP_PROBLEMS}"
                t0 = time.perf_counter()
                client.append(prob, [_record(t * 1000 + i)])
                dt = time.perf_counter() - t0
                with lat_lock:
                    latencies.append(dt)
                if i % 4 == 0:
                    client.records(prob)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(HTTP_THREADS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        client.close()

    n_reads = sum(
        1 for t in range(HTTP_THREADS) for i in range(HTTP_OPS) if i % 4 == 0
    )
    n_ops = HTTP_THREADS * HTTP_OPS + n_reads
    latencies.sort()
    return {
        "shards": n_shards,
        "ops": n_ops,
        "ops_per_s": n_ops / elapsed,
        "append_p50_ms": latencies[len(latencies) // 2] * 1000.0,
        "append_p99_ms": latencies[int(len(latencies) * 0.99)] * 1000.0,
    }


# -- part 3: SIGKILL a backend mid-load --------------------------------------

def bench_fault_drill(root):
    """Kill one of 4 backends mid-load; count lost/duplicated acks."""
    with ShardSupervisor(os.path.join(root, "drill"), DRILL_SHARDS) as sup:
        sup.watch(interval=0.05)
        client = RouterClient(sup.serve_topology(), pool_size=DRILL_THREADS)
        acked = []  # (problem, rid) pairs the service acknowledged
        ack_lock = threading.Lock()
        failures = [0]

        def work(t):
            for i in range(DRILL_OPS):
                prob = f"prob{(t * DRILL_OPS + i) % DRILL_PROBLEMS}"
                try:
                    out = client.append(prob, [_record(t * 1000 + i)])
                except Exception:
                    with ack_lock:
                        failures[0] += 1
                    continue
                with ack_lock:
                    for rid in out["rids"]:
                        acked.append((prob, rid))

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(DRILL_THREADS)
        ]
        for t in threads:
            t.start()
        time.sleep(0.3)  # let load build, then kill a live backend
        victim = sorted(sup.topology()["shards"])[1]
        sup.kill(victim)
        for t in threads:
            t.join()

        # read back through a fresh router view of the healed topology
        reader = RouterClient(sup.serve_topology())
        stored = {}  # (problem, rid) -> occurrences
        for p in range(DRILL_PROBLEMS):
            prob = f"prob{p}"
            for row in reader.records(prob):
                key = (prob, row["rid"])
                stored[key] = stored.get(key, 0) + 1
        reader.close()
        client.close()

    lost = [k for k in acked if k not in stored]
    duplicated = [k for k, n in stored.items() if n > 1]
    return {
        "killed": victim,
        "acked": len(acked),
        "failed_after_retries": failures[0],
        "stored": sum(stored.values()),
        "lost_acked": len(lost),
        "duplicated": len(duplicated),
    }


# -- driver -------------------------------------------------------------------

def check_gates(micro, serial, scale1, scale4, drill):
    """The deterministic CI gates; prints PASS/FAIL per gate."""
    g_speed = bool(micro["speedup"] >= 3.0)
    print(f"  batching: {fmt(micro['speedup'])}x over unbatched seed path "
          f"(emulated {FSYNC_EMU * 1000:.0f} ms fsync)  "
          f"{'PASS' if g_speed else 'FAIL'}")

    g_coalesce = bool(micro["records_per_commit"] >= 3.0)
    print(f"  coalescing: {fmt(micro['records_per_commit'])} records per "
          f"commit ({micro['commits']} commits for {micro['records']} "
          f"records)  {'PASS' if g_coalesce else 'FAIL'}")

    g_serial = bool(serial["p50_ms"] < 2.0 * FSYNC_EMU * 1000.0)
    print(f"  single writer: submit p50 {fmt(serial['p50_ms'])} ms < "
          f"{fmt(2.0 * FSYNC_EMU * 1000.0)} ms (2x emulated fsync)  "
          f"{'PASS' if g_serial else 'FAIL'}")

    g_intact = bool(micro["no_loss_no_dup"])
    print(f"  no-loss/no-dup: both stores hold every record exactly once  "
          f"{'PASS' if g_intact else 'FAIL'}")

    g_scale = bool(scale4["ops_per_s"] > scale1["ops_per_s"])
    print(f"  scaling: 4-shard {fmt(scale4['ops_per_s'])} ops/s > 1-shard "
          f"{fmt(scale1['ops_per_s'])} ops/s  "
          f"{'PASS' if g_scale else 'FAIL'}")

    worst_p99 = max(scale1["append_p99_ms"], scale4["append_p99_ms"])
    g_p99 = bool(worst_p99 < 2000.0)
    print(f"  latency: worst append p99 {fmt(worst_p99)} ms < 2000 ms  "
          f"{'PASS' if g_p99 else 'FAIL'}")

    g_drill = bool(
        drill["lost_acked"] == 0
        and drill["duplicated"] == 0
        and drill["acked"] > 0
    )
    print(f"  fault drill: {drill['killed']} SIGKILLed mid-load, "
          f"{drill['acked']} acked appends, {drill['lost_acked']} lost, "
          f"{drill['duplicated']} duplicated  "
          f"{'PASS' if g_drill else 'FAIL'}")

    gates = {
        "batching_3x": g_speed,
        "coalescing_3_per_commit": g_coalesce,
        "single_writer_p50_under_2_fsyncs": g_serial,
        "no_loss_no_dup": g_intact,
        "four_shards_beat_one": g_scale,
        "append_p99_under_2s": g_p99,
        "kill_drill_exactly_once": g_drill,
    }
    gates["passed"] = all(gates.values())
    return gates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Tuning-history service load test: batching, sharding, faults"
    )
    ap.add_argument("--check", action="store_true",
                    help="run the deterministic CI gates")
    ap.add_argument("--out", default=DEFAULT_OUT, help="JSON output path")
    args = ap.parse_args(argv)

    root = tempfile.mkdtemp(prefix="bench_service_")
    try:
        print(f"== group commit: {MICRO_THREADS} writers x {MICRO_RECORDS} "
              f"records over {MICRO_PROBLEMS} problems ==")
        micro = bench_batching(os.path.join(root, "emu"), emulate=True)
        real = bench_batching(os.path.join(root, "real"), emulate=False)
        print_table(
            "write path (records/s)",
            ["disk", "unbatched", "batched", "speedup", "rec/commit"],
            [
                [f"emulated {FSYNC_EMU * 1000:.0f}ms fsync",
                 fmt(micro["unbatched_rec_per_s"]),
                 fmt(micro["batched_rec_per_s"]),
                 f"{fmt(micro['speedup'])}x",
                 fmt(micro["records_per_commit"])],
                ["real (informational)",
                 fmt(real["unbatched_rec_per_s"]),
                 fmt(real["batched_rec_per_s"]),
                 f"{fmt(real['speedup'])}x",
                 fmt(real["records_per_commit"])],
            ],
        )

        print(f"\n== single writer: {SERIAL_SUBMITS} serial submits, "
              f"emulated {FSYNC_EMU * 1000:.0f} ms fsync ==")
        serial = bench_serial_writer(os.path.join(root, "serial"))
        print(f"submit p50 {fmt(serial['p50_ms'])} ms, max "
              f"{fmt(serial['max_ms'])} ms, {serial['commits']} commits for "
              f"{serial['submits']} submits")

        print(f"\n== topology scaling: {HTTP_THREADS} clients x {HTTP_OPS} "
              f"mixed ops over {HTTP_PROBLEMS} problems ==")
        scale1 = bench_scaling(root, 1)
        scale4 = bench_scaling(root, 4)
        print_table(
            "HTTP mixed workload",
            ["topology", "ops/s", "append p50 (ms)", "append p99 (ms)"],
            [
                ["1 shard", fmt(scale1["ops_per_s"]),
                 fmt(scale1["append_p50_ms"]), fmt(scale1["append_p99_ms"])],
                ["4 shards", fmt(scale4["ops_per_s"]),
                 fmt(scale4["append_p50_ms"]), fmt(scale4["append_p99_ms"])],
            ],
        )

        print(f"\n== fault drill: SIGKILL 1 of {DRILL_SHARDS} backends "
              f"under {DRILL_THREADS} writers ==")
        drill = bench_fault_drill(root)
        print(f"killed {drill['killed']}; {drill['acked']} acked, "
              f"{drill['stored']} stored, {drill['lost_acked']} lost, "
              f"{drill['duplicated']} duplicated, "
              f"{drill['failed_after_retries']} failed after retries")

        payload = {
            "config": {
                "micro_threads": MICRO_THREADS,
                "micro_records": MICRO_RECORDS,
                "micro_problems": MICRO_PROBLEMS,
                "fsync_emulated_s": FSYNC_EMU,
                "serial_submits": SERIAL_SUBMITS,
                "http_threads": HTTP_THREADS,
                "http_ops": HTTP_OPS,
                "drill_shards": DRILL_SHARDS,
            },
            "batching_emulated_disk": micro,
            "batching_real_disk": real,
            "single_writer": serial,
            "scaling": {"one_shard": scale1, "four_shards": scale4},
            "fault_drill": drill,
        }

        ok = True
        if args.check:
            print("\n== deterministic gates ==")
            payload["checks"] = check_gates(micro, serial, scale1, scale4, drill)
            ok = payload["checks"]["passed"]

        os.makedirs(os.path.dirname(os.path.abspath(args.out)) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=float)
        print(f"wrote {args.out}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
