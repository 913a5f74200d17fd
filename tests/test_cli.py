"""Tests for the command-line interface (repro.cli)."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import APPS, build_app, main


class TestBuildApp:
    def test_known_apps(self):
        for name in APPS:
            app = build_app(name, nodes=1, seed=0)
            assert app.tuning_space().dimension >= 1

    def test_unknown_app(self):
        with pytest.raises(SystemExit):
            build_app("caffe", nodes=1, seed=0)


class TestListApps(object):
    def test_lists_all(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        for name in APPS:
            assert name in out


class TestTune:
    def test_analytical_explicit_tasks(self, capsys):
        rc = main(
            ["tune", "--app", "analytical", "--tasks", "1.0;2.0", "--samples", "6",
             "--n-start", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("Popt:") == 2
        assert out.count("Oopt:") == 2
        assert "stats:" in out

    def test_random_tasks_and_archive(self, capsys, tmp_path):
        archive = tmp_path / "out.json"
        rc = main(
            ["tune", "--app", "pdsyevx", "--random-tasks", "1", "--samples", "6",
             "--n-start", "1", "--output", str(archive)]
        )
        assert rc == 0
        records = json.loads(archive.read_text())
        assert len(records) == 6
        assert {"task", "x", "y"} <= set(records[0])

    def test_mixed_task_parsing(self, capsys):
        rc = main(
            ["tune", "--app", "superlu_dist", "--tasks", "Si2", "--samples", "6",
             "--n-start", "1"]
        )
        assert rc == 0
        assert '"matrix": "Si2"' in capsys.readouterr().out

    def test_non_finite_eval_timeout_refused(self):
        with pytest.raises(SystemExit) as ei:
            main(["tune", "--app", "analytical", "--tasks", "1.0", "--samples", "4",
                  "--eval-timeout", "nan"])
        assert str(ei.value.code) == "eval_timeout must be finite, got nan"

    def test_unknown_model_backend_is_a_usage_error(self, capsys):
        from repro.core.model import available_backends

        with pytest.raises(SystemExit) as ei:
            main(["tune", "--app", "analytical", "--model-backend", "nope"])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert "argument --model-backend: invalid choice: 'nope'" in err
        for name in ("auto",) + available_backends():
            assert repr(name) in err


class TestTelemetryAndReport:
    def test_tune_streams_telemetry_and_report_renders_it(self, capsys, tmp_path):
        telemetry = tmp_path / "run.jsonl"
        checkpoint = tmp_path / "run.ck.json"
        rc = main(
            ["tune", "--app", "analytical", "--tasks", "0.5;1.5", "--samples", "8",
             "--n-start", "1", "--telemetry", str(telemetry),
             "--checkpoint", str(checkpoint)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert checkpoint.exists()
        lines = [json.loads(l) for l in telemetry.read_text().splitlines()]
        kinds = {l["kind"] for l in lines}
        assert {"span", "span-summary", "stats", "checkpoint"} <= kinds

        # the report reproduces the phase breakdown from the JSONL alone
        rc = main(["report", str(telemetry), "--strict"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase breakdown (from spans)" in out
        for phase in ("sampling", "modeling", "search", "evaluation"):
            assert phase in out
        assert "consistency (spans vs stats event)" in out
        assert "OK" in out

    def test_report_shows_history_appends(self, capsys, tmp_path):
        telemetry = tmp_path / "run.jsonl"
        rc = main(
            ["tune", "--app", "analytical", "--tasks", "0.5;1.5", "--samples", "6",
             "--n-start", "1", "--history", str(tmp_path / "db"),
             "--telemetry", str(telemetry)]
        )
        assert rc == 0
        lines = [json.loads(l) for l in telemetry.read_text().splitlines()]
        drains = [l["fields"]["n"] for l in lines if l["kind"] == "async-drain"]
        capsys.readouterr()
        assert main(["report", str(telemetry), "--strict"]) == 0
        out = capsys.readouterr().out
        # one append per drained round, carrying all of its evaluations
        assert "history archive (from history.append spans)" in out
        assert f"appends  {len(drains)}   records {sum(drains)}   total" in out
        assert sum(drains) == 12

    def test_report_strict_fails_on_inconsistent_stats(self, capsys, tmp_path):
        telemetry = tmp_path / "bad.jsonl"
        events = [
            {"seq": 0, "kind": "span", "detail": "phase.modeling 1000ms",
             "fields": {"name": "phase.modeling", "dur_s": 1.0}},
            {"seq": 1, "kind": "stats", "detail": "campaign phase totals",
             "fields": {"modeling_time": 2.0, "search_time": 0.0,
                        "objective_wall_time": 0.0}},
        ]
        telemetry.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["report", str(telemetry)]) == 0  # informational by default
        capsys.readouterr()
        assert main(["report", str(telemetry), "--strict"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_report_missing_file_errors(self):
        with pytest.raises(SystemExit):
            main(["report", "/nonexistent/run.jsonl"])


class TestSensitivity:
    def test_prints_sorted_indices(self, capsys):
        rc = main(
            ["sensitivity", "--app", "pdgeqrf", "--tasks", "4000,4000",
             "--samples", "8", "--n-start", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "S1" in out and "ST" in out
        for p in ("b", "p", "p_r"):
            assert p in out


class TestCompare:
    def test_compare_runs_all_tuners(self, capsys):
        rc = main(
            ["compare", "--app", "analytical", "--tasks", "1.0", "--samples", "6",
             "--n-start", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("gptune", "opentuner", "hpbandster", "ytopt", "random"):
            assert name in out
        assert "WinTask" in out


class TestImportCost:
    def test_cli_import_skips_baseline_tuners(self):
        # `repro serve` starts through this module; the baseline tuners (and
        # scipy.stats behind hpbandster's KDE) load only for `repro compare`
        code = (
            "import sys, repro.cli; "
            "print(sorted(m for m in ('repro.tuners', 'scipy.stats') "
            "if m in sys.modules))"
        )
        assert _run_fresh(code) == "[]"

    def test_service_commands_skip_the_tuner(self, tmp_path):
        # `serve`, `query` and `report` load the service, runtime,
        # observability and reporting layers only: no repro.core (and no
        # scipy.optimize/scipy.special behind it), no applications
        from repro.service import ShardedStore

        db = str(tmp_path / "db")
        ShardedStore(db).append("p", [{"task": {"t": 1.0}, "x": {"x": 0.5}, "y": [2.0]}])
        telemetry = tmp_path / "run.jsonl"
        telemetry.write_text(json.dumps(
            {"seq": 0, "kind": "stats", "detail": "campaign phase totals", "fields": {}}
        ) + "\n")
        code = textwrap.dedent(f"""
            import sys, threading
            import repro.cli
            from repro.service import ShardSupervisor, make_server, serve
            server = make_server({db!r}, port=0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            url = "http://127.0.0.1:%d" % server.server_address[1]
            for argv in (["query", "--url", url, "--problem", "p", "--task", '{{"t": 2.0}}'],
                         ["query", "--root", {db!r}],
                         ["report", {str(telemetry)!r}]):
                assert repro.cli.main(argv) == 0
            server.shutdown()
            server.server_close()
            print(sorted(m for m in ("repro.core", "repro.apps", "scipy.optimize",
                                     "scipy.special") if m in sys.modules))
        """)
        out = _run_fresh(code)
        assert "distance 1" in out
        assert out.splitlines()[-1] == "[]"

    def test_serve_loads_no_numpy(self, tmp_path):
        # `repro serve` appends, reads, counts and answers /metrics without
        # numpy, scipy, the tuner or the evaluation machinery; only the
        # nearest-task query imports numpy, on first use.  Requests go
        # through stdlib urllib: ServiceClient is the tuner's side
        code = textwrap.dedent(f"""
            import json, sys, threading, urllib.request
            import repro.cli
            from repro.service import make_server
            server = make_server({str(tmp_path / "db")!r}, port=0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            url = "http://127.0.0.1:%d" % server.server_address[1]

            def call(path, body=None):
                data = None if body is None else json.dumps(body).encode()
                with urllib.request.urlopen(urllib.request.Request(url + path, data=data)) as r:
                    return r.read().decode()

            rows = [{{"task": {{"t": t}}, "x": {{"x": 0.5}}, "y": [t]}} for t in (1.0, 3.0)]
            assert json.loads(call("/v1/records/p", {{"records": rows}}))["appended"] == 2
            assert len(json.loads(call("/v1/records/p"))["records"]) == 2
            assert json.loads(call("/v1/stats"))["problems"]["p"]["count"] == 2
            assert "repro_http_requests_total" in call("/metrics")
            heavy = ("numpy", "scipy", "repro.core", "repro.runtime.resilience")
            print(sorted(m for m in heavy if m in sys.modules))
            near = json.loads(call("/v1/query/p", {{"task": {{"t": 2.5}}, "k": 1}}))["matches"]
            print([(m["task"], m["distance"], [r["y"] for r in m["records"]]) for m in near])
            print("numpy" in sys.modules)
            server.shutdown()
            server.server_close()
        """)
        lines = _run_fresh(code).splitlines()
        assert lines == ["[]", "[({'t': 3.0}, 0.25, [[3.0]])]", "True"]

    def test_sharded_serve_loads_no_numpy(self, tmp_path):
        # `repro serve --shards N`: the supervisor, the routing client and
        # the shard servers it forks append, read and count without numpy;
        # a query loads it in the one shard that answers it
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("reads the shard processes' /proc/<pid>/maps")
        code = textwrap.dedent(f"""
            import multiprocessing, sys
            import repro.cli
            from repro.service import RouterClient, ShardSupervisor

            def numpy_in(pid):
                with open("/proc/%d/maps" % pid) as fh:
                    return "_multiarray_umath" in fh.read()

            with ShardSupervisor({str(tmp_path / "db")!r}, 2) as sup:
                router = RouterClient(sup.serve_topology())
                row = {{"task": {{"t": 1.0}}, "x": {{"x": 0.5}}, "y": [1.0]}}
                for problem in ("p", "q"):
                    router.append(problem, [row])
                assert len(router.records("p")) == router.count("q") == 1
                shards = [p.pid for p in multiprocessing.active_children()]
                print(sorted(m for m in ("numpy", "repro.runtime.resilience") if m in sys.modules))
                print(len(shards), [numpy_in(pid) for pid in shards])
                assert router.query("p", {{"t": 1.0}}, k=1)[0]["distance"] == 0.0
                print(sum(numpy_in(pid) for pid in shards), "numpy" in sys.modules)
                router.close()
        """)
        assert _run_fresh(code).splitlines() == [
            "['repro.runtime.resilience']", "2 [False, False]", "1 False",
        ]

    # one campaign per shape: the set-up lines build a `tuner` and the
    # `tune()` arguments; everything the campaign runs must be imported by then
    CAMPAIGNS = {
        "lockstep": """
            from repro import GPTune, Options
            from repro.apps.analytical import AnalyticalApp
            tuner = GPTune(AnalyticalApp().problem(), Options(seed=0, n_start=1))
            args = ([{"t": 1.0}, {"t": 2.0}], 6)
        """,
        "streaming-pdgeqrf": """
            from repro import GPTune, Options
            from repro.apps.scalapack import PDGEQRF
            from repro.runtime.async_engine import SimScheduler
            from repro.runtime.machine import cori_haswell
            from repro.runtime.simclock import SimClock
            app = PDGEQRF(machine=cori_haswell(4))
            tasks = app.sample_tasks(2, 0)
            scheduler = SimScheduler(lambda i, cfg: app.run(tasks[i], cfg, 0),
                                     clock=SimClock())
            opts = Options(seed=0, n_start=1, async_eval=True, max_inflight=2)
            tuner = GPTune(app.problem(), opts, scheduler=scheduler)
            args = (tasks, 5)
        """,
        "two-objective": """
            from repro import GPTune, Options
            from repro.apps.superlu import SuperLUDIST
            app = SuperLUDIST(objectives=("time", "memory"))
            tuner = GPTune(app.problem(), Options(seed=0, n_start=1))
            args = ([{"matrix": "Si2"}], 5)
        """,
        "sparse-lcm": """
            from repro import GPTune, Options
            from repro.apps.analytical import AnalyticalApp
            opts = Options(seed=0, n_start=1, model_backend="sparse-lcm")
            tuner = GPTune(AnalyticalApp().problem(), opts)
            args = ([{"t": 1.0}, {"t": 2.0}], 6)
        """,
    }

    def test_tune_imports_nothing_new(self):
        # set-up pays the tuner's whole import cost; a lazy import inside
        # tune() would move it into the campaign's own time.  One fresh
        # interpreter per shape, so no shape imports for another
        new = {}
        for shape, setup in self.CAMPAIGNS.items():
            code = "import sys\n" + textwrap.dedent(setup) + textwrap.dedent("""
                before = set(sys.modules)
                tuner.tune(*args)
                print(sorted(m for m in set(sys.modules) - before
                             if m.startswith(("repro.", "scipy."))))
            """)
            new[shape] = _run_fresh(code).splitlines()[-1]
        assert new == {shape: "[]" for shape in self.CAMPAIGNS}

    def test_tuners_load_no_simulated_mpi(self):
        # the simulated MPI runtime behind Fig. 3 (Sec. 4.3's ScaLAPACK
        # factorization) is measured on its own; no campaign shape loads it,
        # neither while its tuner is built nor while it tunes
        code = "import sys\n" + "".join(
            textwrap.dedent(setup) + "tuner.tune(*args)\n" for setup in self.CAMPAIGNS.values()
        ) + textwrap.dedent("""
            print(sorted(m for m in ("repro.runtime.mpi", "repro.runtime.distributed_linalg",
                                     "repro.runtime.trace") if m in sys.modules))
        """)
        assert _run_fresh(code).splitlines()[-1] == "[]"

    def test_analytical_reference_skips_scipy_optimize(self):
        # the e2e children normalize an analytical campaign's regret by
        # true_minimum right after it; that reference loads no scipy.optimize
        code = "import sys\n" + textwrap.dedent(self.CAMPAIGNS["lockstep"]) + textwrap.dedent("""
            tuner.tune(*args)
            from repro.apps.analytical import true_minimum
            true_minimum(2.0)
            print(sorted(m for m in ("scipy.optimize",) if m in sys.modules))
        """)
        assert _run_fresh(code).splitlines()[-1] == "[]"

    def test_tuner_loads_only_what_it_runs(self):
        # a campaign without a linear performance model, a SuperLU or hypre
        # problem, or an HTTP history never imports what only those need
        code = "import sys\n" + textwrap.dedent(self.CAMPAIGNS["lockstep"]) + textwrap.dedent("""
            print(sorted(m for m in ("scipy.optimize", "scipy.sparse", "scipy.spatial",
                                     "repro.apps.superlu", "repro.apps.hypre",
                                     "repro.service.server", "repro.service.router",
                                     "http.server") if m in sys.modules))
        """)
        assert _run_fresh(code).splitlines()[-1] == "[]"


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()
