"""Tests for the command-line interface (repro.cli)."""

import json
import os
import subprocess
import sys

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
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
