"""Smoke tests keeping the runnable examples green.

Only the fast examples run here (the full set is exercised manually /
in benchmarks); each must complete and print its headline lines.
"""

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def _run(name, capsys):
    path = os.path.abspath(os.path.join(EXAMPLES, name))
    assert os.path.exists(path), f"missing example {name}"
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run("quickstart.py", capsys)
        assert "y found" in out and "tuner time breakdown" in out

    def test_parallel_runtime(self, capsys):
        out = _run("parallel_runtime.py", capsys)
        assert "log-likelihood" in out
        assert "<- selected" in out
        assert "makespan" in out

    def test_history_reuse(self, capsys):
        out = _run("history_reuse.py", capsys)
        assert "run 1" in out and "run 2" in out
        assert "came from the archive" in out

    def test_crowd_tuning(self, capsys):
        out = _run("crowd_tuning.py", capsys)
        assert "user A archived" in out
        assert "user B raised the archive" in out
        assert "transferred config" in out

    def test_distributed_cholesky(self, capsys):
        out = _run("distributed_cholesky.py", capsys)
        assert "LCM covariance" in out and "p=4: simulated" in out
        assert "per-rank timeline" in out

    def test_all_examples_importable(self):
        """Every example compiles (catches syntax/import drift cheaply)."""
        import py_compile

        for fname in sorted(os.listdir(EXAMPLES)):
            if fname.endswith(".py"):
                py_compile.compile(os.path.join(EXAMPLES, fname), doraise=True)
