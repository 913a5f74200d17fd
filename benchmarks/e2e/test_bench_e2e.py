"""Smoke self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs every workload at tiny budgets, traced, then checks the output
format against ``BENCHMARK.json``, the trace's coverage of the campaign,
and that ``--compare`` of a result against itself finds no regression.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCH = os.path.join(HERE, "bench_e2e.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
E2E = {m["name"] for m in DECLARED["end_to_end"]}
LAYERS = {m["name"] for m in DECLARED["per_layer"]}


def _bench(*args):
    return subprocess.run([sys.executable, BENCH, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def _result_lines(stdout):
    return [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("e2e") / "traced.json")
    proc = _bench("--smoke", "--repeats", "2", "--trace", "1", "--out", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as fh:
        return out, _result_lines(proc.stdout), json.load(fh)["runs"]


def test_every_workload_ran_and_passed_its_checks(traced):
    _, lines, runs = traced
    assert [r["workload"] for r in runs] == [w["name"] for w in DECLARED["workloads"]]
    assert len(lines) == len(runs)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0


def test_printed_and_recorded_names_match_the_declaration(traced):
    _, lines, runs = traced
    for line in lines:
        assert set(line["metrics"]) == LAYERS
    for run in runs:
        assert set(run["metrics"]) == E2E
        assert set(run["layers"]) == LAYERS
    names = E2E | LAYERS | {w["name"] for w in DECLARED["workloads"]}
    assert all(NAME.fullmatch(n) for n in names)


def test_root_span_covers_the_campaign(traced):
    _, _, runs = traced
    for run in runs:
        for root, wall in zip(run["root_span_s"], run["traced_campaign_wall_s"]):
            assert abs(root - wall) <= 0.05 * wall


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("e2e") / "untraced.json")
    proc = _bench("--workload", "mla-lockstep", "--smoke", "--repeats", "2", "--out", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, json.loads(proc.stdout.splitlines()[-1])


def test_untraced_line_carries_every_end_to_end_metric(untraced):
    _, last = untraced
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == E2E
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_compare_against_itself_reports_no_regression(untraced):
    out, _ = untraced
    proc = _bench("--compare", out, "--", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "regressed" not in proc.stdout
    assert "unchanged" in proc.stdout
