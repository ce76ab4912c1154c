"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import workloads

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(*args):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def test_declared_metrics_match_the_emitted_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_round_reports_every_metric_and_no_failure(workload):
    details, result = _run("--workload", workload, "--seed", "3", "--seconds", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and details["failed_frac"] == 0
    assert details["input_shares"]["ops"] == result["attempted"]


def test_traced_run_reports_every_layer_metric():
    details, result = _run("--workload", "curve-solve", "--seed", "3", "--trace", "1")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER_UNITS
    values = {k: v["value"] for k, v in result["metrics"].items()}
    graphs = len(workloads.CURVE_VERTICES) * run.TRACE_ROUNDS
    assert values["cli.main.calls"] == graphs * 3
    assert values["curves.green.calls"] == graphs
    assert values["toric.ToricPsh.calls"] == 0
    assert values["fractions.created"] > 0 and values["trace.overhead"] > 0
    assert result["failed"] == 0


def test_traced_passes_that_disagree_stop_the_run(tmp_path, monkeypatch):
    cli, harness = run.import_nama()
    plan = workloads.curve_solve(3, str(tmp_path))
    calls = iter(range(100))
    real = run.Tracer.counts
    monkeypatch.setattr(run.Tracer, "counts", lambda self, cases: {**real(self, cases), "x": next(calls)})
    with run.CaseClock(harness) as clock, pytest.raises(SystemExit):
        run.traced(cli, [plan[0][:3]], clock, tmp_path / "trace.jsonl")


def test_speed_clock_samples_while_work_runs_and_scales_by_the_median():
    with reference.SpeedClock(interval=0.02) as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        end = time.perf_counter()
    assert len(speed.cpu) >= 5 and 0 < speed.paused < end - start
    near = [
        cpu for at, cpu in zip(speed.at, speed.cpu)
        if start - reference.WINDOW_S <= at <= end + reference.WINDOW_S
    ]
    assert speed.factor(start, end) == reference.NOMINAL_S / statistics.median(near)


def _bump(value, by):
    return str(Fraction(value) + by) if isinstance(value, str) else value + float(by)


def _tamper(op, result):
    """Alter one number of a correct output so that it is wrong."""
    sol = result.get("solution")
    if op.cases:
        result["failures"].append({"seed": 1, "assertion": "tampered", "witness": {}})
    elif "t" in sol:
        sol["t"][0] = _bump(sol["t"][0], Fraction(1, 1000))
    elif "atoms" in sol:
        sol["atoms"][0]["weight"] = _bump(sol["atoms"][0]["weight"], Fraction(1, 7))
    elif "total_mass" in sol:
        sol["total_mass"] = _bump(sol["total_mass"], Fraction(1, 7))
    elif "values" in sol:
        sol["values"][-1] = _bump(sol["values"][-1], Fraction(1, 3))
    else:
        sol["energy"] = _bump(sol["energy"], Fraction(1, 3))
    return result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_a_tampered_output_counts_as_failed(workload, tmp_path):
    cli, harness = run.import_nama()
    plan = workloads.WORKLOADS[workload](5, str(tmp_path))
    picked = {}
    for op in plan[0]:
        # A one-site problem is solved by every t; suites other than the
        # graph suite only make the test slower.
        if op.tags.get("sites", 2) > 1 and op.tags.get("suite", "graph_suite") == "graph_suite":
            picked.setdefault(op.argv[0], op)
    with run.CaseClock(harness) as clock:
        for op in picked.values():
            assert run.run_op(cli, op, clock)[2] == 0, op.argv
            bad = dataclasses.replace(op, check=lambda res, op=op: op.check(_tamper(op, res)))
            assert run.run_op(cli, bad, clock)[2] == 1, op.argv
