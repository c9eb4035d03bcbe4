"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They run small versions of the workloads, so they take about half a
minute.  They check that each workload's output check rejects a wrong
result, that traced counts repeat exactly and are positive, that the
metric names agree with BENCHMARK.json, and that the command refuses to
run without the lagnet sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads

run.import_lagnet()

ROOT = Path(__file__).resolve().parent.parent
SMALL = {
    "nonconv3-a2": workloads.Nonconv3A2(ops_per_cycle=1),
    "mesh-a2": workloads.MeshA2(num_agents=24, chords=6, rounds=5, ops_per_cycle=1),
    "nonconv3-a3-sweep": workloads.Nonconv3A3Sweep(grid=(8.0,), sweeps_per_cycle=1),
}
A3_ONLY = {"multipliers.inner_solves", "multipliers.inner_rounds",
           "multipliers.inner_solves_converged"}


def execute_once(spec, tmp_path):
    samples = spec.prepare(7, tmp_path)
    with tracer.Recorder(tracer.PHASES) as rec:
        output = spec.execute(samples[0])
    return samples[0], output, rec


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_nonconv3_a2_check_rejects_wrong_results(tmp_path):
    spec = SMALL["nonconv3-a2"]
    sample, outcome, rec = execute_once(spec, tmp_path)
    runs, points = rec.solver_runs, rec.points
    assert spec.check(sample, outcome, runs, points) == [workloads.OK]

    moved = [dataclasses.replace(points[0], x=points[0].x + 1e-6)]
    assert spec.check(sample, outcome, runs, moved) == [workloads.WRONG]
    off = [dict(runs[0], x=runs[0]["x"] + 1e-5)]
    assert spec.check(sample, outcome, off, points) == [workloads.WRONG]
    diverged = dataclasses.replace(outcome, status="diverged")
    assert spec.check(sample, diverged, runs, points) == [workloads.FAILED]


def test_mesh_a2_check_rejects_wrong_results(tmp_path):
    spec = SMALL["mesh-a2"]
    sample, outcome, rec = execute_once(spec, tmp_path)
    points = rec.points
    assert spec.check(sample, outcome, rec.solver_runs, points) == [workloads.OK]

    moved = [dataclasses.replace(points[0], mu=points[0].mu + 1e-6)]
    assert spec.check(sample, outcome, rec.solver_runs, moved) == [workloads.WRONG]
    # a first round taken with another step no longer matches the trace
    other = dataclasses.replace(sample, extra=dict(sample.extra,
                                                   alpha=sample.extra["alpha"] * 1.001))
    assert spec.check(other, outcome, rec.solver_runs, points) == [workloads.WRONG]
    diverged = dataclasses.replace(outcome, status="diverged")
    assert spec.check(sample, diverged, rec.solver_runs, points) == [workloads.FAILED]


def test_sweep_check_rejects_wrong_results(tmp_path):
    spec = SMALL["nonconv3-a3-sweep"]
    sample, rows, rec = execute_once(spec, tmp_path)
    runs = rec.solver_runs
    assert spec.check(sample, rows, runs, rec.points) == [workloads.OK]

    off = [dict(runs[0], x=runs[0]["x"] + np.array([1e-7, 0.0]))]
    assert spec.check(sample, rows, off, rec.points) == [workloads.WRONG]
    diverged = [(rows[0][0], "diverged") + tuple(rows[0][2:])]
    assert spec.check(sample, diverged, runs, rec.points) == [workloads.FAILED]


@pytest.mark.parametrize("name", ["mesh-a2", "nonconv3-a3-sweep"])
def test_traced_counts_repeat_and_are_positive(name):
    counts = [name for name, unit in run.PER_LAYER_UNITS.items()
              if unit in ("count", "calls/round", "bytes")]
    results = [run.run(SMALL[name], seed=3, seconds=0, trace=True, setup_samples=1)
               for _ in range(2)]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    first, second = ({m: r["metrics"][m]["value"] for m in counts} for r in results)
    assert first == second
    expected_zero = A3_ONLY if name == "mesh-a2" else set()
    for metric, value in first.items():
        assert (value == 0) == (metric in expected_zero), metric


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nonconv3-a2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
