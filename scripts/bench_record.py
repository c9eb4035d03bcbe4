#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

Measures the checkout this script sits in, end to end:

* ``python3 perfbench/run.py --trace 0`` for every workload of
  ``BENCHMARK.json`` at seeds 1-3, each run its ``run_seconds`` long; the
  file keeps the median of each end-to-end metric over the seeds,
  and the attempted and failed operation counts;
* ``lagnet run`` (``python -m lagnet.cli run``) on every ``configs/*.yaml``:
  the process wall time, best of 3.

It also writes ``table_work``, the float powers and the terms of one pass
over the stacked polynomial table of every ``configs/*.yaml``: exact
counts, which no machine noise moves; ``src_lines``, the line count of
each ``src/lagnet/*.py`` and their total as ``wc -l`` counts them, so that
the size of the package stands next to its timings; the commit (``git
rev-parse HEAD``, with ``+dirty`` when the tree has changes); and the
Python and numpy versions.
Run it from any directory:

    python3 scripts/bench_record.py 16

writes ``BENCH_16.json`` at the root of the checkout.  Times are
wall-clock samples on the machine at hand; compare two files only when
they were measured on the same machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
SEEDS = (1, 2, 3)
CONFIG_SAMPLES = 3


def perfbench(workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one end-to-end perfbench run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def workload_medians(workload: str, seconds: float) -> dict:
    runs = [perfbench(workload, seed, seconds) for seed in SEEDS]
    names = runs[0]["metrics"]
    return {
        "seeds": list(SEEDS),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "median": {name: statistics.median(r["metrics"][name]["value"] for r in runs)
                   for name in names},
        "unit": {name: names[name]["unit"] for name in names},
    }


def config_process_s(config: Path) -> float:
    """Best-of-3 wall time of a ``lagnet run`` process on ``config``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    best = float("inf")
    for _ in range(CONFIG_SAMPLES):
        with tempfile.TemporaryDirectory() as out:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "lagnet.cli", "run", "--config", str(config),
                            "--out", out], env=env, check=True, capture_output=True)
            best = min(best, time.perf_counter() - t0)
    return best


TABLE_WORK = """
import json, sys
from lagnet import harness
table = harness.build_problem(harness.load_config(sys.argv[1])).problem.tables["stacked"]
print(json.dumps({"powers": table.pexp.size, "terms": table.coeffs.size}))
"""


def table_work(config: Path) -> dict:
    """Powers and terms of one pass over the stacked table of ``config``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", TABLE_WORK, str(config)], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def src_lines() -> dict:
    """Newline count of each ``src/lagnet/*.py`` by file name, and ``total``."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((ROOT / "src" / "lagnet").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def commit() -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()

    head = git("rev-parse", "HEAD") or "unknown"
    return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n", type=int, help="the number in BENCH_<n>.json")
    args = parser.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]
    configs = sorted((ROOT / "configs").glob("*.yaml"))
    record = {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "perfbench_seconds": seconds,
        "workloads": {name: workload_medians(name, seconds) for name in WORKLOADS},
        "lagnet_run_process_s": {path.name: config_process_s(path) for path in configs},
        "table_work": {path.name: table_work(path) for path in configs},
        "src_lines": src_lines(),
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
