#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

Measures the checkout this script sits in, end to end:

* ``python3 perfbench/run.py --trace 0`` for every workload of
  ``BENCHMARK.json`` at seeds 1-3, each run its ``run_seconds`` long; the
  file keeps the median of each end-to-end metric over the seeds,
  and the attempted and failed operation counts;
* ``lagnet run`` (``python -m lagnet.cli run``) on every ``configs/*.yaml``:
  the process wall time, best of 3.

* the tier-1 suite (``python -m pytest -q`` on ``tests/``): its test
  count and the process wall time;
* ``python -c "import lagnet.cli"``: the process wall time, best of 3,
  and ``dont_write_bytecode``, whether the processes it starts run with
  ``sys.flags.dont_write_bytecode`` set (each then compiles lagnet's
  source before it runs);
* ``certificate_scaling``: ``find_cbar``, ``verify_minimizer`` and
  ``certify_step_size`` on the generated a2 problem
  ``ring_chords_config(N, N // 4)`` of ``scripts/artifact_digests.py`` for
  N in {100, 200, 400}, best of 5 in one process with one BLAS thread.

It also writes two exact counts, which no machine noise moves:
``table_work``, the float powers and the terms of one pass over the
stacked polynomial table of every ``configs/*.yaml`` and of one over its
Hessian table (``hessian_powers``, ``hessian_terms``), and ``row_work``,
the two-stage row program that config iterates with (an a1/a2 round, or
an a3 descent at ``c_max``): the entries each stage's ``take`` gathers,
the inputs of each stage's bincount and the numpy calls of one round or
descent, its table pass included.  ``step_us`` holds the time of a step
(:func:`step_us`): microseconds per row of a full block of the loop's
size, best of 200, for a2 rounds on ``configs/nonconv3_a2.yaml`` (blocks of
``solvers.ROUND_BLOCK``, 128) and for a3 descents on tp-nonconv3 at c = 8
(``NONCONV3_A3`` of ``scripts/artifact_digests.py``; blocks of
``solvers.DESCENT_BLOCK``, 32), and ``block_us`` the per-block work beside
the kernel on the same two runs (:func:`block_us`): microseconds of one
128-row trace record (a2) and of one inner-solve block, its check included
(a3), best of 200.  ``round_us`` holds the whole a2 run of
``configs/nonconv3_a2.yaml`` (:func:`round_us`): microseconds per kept
round, its kernel, trace records and stop tests included, best of 20, with
the rounds kept and the ``TraceRecorder.record`` calls of the run
(:func:`record_calls`).
``trace_writer`` holds the ``trace.csv`` bytes of every ``configs/*.yaml``
run and of a synthetic trace of 20,000 rows and 3 agents, each with the
tracemalloc peak of ``write_trace_csv`` on it.  ``src_lines`` holds the
line count of each ``src/lagnet/*.py`` and their total as ``wc -l``
counts them, so that the size of the package stands next to its timings.  Last come the commit
(``git rev-parse HEAD``, with ``+dirty`` when the tree has changes) and
the Python and numpy versions.

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
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
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


# The functions below import lagnet when called: they run in a child process
# (see CALL) with the checkout's src on its path, and the tier-1 suite pins
# the counts by calling them itself.


def table_work(config) -> dict:
    """The float powers and terms of one pass over the stacked table of
    ``config`` and of one over its Hessian table."""
    from lagnet import harness

    tables = harness.build_problem(harness.load_config(config)).problem.tables
    stacked, hessian = tables["stacked"], tables["hessian"]
    return {"powers": stacked.pexp.size, "terms": stacked.coeffs.size,
            "hessian_powers": hessian.pexp.size, "hessian_terms": hessian.coeffs.size}


def row_program(config):
    """``config`` (a path or a mapping) as a mapping, whether it descends
    (a3) and the penalty of the row program it iterates with (an a3 run's
    ``c_max``)."""
    from lagnet import harness, multipliers

    raw = config if isinstance(config, dict) else harness.load_config(config)
    cfg = harness.validate_config(raw)
    descent = cfg["algorithm"] == "a3"
    return raw, descent, (cfg.get("c_max", multipliers.MoMConfig.c_max) if descent
                          else cfg.get("c", 0.0))


def row_work(config) -> dict:
    """The two-stage row program ``config`` (a path or a mapping) iterates
    with (:func:`row_program`): the entries each stage's ``take`` gathers,
    the inputs of each stage's bincount, and the numpy calls of one a1/a2
    round or a3 descent, table pass included (:func:`numpy_calls`), run as a
    one-row block."""
    from lagnet import harness, solvers

    raw, descent, c = row_program(config)
    p = harness.build_problem(raw).problem
    executor, blk = solvers.ArrayExecutor(p), solvers.StateBlock(p, 2)
    blk.put(0, p.zero_state())
    step = lambda: executor.advance(blk, 1, [np.array(0.1)], c, descent)  # a 0-d step, as blocks
    step()  # builds the program
    program = executor.programs[c]
    return {"program": "descent" if descent else "round", "c": c,
            "gather": [program.take1.size, program.take2.size],
            "scatter_inputs": [program.at1.size, program.at2.size],
            "calls": numpy_calls(step, executor, blk, program)}


def numpy_calls(step, *holders) -> int:
    """The numpy calls one ``step()`` makes (:func:`numpy_call_log`)."""
    return len(numpy_call_log(step, *holders))


def numpy_call_log(step, *holders) -> list:
    """The numpy calls one ``step()`` makes, in turn, each as the function
    (a ufunc, or a bound method such as ``np.add.reduce``) and its
    positional operands (a ufunc's without ``out``): numpy functions,
    ndarray methods, array operators and array assignments (``a[...] = b``,
    which copies), each call once, whatever it does inside; basic slicing
    is none.  Every array in the attributes of ``holders`` (in lists and
    tuples too) becomes a view of an ndarray subclass that logs each call it
    takes part in and hands on its results as such views.  ``step`` runs
    once on the views before the logged run, so that work it does once per
    new input is left out."""
    log = []
    methods = frozenset(name for name in dir(np.ndarray)
                        if not name.startswith("_") and callable(getattr(np.ndarray, name)))

    def plain(value):
        if isinstance(value, (list, tuple)):
            return type(value)(map(plain, value))
        return np.ndarray.view(value, np.ndarray) if isinstance(value, np.ndarray) else value

    def counted(value):
        if isinstance(value, (list, tuple)):
            items = list(map(counted, value))
            return value._make(items) if hasattr(value, "_make") else type(value)(items)
        return np.ndarray.view(value, Counted) if isinstance(value, np.ndarray) else value

    def call(function, args, kwargs):
        log.append((function, args))
        return counted(function(*plain(args), **{k: plain(v) for k, v in kwargs.items()}))

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            return call(ufunc if method == "__call__" else getattr(ufunc, method), inputs, kwargs)

        def __array_function__(self, func, types, args, kwargs):
            return call(func, args, kwargs)

        def __setitem__(self, key, value):
            call(np.ndarray.__setitem__, (self, key, value), {})

        def __getattribute__(self, name):
            if name not in methods:
                return super().__getattribute__(name)
            method = getattr(np.ndarray.view(self, np.ndarray), name)
            return lambda *args, **kwargs: call(method, args, kwargs)

    for holder in holders:
        for name, value in list(vars(holder).items()):
            object.__setattr__(holder, name, counted(value))
    step()
    log.clear()
    step()
    return log


STEP_SAMPLES = 200


def block_run(config):
    """The problem, oracle point and initial state of the run of ``config``
    (:func:`row_program`), its penalty, whether it descends, and the steps
    ``solvers.blocks`` hands a full block: the run's constant step, an a1/a2
    run's ``alpha`` or an a3 run's default inner step at that state, as one
    0-d array as many times as its loop's block has rows:
    ``solvers.ROUND_BLOCK`` (a1/a2) or ``solvers.DESCENT_BLOCK`` (a3)."""
    from lagnet import harness, multipliers, solvers

    raw, descent, c = row_program(config)
    cfg = harness.validate_config(raw)
    bundle, point, init = harness._prepare(cfg)
    p = bundle.problem
    alpha = multipliers.default_inner_alpha(p, init, c) if descent else cfg["alpha"]
    block = solvers.DESCENT_BLOCK if descent else solvers.ROUND_BLOCK
    return p, point, init, c, descent, [np.array(alpha, float)] * block


def best_us(run, before=lambda: None, samples=STEP_SAMPLES) -> float:
    """The least microseconds of ``run()`` over ``samples`` calls, each
    after an untimed ``before()``."""
    best = float("inf")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(samples):
            before()
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
    return best * 1e6


def step_us(config) -> float:
    """Microseconds per row of one full block of the array kernel
    (``ArrayExecutor.advance``) on the run of ``config`` (:func:`block_run`),
    best of ``STEP_SAMPLES`` blocks, each from the run's initial state with
    the steps ``solvers.blocks`` hands it."""
    from lagnet import solvers

    p, _, init, c, descent, steps = block_run(config)
    executor, blk = solvers.ArrayExecutor(p), solvers.StateBlock(p, len(steps) + 1)
    return best_us(lambda: executor.advance(blk, len(steps), steps, c, descent),
                   lambda: blk.put(0, init)) / len(steps)


INNER_BLOCKS = 50


def block_us(config) -> float:
    """Microseconds of the per-block work of the run of ``config``
    (:func:`block_run`) beside the kernel, best of ``STEP_SAMPLES``.  An
    a1/a2 run: one ``TraceRecorder.record`` of a full block of
    ``solvers.ROUND_BLOCK`` rows from the initial state.  An a3 run: an
    inner solve of ``INNER_BLOCKS`` full blocks, at eps = 0, whose kernel is
    a no-op on a block that a real one filled once, over its block count: a
    block is the solve's check of ``solvers.DESCENT_BLOCK`` descents and
    ``solvers.blocks``' own work, plus a fiftieth of the solve's work
    outside its blocks."""
    from lagnet import multipliers, solvers

    p, point, init, c, descent, steps = block_run(config)
    block = len(steps)
    blk = solvers.state_block(p, block + 1)
    blk.put(0, init)
    executor = solvers.make_executor(p, init, "arrays")
    with np.errstate(over="ignore", invalid="ignore"):
        executor.advance(blk, block, steps, c, descent)
    if not descent:
        recorder = solvers.TraceRecorder(p, point)
        return best_us(lambda: recorder.record(0, *blk.head(block)))
    executor.advance = lambda *args: None  # the kept executor's kernel, on this instance
    cfg = multipliers.MoMConfig(init=init, inner_alpha=float(steps[0]),
                                inner_max_iter=INNER_BLOCKS * block)
    solve = lambda: multipliers.inner_minimize(p, init.x, init.mu, init.lam, c, cfg, 0.0)
    return best_us(solve) / INNER_BLOCKS


def first_order_run(config):
    """The problem, the settings and the oracle point of the a1/a2 run of
    ``config``, as ``lagnet run`` makes them."""
    from lagnet import harness

    cfg = harness.validate_config(harness.load_config(config))
    bundle, point, init = harness._prepare(cfg)
    return bundle.problem, harness._solver_settings(cfg, init), point


ROUND_SAMPLES = 20


def round_us(config) -> dict:
    """Microseconds per kept round of a whole ``solvers.run_first_order`` of
    the a1/a2 run of ``config`` (:func:`first_order_run`), its kernel,
    trace records and stop tests included (not the CSV write), best of
    ``ROUND_SAMPLES`` runs; with the rounds kept and the run's
    ``TraceRecorder.record`` calls (:func:`record_calls`)."""
    from lagnet import solvers

    p, settings, point = first_order_run(config)
    run = lambda: solvers.run_first_order(p, settings, reference=point)
    kept = run().iterations
    return {"us_per_kept_round": best_us(run, samples=ROUND_SAMPLES) / kept,
            "kept_rounds": kept, "record_calls": record_calls(config)}


def record_calls(config) -> int:
    """The ``TraceRecorder.record`` calls, one per block of rounds, of one
    ``solvers.run_first_order`` of the a1/a2 run of ``config``."""
    from lagnet import solvers

    p, settings, point = first_order_run(config)
    calls, record = [], solvers.TraceRecorder.record

    def counted(*args, **kwargs):
        calls.append(1)
        return record(*args, **kwargs)

    solvers.TraceRecorder.record = counted
    try:
        solvers.run_first_order(p, settings, reference=point)
    finally:
        solvers.TraceRecorder.record = record
    return len(calls)


SYNTHETIC_ROWS = 20_000


def synthetic_trace(rows: int, agents: int = 3):
    """An a1/a2 trace of ``rows`` rows and ``agents`` agents whose float
    fields are uniform draws in [0, 1) (seed 0); at 20,000 rows and 3 agents
    its trace.csv has 8,541,365 bytes."""
    from lagnet.solvers import Trace

    rng = np.random.default_rng(0)
    return Trace(k=np.arange(rows), err_x=rng.random((rows, agents)), err_mu=rng.random(rows),
                 dist_lambda=rng.random(rows), kkt=rng.random((rows, 3)),
                 objective=rng.random(rows))


def writer_peak(trace, path) -> int:
    """The tracemalloc peak, in bytes, of ``harness.write_trace_csv(trace, path)``."""
    from lagnet import harness

    tracemalloc.start()
    try:
        harness.write_trace_csv(trace, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trace_writer() -> dict:
    """The ``trace.csv`` bytes and the tracemalloc peak of ``write_trace_csv``
    for the run of each ``configs/*.yaml`` and for the synthetic trace of
    ``SYNTHETIC_ROWS`` rows and 3 agents."""
    from lagnet import harness

    traces = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("*.yaml")):
            out = Path(tmp) / config.stem
            traces[config.name] = harness.run_experiment(harness.load_config(config), out).trace
        traces[f"synthetic_{SYNTHETIC_ROWS}x3"] = synthetic_trace(SYNTHETIC_ROWS)
        path = Path(tmp) / "trace.csv"
        return {name: {"peak_bytes": writer_peak(trace, path), "bytes": path.stat().st_size}
                for name, trace in traces.items()}


CALL = """
import json, sys
import bench_record
print(json.dumps(getattr(bench_record, sys.argv[1])(*sys.argv[2:])))
"""


CERTIFICATE_SCALING = """
import json, time
from artifact_digests import ring_chords_config
from lagnet import analysis, harness, oracle

def best(fn):
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)

out = {}
for N in (100, 200, 400):
    raw = ring_chords_config(N, N // 4)
    bundle = harness.build_problem(raw)
    p = bundle.problem
    sol = oracle.solve_centralized(p, x_init=bundle.oracle_init, seed=raw["seed"])
    point = oracle.lifted_multipliers(p, sol)
    out[N] = {"find_cbar_s": best(lambda: analysis.find_cbar(p, point)),
              "verify_minimizer_s":
                  best(lambda: analysis.verify_minimizer(p, sol.x_star, sol.psi_star)),
              "certify_step_size_s":
                  best(lambda: analysis.certify_step_size(p, point, c=raw["c"]))}
print(json.dumps(out))
"""


# a timing function of this module on the a2 run of configs/nonconv3_a2.yaml
# and on the a3 run NONCONV3_A3 at c = 8, under the two names given
KERNEL_TIMES = """
import json, sys
import bench_record
from artifact_digests import CONFIGS, NONCONV3_A3
time, a2, a3 = getattr(bench_record, sys.argv[1]), *sys.argv[2:]
print(json.dumps({a2: time(CONFIGS / "nonconv3_a2.yaml"), a3: time(NONCONV3_A3)}))
"""


def child_json(script: str, *args: str, **env_vars: str):
    """The JSON line ``script`` prints for ``args`` in a fresh process, with
    ``src`` and ``scripts`` on its path and ``env_vars`` set."""
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'scripts'}",
               **env_vars)
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def certificate_scaling() -> dict:
    """Best-of-5 seconds of ``find_cbar``, ``verify_minimizer`` and
    ``certify_step_size`` on ``ring_chords_config(N, N // 4)`` for N in
    {100, 200, 400}, in one process with one BLAS thread."""
    return child_json(CERTIFICATE_SCALING, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def tier1() -> dict:
    """Test count and process wall time of one tier-1 run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "tests"], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = out.stdout.splitlines()[-1]  # "388 passed in 33.25s"
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|skipped|errors?)",
                                                      summary)}
    return {"counts": counts, "wall_s": wall}


def import_s() -> float:
    """Best-of-3 wall time of a ``python -c "import lagnet.cli"`` process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    best = float("inf")
    for _ in range(CONFIG_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lagnet.cli"], env=env, check=True)
        best = min(best, time.perf_counter() - t0)
    return best


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
        "table_work": {path.name: child_json(CALL, "table_work", path) for path in configs},
        "row_work": {path.name: child_json(CALL, "row_work", path) for path in configs},
        "step_us": child_json(KERNEL_TIMES, "step_us", "a2_round_nonconv3_a2",
                              "a3_descent_nonconv3_c8"),
        "block_us": child_json(KERNEL_TIMES, "block_us", "a2_record_nonconv3_a2",
                               "a3_inner_block_nonconv3_c8"),
        "round_us": {"nonconv3_a2.yaml": child_json(CALL, "round_us",
                                                    ROOT / "configs" / "nonconv3_a2.yaml")},
        "trace_writer": child_json(CALL, "trace_writer"),
        "tier1": tier1(),
        "import_lagnet_cli_s": import_s(),
        "dont_write_bytecode": child_json(
            "import sys; print(int(sys.flags.dont_write_bytecode))") == 1,
        "certificate_scaling": certificate_scaling(),
        "src_lines": src_lines(),
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
