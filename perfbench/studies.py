"""Reference studies behind the figures in README.md.

    python3 perfbench/studies.py kernels --seconds 60  # nominal kernel seconds
    python3 perfbench/studies.py spread --runs 10      # end-to-end quartiles
    python3 perfbench/studies.py overhead --runs 3     # traced runs and counts
    python3 perfbench/studies.py blas                  # certification, 1 vs 2 threads
    python3 perfbench/studies.py scaling               # per-layer figures over N

Each study prints a plain-text table; nothing here is run by the
benchmark itself.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nonconv3-a2", "mesh-a2", "nonconv3-a3-sweep")
MESH_SEED = 1


def spread(values):
    """Median and (q3 - q1) / median, quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def bench_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    extra = {}
    for line in proc.stderr.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in ("raw", "traced"):
            extra[f"{parts[0]} {parts[1]}"] = float(parts[2])
    return result, extra


def study_kernels(args):
    sys.path.insert(0, str(HERE))
    import run  # noqa: F401  (one BLAS thread, as in the benchmark)
    import calib

    samples = {kind: [] for kind in calib.KINDS}
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        for kind, kernel in calib.KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            samples[kind].append(time.perf_counter() - t0)
    for kind, values in samples.items():
        med, iqr = spread(values)
        print(f"{kind:7s} median {med:.6f} s  min {min(values):.6f}  max {max(values):.6f}"
              f"  spread {iqr:.3f}  ({len(values)} samples over {args.seconds} s)")


def study_spread(args):
    for workload in args.workloads:
        rows = {}
        for seed in range(1, args.runs + 1):
            result, extra = bench_run(workload, seed, args.seconds, 0)
            assert result["correct"] and result["failed"] == 0, result
            for name, metric in result["metrics"].items():
                rows.setdefault(name, []).append(metric["value"])
            for name, value in extra.items():
                rows.setdefault(name, []).append(value)
            print(f"# {workload} seed {seed}: " + json.dumps(
                {k: round(v[-1], 4) for k, v in rows.items()}), flush=True)
        for name, values in rows.items():
            med, iqr = spread(values)
            print(f"{workload:18s} {name:18s} median {med:12.5g}  spread {iqr:.3f}  "
                  f"min {min(values):.5g}  max {max(values):.5g}", flush=True)


def study_overhead(args):
    """Traced runs: their wall_s and rounds_per_s (to set against the
    untraced medians of `spread` on the same seeds) and their counts."""
    for workload in args.workloads:
        walls, rates = [], []
        for seed in range(1, args.runs + 1):
            result, extra = bench_run(workload, seed, args.seconds, 1)
            walls.append(extra["traced wall_s"])
            rates.append(extra["traced rounds_per_s"])
            if seed == 1:
                for name, metric in result["metrics"].items():
                    print(f"{workload:18s} seed 1 {name:40s} {metric['value']:.6g} "
                          f"{metric['unit']}", flush=True)
        print(f"{workload:18s} traced wall_s median {statistics.median(walls):.4f} s, "
              f"rounds_per_s median {statistics.median(rates):.5g} 1/s, "
              f"{args.runs} seeds", flush=True)


def blas_child(threads: int, reps: int):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import workloads
    from lagnet import analysis, harness, oracle

    spec = workloads.MeshA2()
    mesh = workloads.MeshProblem.generate(np.random.default_rng(MESH_SEED),
                                          spec.num_agents, spec.chords)
    bundle = harness.build_problem(mesh.config(0, {"mode": "zeros"}, 0.01, spec.c, 1))
    sol = oracle.solve_centralized(bundle.problem, x_init=bundle.oracle_init)
    point = oracle.lifted_multipliers(bundle.problem, sol)
    seconds = []
    for _ in range(reps):
        t0 = time.perf_counter()
        analysis.certify_step_size(bundle.problem, point, c=spec.c)
        seconds.append(time.perf_counter() - t0)
    print(json.dumps(seconds))


def study_blas(args):
    """Raw seconds of certify_step_size on the mesh-a2 problem.  Its few long
    LAPACK calls hold off the sampler's signal, and a sampled lapack kernel
    would itself run on the threads under test, so these are not
    calibrated; processes with one and two threads alternate instead."""
    for proc_index in range(args.runs):
        for threads in (1, 2):
            proc = subprocess.run(
                [sys.executable, __file__, "blas-child", str(threads)],
                capture_output=True, text=True, timeout=600, check=True)
            seconds = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"threads {threads} process {proc_index}: certification "
                  f"{min(seconds):.3f}-{max(seconds):.3f} s, median "
                  f"{statistics.median(seconds):.3f} s", flush=True)


def study_scaling(args):
    sys.path.insert(0, str(HERE))
    import run

    run.import_lagnet()
    import workloads

    shown = ("problem.lift_problem_s", "netgraph.nullspace_projector_s",
             "oracle.solve_centralized_s", "oracle.lifted_multipliers_s",
             "analysis.certify_step_size_s", "analysis.find_cbar_s",
             "harness.write_trace_csv_s", "problem.dense_lift_mb",
             "problem.lift_problem_peak_mb")
    print("N    " + "  ".join(shown) + "  round_s/round  kkt_residual_s/call")
    for n in args.agents:
        spec = workloads.MeshA2(num_agents=n, chords=n // 4, rounds=10, ops_per_cycle=1)
        result = run.run(spec, seed=MESH_SEED, seconds=0, trace=True, setup_samples=1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        per_round = m["solvers.round_s"] / m["solvers.rounds"]
        per_kkt = m["problem.kkt_residual_s"] / m["problem.kkt_residual_calls"]
        print(f"{n:<4d} " + "  ".join(f"{m[k]:.4g}" for k in shown)
              + f"  {per_round:.4g}  {per_kkt:.4g}", flush=True)


def main():
    if sys.argv[1:2] == ["blas-child"]:
        return blas_child(int(sys.argv[2]), reps=5)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("study", choices=("kernels", "spread", "overhead", "blas", "scaling"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--agents", nargs="+", type=int, default=[25, 50, 100, 200])
    args = parser.parse_args()
    globals()[f"study_{args.study}"](args)


if __name__ == "__main__":
    main()
