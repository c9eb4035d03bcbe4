"""lagnet benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nonconv3-a2 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (wall_s, setup_s,
rounds_per_s, peak_rss_mb); ``--trace 1`` is a separate traced run that
reports the per-layer metrics.  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.  The lagnet
sources are taken from ``src/`` next to this directory; without them the
command exits with code 2 and prints no result.  See README.md.
"""

import os

# One BLAS thread: OpenBLAS defaults to one per core, which on two cores
# makes dense certification slower and its timing far noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["LAGRANGE_NET_THREADS"] = "1"  # serial sweeps

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_SAMPLES = 5

# reference kernel of each set-up phase (see setup_probe.py)
SETUP_KINDS = {
    "interpreter": "python",
    "import": "python",
    "load_config": "python",
    "build_problem": "lapack",
    "solve_centralized": "python",
    "lifted_multipliers": "lapack",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB"}

# span names whose calibrated seconds per cycle are reported as <name>_s
TIMED_LAYERS = (
    "harness.build_problem", "harness.write_trace_csv",
    "netgraph.build_incidence", "netgraph.nullspace_projector",
    "problem.lift_problem", "problem.kkt_residual", "problem.eval_lifted_objective",
    "problem.hess_aug_lagrangian",
    "oracle.solve_centralized", "oracle.lifted_multipliers",
    "analysis.certify_step_size", "analysis.find_cbar", "analysis.rate_bound_mom",
    "analysis.dist_to_multiplier_set",
    "solvers.run_first_order", "solvers.round",
    "multipliers.run_a3", "multipliers.default_inner_alpha", "multipliers.outer_step",
)
# count metric -> span name whose calls per cycle it reports
CALL_COUNTS = {
    "problem.kkt_residual_calls": "problem.kkt_residual",
    "problem.eval_lifted_objective_calls": "problem.eval_lifted_objective",
    "problem.hess_aug_lagrangian_calls": "problem.hess_aug_lagrangian",
    "analysis.dist_to_multiplier_set_calls": "analysis.dist_to_multiplier_set",
    "solvers.agent_plan_builds": "solvers.build_agent_plans",
    "multipliers.inner_solves": "multipliers.inner_minimize",
}
PER_ROUND = ("grad_f", "f", "grad_h", "h")

PER_LAYER_UNITS = {
    "lagnet.import_s": "s",
    **{f"{name}_s": "s" for name in TIMED_LAYERS},
    **{name: "count" for name in CALL_COUNTS},
    **{f"problem.{kind}_per_round": "calls/round" for kind in PER_ROUND},
    "problem.evaluator_s": "s",
    "problem.lift_problem_peak_mb": "MB",
    "problem.dense_lift_mb": "MB",
    "harness.trace_csv_bytes": "bytes",
    "solvers.rounds": "count",
    "multipliers.inner_rounds": "count",
    "multipliers.inner_solves_converged": "count",
}


def import_lagnet():
    """Import lagnet from this checkout's src/, or exit 2."""
    if not (SRC / "lagnet" / "__init__.py").is_file():
        print(f"error: no lagnet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lagnet

    if SRC.resolve() not in Path(lagnet.__file__).resolve().parents:
        print(f"error: lagnet was imported from {lagnet.__file__}", file=sys.stderr)
        sys.exit(2)
    return lagnet


def setup_sample(config: Path, reference) -> tuple[dict, float, bool]:
    """One fresh-process set-up; returns calibrated phase seconds, raw total
    seconds, and whether the oracle matched the closed-form reference."""
    import numpy as np

    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config), repr(spawned)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    f = probe["factors"]
    phases = {name: raw * f[SETUP_KINDS[name]] for name, raw in probe["phases"].items()}
    x_ref, mu_ref = reference
    ok = bool(np.allclose(probe["x"], x_ref, rtol=0, atol=1e-9)
              and np.allclose(probe["mu"], mu_ref, rtol=0, atol=1e-9))
    return phases, sum(probe["phases"].values()), ok


def run(spec, seed: int, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES):
    """Measure one workload; returns the result object printed as JSON."""
    import calib
    import tracer
    import workloads

    workdir = OUT / f"{spec.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        samples = spec.prepare(seed, workdir)
        setups, setups_raw = [], []
        correct = True
        for _ in range(setup_samples):
            phases, raw, ok = setup_sample(samples[0].config,
                                           spec.setup_reference(samples[0]))
            setups.append(phases)
            setups_raw.append(raw)
            correct &= ok

        attempted = failed = cycles = 0
        walls, rates, walls_raw, rates_raw = [], [], [], []
        layer_s: Counter = Counter()
        layer_calls: Counter = Counter()
        evaluator_s = 0.0
        layers = tracer.LAYERS if trace else tracer.PHASES
        with calib.Sampler() as sampler, \
                tracer.Recorder(layers, count_evaluators=trace, sampler=sampler) as rec:
            origin = time.perf_counter()
            while True:
                cycle_start = time.perf_counter()
                for sample in samples:
                    mark, ev0 = len(rec.spans), rec.eval_seconds
                    runs0, points0 = len(rec.solver_runs), len(rec.points)
                    busy0 = sampler.total_busy
                    t0 = time.perf_counter()
                    try:
                        output = spec.execute(sample)
                    except Exception:
                        traceback.print_exc()
                        output = None
                    t1 = time.perf_counter()
                    wall = t1 - t0 - (sampler.total_busy - busy0)
                    f = sampler.factors(t0, t1)

                    runs = rec.solver_runs[runs0:]
                    verdicts = [workloads.FAILED] * sample.ops
                    if output is not None:
                        try:
                            verdicts = spec.check(sample, output, runs, rec.points[points0:])
                        except Exception:
                            traceback.print_exc()
                            verdicts = [workloads.WRONG] * sample.ops
                    attempted += sample.ops
                    failed += sum(v != workloads.OK for v in verdicts)
                    correct &= workloads.WRONG not in verdicts

                    spans = rec.spans[mark:]
                    solvers = [s for s in spans if s[0] in tracer.SOLVERS]
                    solver_raw = sum(tracer.duration(s) for s in solvers)
                    solver_s = sum(tracer.duration(s)
                                   * sampler.factors(s[1], s[2], fallback=f)["python"]
                                   for s in solvers)
                    if all(v == workloads.OK for v in verdicts):
                        walls.append(tracer.calibrated_wall(spans, rec.kind, sampler,
                                                            f, wall))
                        walls_raw.append(wall)
                        rounds = sum(r["rounds"] for r in runs)
                        rates.append(rounds / solver_s)
                        rates_raw.append(rounds / solver_raw)
                    if trace:
                        for span in spans:
                            layer_s[span[0]] += tracer.duration(span) * f[rec.kind[span[0]]]
                            layer_calls[span[0]] += 1
                        evaluator_s += (rec.eval_seconds - ev0) * f["python"]
                cycles += 1
                elapsed = time.perf_counter() - origin
                cycle = time.perf_counter() - cycle_start
                if elapsed + cycle > seconds:
                    break
        print(f"# {cycles} cycle(s), {attempted} operations, {failed} failed, "
              f"{elapsed:.1f} s measured", file=sys.stderr)

        def median(values):
            return statistics.median(values) if values else 0.0

        # uncalibrated medians, for the spread comparison in README.md
        print(f"raw wall_s {median(walls_raw)!r} s", file=sys.stderr)
        print(f"raw setup_s {median(setups_raw)!r} s", file=sys.stderr)
        print(f"raw rounds_per_s {median(rates_raw)!r} 1/s", file=sys.stderr)
        if not trace:
            metrics = {
                "wall_s": median(walls),
                "setup_s": median([sum(p.values()) for p in setups]),
                "rounds_per_s": median(rates),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        else:
            OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
            rec.write_spans(OUT / "spans" / f"{spec.name}-seed{seed}.csv", origin)
            solver_rounds = sum(r["rounds"] for r in rec.solver_runs)
            peak = tracer.lift_peak_bytes(*rec.first_lift_args) if rec.first_lift_args else 0
            metrics = {
                "lagnet.import_s": median([p["import"] for p in setups]),
                **{f"{name}_s": layer_s[name] / cycles for name in TIMED_LAYERS},
                **{m: layer_calls[name] / cycles for m, name in CALL_COUNTS.items()},
                **{f"problem.{kind}_per_round":
                   rec.solver_eval_calls[kind] / solver_rounds if solver_rounds else 0.0
                   for kind in PER_ROUND},
                "problem.evaluator_s": evaluator_s / cycles,
                "problem.lift_problem_peak_mb": peak / 2**20,
                "problem.dense_lift_mb": rec.dense_lift_bytes / 2**20,
                "harness.trace_csv_bytes": rec.csv_bytes / cycles,
                "solvers.rounds": solver_rounds / cycles,
                "multipliers.inner_rounds":
                    sum(r["inner_rounds"] for r in rec.solver_runs) / cycles,
                "multipliers.inner_solves_converged": rec.inner_converged / cycles,
            }
            units = PER_LAYER_UNITS
            print(f"traced wall_s {median(walls)!r} s", file=sys.stderr)
            print(f"traced rounds_per_s {median(rates)!r} 1/s", file=sys.stderr)
        return {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                        for name in units},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_lagnet()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
