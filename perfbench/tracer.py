"""Spans and counts at the boundaries of lagnet's public functions.

The recorder wraps functions of the ``lagnet`` modules from outside: it
rebinds every module attribute that refers to a listed function, so calls
made through ``from .problem import kkt_residual`` are caught as well, and
it restores the originals on exit.  Nothing inside ``src/lagnet`` changes.

Each call into a listed function becomes one span ``(name, start, end,
parent, busy)``, kept in memory and written out when the run ends;
``busy`` is the time the calibration sampler (calib.py) took from inside
the span, which every duration excludes.  The
untraced benchmark run records only ``PHASES``, a handful of calls per
operation, which it needs to calibrate each section of an operation with
the matching reference kernel.  The traced run records ``LAYERS`` and
counts the calls of every agent's ``LocalProblem`` evaluators.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import sys
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

# (span name, module, attribute, reference kernel kind).  Phases are called
# a few times per operation; they split an operation's wall time into
# dense-algebra and interpreted sections.
PHASES = (
    ("harness.build_problem", "harness", "build_problem", "lapack"),
    ("oracle.solve_centralized", "oracle", "solve_centralized", "python"),
    ("oracle.lifted_multipliers", "oracle", "lifted_multipliers", "lapack"),
    ("solvers.run_first_order", "solvers", "run_first_order", "python"),
    ("multipliers.run_a3", "multipliers", "run_a3", "python"),
    ("harness.write_trace_csv", "harness", "write_trace_csv", "python"),
    ("analysis.find_cbar", "analysis", "find_cbar", "lapack"),
    ("analysis.certify_step_size", "analysis", "certify_step_size", "lapack"),
    ("analysis.rate_bound_mom", "analysis", "rate_bound_mom", "lapack"),
)

LAYERS = PHASES + (
    ("netgraph.build_incidence", "netgraph", "build_incidence", "python"),
    ("netgraph.nullspace_projector", "netgraph", "nullspace_projector", "lapack"),
    ("problem.lift_problem", "problem", "lift_problem", "lapack"),
    ("problem.kkt_residual", "problem", "kkt_residual", "python"),
    ("problem.eval_lifted_objective", "problem", "eval_lifted_objective", "python"),
    ("problem.hess_aug_lagrangian", "problem", "hess_aug_lagrangian", "python"),
    ("analysis.dist_to_multiplier_set", "analysis", "dist_to_multiplier_set", "python"),
    ("solvers.round", "solvers", "ArrayExecutor.round", "python"),
    ("solvers.build_agent_plans", "solvers", "build_agent_plans", "python"),
    ("multipliers.inner_minimize", "multipliers", "inner_minimize", "python"),
    ("multipliers.default_inner_alpha", "multipliers", "default_inner_alpha", "python"),
    ("multipliers.outer_step", "multipliers", "outer_step", "python"),
)

SOLVERS = ("solvers.run_first_order", "multipliers.run_a3")
EVALUATORS = ("f", "grad_f", "hess_f", "h", "grad_h", "hess_h")
STATUS_CONVERGED = "converged"
_NO_SAMPLER = SimpleNamespace(total_busy=0.0)


def _solver_outcome(name, result) -> dict:
    """Rounds and final iterate of a solver call.

    a1/a2 count one round per iteration; a3 counts its inner rounds plus
    one per outer multiplier update.
    """
    out = {"status": result.status, "x": result.state.x.copy(),
           "mu": result.state.mu.copy(), "inner_rounds": 0}
    if name == "solvers.run_first_order":
        out["rounds"] = int(result.iterations)
    else:
        rows = len(result.trace.k)
        updates = rows - 1 if result.status == STATUS_CONVERGED else rows
        out["inner_rounds"] = int(sum(int(v) for v in result.trace.inner_iters))
        out["rounds"] = out["inner_rounds"] + updates
    return out


class Recorder:
    """Installs span wrappers on lagnet functions for the life of a ``with``."""

    def __init__(self, layers=PHASES, count_evaluators: bool = False, sampler=None):
        self.layers = layers
        self.sampler = sampler if sampler is not None else _NO_SAMPLER
        self.kind = {name: kind for name, _, _, kind in layers}
        self.count_evaluators = count_evaluators
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # per-call facts the benchmark checks or reports
        self.solver_runs: list[dict] = []
        self.points: list = []
        self.csv_bytes = 0
        self.inner_converged = 0
        self.dense_lift_bytes = 0
        self.first_lift_args = None
        self.eval_calls: Counter = Counter()
        self.solver_eval_calls: Counter = Counter()
        self.eval_seconds = 0.0
        self._solver_mark: Counter | None = None

    # -- installation ------------------------------------------------------

    def __enter__(self):
        import lagnet  # noqa: F401  (loads every submodule)

        for name, module, attr, _ in self.layers:
            owner = importlib.import_module(f"lagnet.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue  # the function is gone; its metrics read 0
            wrapper = self._wrap(name, original)
            if path:
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "lagnet" and not mod_name.startswith("lagnet."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        rec = self
        spans, stack, sampler = self.spans, self._stack, self.sampler
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            args = rec._before(name, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            b0 = sampler.total_busy
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, sampler.total_busy - b0)
            rec._after(name, args, result)
            return result

        return wrapper

    def _before(self, name, args):
        if name in SOLVERS:
            self._solver_mark = Counter(self.eval_calls)
        elif name == "problem.lift_problem" and self.count_evaluators and args:
            if self.first_lift_args is None:
                self.first_lift_args = (tuple(args[0]), args[1])
            args = (tuple(self._counted_agent(a) for a in args[0]),) + tuple(args[1:])
        return args

    def _after(self, name, args, result):
        if name in SOLVERS:
            self.solver_runs.append(_solver_outcome(name, result))
            if self._solver_mark is not None:
                self.solver_eval_calls.update(self.eval_calls - self._solver_mark)
        elif name == "oracle.lifted_multipliers":
            self.points.append(result)
        elif name == "harness.write_trace_csv":
            self.csv_bytes += os.path.getsize(args[1])
        elif name == "multipliers.inner_minimize":
            self.inner_converged += bool(result[2])
        elif name == "problem.lift_problem":
            self.dense_lift_bytes = max(self.dense_lift_bytes, dense_lift_bytes(result))

    def _counted_agent(self, agent):
        changes = {}
        for kind in EVALUATORS:
            fn = getattr(agent, kind, None)
            if callable(fn):
                changes[kind] = self._counted(kind, fn)
        try:
            return dataclasses.replace(agent, **changes)
        except (TypeError, ValueError):
            return agent

    def _counted(self, kind, fn):
        rec, sampler = self, self.sampler
        clock = time.perf_counter

        def evaluator(x):
            b0 = sampler.total_busy
            t0 = clock()
            try:
                return fn(x)
            finally:
                rec.eval_seconds += clock() - t0 - (sampler.total_busy - b0)
                rec.eval_calls[kind] += 1

        return evaluator

    # -- results -----------------------------------------------------------

    def write_spans(self, path, origin: float) -> None:
        """Write every span as CSV: id, parent, name, start, end and the
        sampler's seconds inside it."""
        with open(path, "w", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s,sampler_s\n")
            for idx, (name, t0, t1, parent, busy) in enumerate(self.spans):
                fh.write(f"{idx},{parent},{name},{t0 - origin:.9f},{t1 - origin:.9f},"
                         f"{busy:.9f}\n")


def dense_lift_bytes(problem) -> int:
    """Bytes of the dense lifted matrices a LiftedProblem stores."""
    total = 0
    for owner, attr in ((problem, "S_lift"), (problem, "L_lift"), (problem, "J_lift"),
                        (getattr(problem, "projector", None), "J")):
        value = getattr(owner, attr, None)
        total += int(getattr(value, "nbytes", 0))
    return total


def lift_peak_bytes(agents, graph) -> int:
    """tracemalloc peak of one lift_problem call on the given inputs."""
    from lagnet import problem

    tracemalloc.start()
    try:
        problem.lift_problem(agents, graph)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def duration(span) -> float:
    """Seconds of a span, without the sampler's ticks inside it."""
    _, t0, t1, _, busy = span
    return t1 - t0 - busy


def calibrated_wall(spans, kind_of, sampler, whole: dict, wall: float) -> float:
    """Calibrated seconds of an operation of ``wall`` seconds.

    Each top-level span (no recorded parent) is calibrated with its kind's
    kernel as sampled during that span; the rest of ``wall`` is python,
    calibrated with ``whole``, the factors of the whole operation.
    """
    total, covered = 0.0, 0.0
    for span in spans:
        if span[3] != -1:
            continue
        seconds = duration(span)
        f = sampler.factors(span[1], span[2], fallback=whole)
        total += seconds * f[kind_of.get(span[0], "python")]
        covered += seconds
    return total + (wall - covered) * whole["python"]
