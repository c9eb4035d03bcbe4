"""Experiment runner: config parsing, orchestration, artifact emission.

One YAML file fully specifies an experiment (problem, graph, algorithm,
initialization, seed); outputs are flat files — ``trace.csv``,
``summary.json``, optionally ``certificate.json`` — whose bytes are
deterministic for a fixed config and seed (the single exception is the
``wall_time_s`` entry of the summary).  A problem identity hash is
embedded in every artifact so traces and oracle outputs from different
problems cannot be mixed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import analysis, multipliers, oracle, solvers
from .fixtures import FIXTURES, get_fixture
from .netgraph import GraphSpec, from_edges
from .problem import (
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_gradients,
    lift_problem,
    polynomial_agent,
)

class ConfigError(ValueError):
    """Config problem, annotated with the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config key '{path}': {message}")


class HashMismatchError(ValueError):
    """Artifacts from different problems must not be mixed."""


_REQUIRED = object()


def _get(cfg: dict, path: str, kind, default=_REQUIRED):
    node = cfg
    parts = path.split(".")
    for part in parts[:-1]:
        node = node.get(part, {}) if isinstance(node, dict) else {}
    value = node.get(parts[-1], _REQUIRED) if isinstance(node, dict) else _REQUIRED
    if value is _REQUIRED or (value is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(path, "missing required key")
        return default
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        raise ConfigError("<file>", f"not valid YAML: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("<file>", "top level must be a mapping")
    return cfg


# ---------------------------------------------------------------------------
# problem and graph assembly


def _graph_from_config(cfg: dict) -> GraphSpec | None:
    if "graph" not in cfg:
        return None
    num_agents = _get(cfg, "graph.num_agents", int)
    edges_raw = _get(cfg, "graph.edges", list)
    symmetric = _get(cfg, "graph.symmetric_weights", bool, True)
    edges = []
    for idx, entry in enumerate(edges_raw):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ConfigError(f"graph.edges[{idx}]", "expected [i, j, s_ij]")
        i, j, w = entry
        edges.append((int(i) - 1, int(j) - 1, float(w)))  # config is 1-based
    try:
        return from_edges(num_agents, edges, symmetric_weights=symmetric)
    except ValueError as err:
        raise ConfigError("graph.edges", str(err)) from err


@dataclass(frozen=True)
class ProblemBundle:
    problem: LiftedProblem
    name: str
    problem_hash: str
    oracle_init: np.ndarray
    spec_dict: dict


def problem_identity_hash(spec_dict: dict) -> str:
    blob = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_problem(cfg: dict) -> ProblemBundle:
    problem_cfg = _get(cfg, "problem", dict)
    graph = _graph_from_config(cfg)
    if "name" in problem_cfg:
        name = _get(cfg, "problem.name", str)
        if name not in FIXTURES:
            raise ConfigError("problem.name", f"unknown fixture {name!r}; "
                              f"available: {sorted(FIXTURES)}")
        fixture = get_fixture(name)
        problem = fixture.problem
        if graph is not None:
            problem = lift_problem(problem.agents, graph)
        spec_dict = {
            "problem": name,
            "graph": {
                "num_agents": problem.graph.num_agents,
                "edges": sorted(problem.graph.directed_weights),
            },
        }
        return ProblemBundle(problem, name, problem_identity_hash(spec_dict),
                             fixture.oracle_init, spec_dict)
    if "custom" not in problem_cfg:
        raise ConfigError("problem", "give either problem.name or problem.custom")
    dim = _get(cfg, "problem.custom.dim", int)
    agents_raw = _get(cfg, "problem.custom.agents", list)
    if graph is None:
        raise ConfigError("graph", "custom problems require a graph section")
    agents = []
    for idx, entry in enumerate(agents_raw):
        if not isinstance(entry, dict) or "f" not in entry:
            raise ConfigError(f"problem.custom.agents[{idx}]",
                              "expected a mapping with an 'f' term list")
        try:
            agents.append(polynomial_agent(entry["f"], dim, h_terms=entry.get("h")))
        except ValueError as err:
            raise ConfigError(f"problem.custom.agents[{idx}]", str(err)) from err
    try:
        problem = lift_problem(agents, graph)
    except ValueError as err:
        raise ConfigError("problem.custom", str(err)) from err
    spec_dict = {
        "problem": {"dim": dim,
                    "agents": [{"f": e["f"], "h": e.get("h")} for e in agents_raw]},
        "graph": {"num_agents": graph.num_agents,
                  "edges": sorted(graph.directed_weights)},
    }
    return ProblemBundle(problem, "custom", problem_identity_hash(spec_dict),
                         np.zeros(dim), spec_dict)


# ---------------------------------------------------------------------------
# initialization


def build_initial_state(
    cfg: dict, p: LiftedProblem, point: StationaryPoint, seed: int
) -> MultiplierState:
    mode = _get(cfg, "init.mode", str, "oracle-perturb")
    if mode == "zeros":
        return p.zero_state()
    if mode == "explicit":
        x = np.asarray(_get(cfg, "init.x", list), dtype=float).reshape(p.N, p.n)
        mu = np.asarray(_get(cfg, "init.mu", list, [0.0] * p.m), dtype=float)
        lam = np.asarray(
            _get(cfg, "init.lam", list, [0.0] * (p.num_pairs * p.n)), dtype=float
        ).reshape(p.num_pairs, p.n)
        return MultiplierState(x=x, mu=mu, lam=lam)
    if mode != "oracle-perturb":
        raise ConfigError("init.mode", f"unknown mode {mode!r}")
    radius = _get(cfg, "init.radius", float, 0.1)
    rng = np.random.default_rng(seed)
    return MultiplierState(
        x=point.lifted_x(p.N) + rng.uniform(-radius, radius, (p.N, p.n)),
        mu=point.mu + rng.uniform(-radius, radius, p.m),
        lam=point.lam + rng.uniform(-radius, radius, (p.num_pairs, p.n)),
    )


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0 for stable formatting
    return repr(v)


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(trace.csv_header + "\n")
        for row in trace.csv_rows():
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(data: dict, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# runs


def _solver_settings(cfg: dict, p: LiftedProblem, init: MultiplierState):
    algorithm = _get(cfg, "algorithm", str)
    try:
        if algorithm in ("a1", "a2"):
            return solvers.FirstOrderConfig(
                algorithm=algorithm,
                alpha=_get(cfg, "alpha", float),
                c=_get(cfg, "c", float, 0.0),
                max_iter=_get(cfg, "max_iter", int, 10000),
                tol=_get(cfg, "tol", float, 1e-9),
                init=init,
            )
        if algorithm == "a3":
            schedule = None
            if isinstance(_get(cfg, "inner.schedule", dict, None), dict):
                schedule = multipliers.InnerSchedule(
                    a=_get(cfg, "inner.schedule.a", float),
                    b=_get(cfg, "inner.schedule.b", float),
                )
            return multipliers.MoMConfig(
                init=init,
                c0=_get(cfg, "c0", float, 1.0),
                beta=_get(cfg, "beta", float, 2.0),
                c_max=_get(cfg, "c_max", float, 16.0),
                inner_alpha=_get(cfg, "inner.alpha", float, None),
                inner_schedule=schedule,
                eps0=_get(cfg, "inner.eps0", float, 1e-2),
                gamma=_get(cfg, "inner.gamma", float, 0.5),
                inner_max_iter=_get(cfg, "inner.max_iter", int, 20000),
                outer_max_iter=_get(cfg, "outer.max_iter", int, 30),
                tol=_get(cfg, "tol", float, 1e-9),
            )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError("algorithm", str(err)) from err
    raise ConfigError("algorithm", f"unknown algorithm {algorithm!r}")


def _certificate_dict(cfg: dict, bundle: ProblemBundle, point: StationaryPoint) -> dict:
    algorithm = _get(cfg, "algorithm", str)
    p = bundle.problem
    out: dict = {"problem_hash": bundle.problem_hash}
    if algorithm == "a3":
        c_bar = analysis.find_cbar(p, point)
        cert = analysis.rate_bound_mom(p, point, _get(cfg, "c_max", float, 16.0))
        out.update(cert.to_json_dict())
        out["c_bar"] = c_bar
        return out
    c = _get(cfg, "c", float, 0.0) if algorithm == "a2" else 0.0
    if algorithm == "a2":
        out["c_bar"] = analysis.find_cbar(p, point)
    try:
        cert = analysis.certify_step_size(p, point, c=c)
        out.update(cert.to_json_dict())
    except analysis.CertificationError as err:
        eig = np.linalg.eigvals(analysis._quotient_matrix(p, point, c))
        out.update(
            {
                "matrix": "B" if c == 0 else "B_c",
                "eigenvalues": [[float(z.real), float(z.imag)] for z in eig],
                "verdict": False,
                "reason": str(err),
            }
        )
    return out


@dataclass
class ExperimentOutcome:
    status: str
    summary: dict
    out_dir: Path
    trace: solvers.Trace


def run_experiment(cfg: dict, out_dir) -> ExperimentOutcome:
    """Run one experiment from a parsed config; write trace.csv and
    summary.json (and certificate.json when ``certify: true``)."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = _get(cfg, "seed", int, 0)
    bundle = build_problem(cfg)
    p = bundle.problem
    sol = oracle.solve_centralized(p, x_init=bundle.oracle_init, seed=seed)
    point = oracle.lifted_multipliers(p, sol)
    init = build_initial_state(cfg, p, point, seed)
    settings = _solver_settings(cfg, p, init)
    run = (solvers.run_first_order if isinstance(settings, solvers.FirstOrderConfig)
           else multipliers.run_a3)
    result = run(p, settings, reference=point, problem_hash=bundle.problem_hash)
    trace = result.trace
    write_trace_csv(trace, out / "trace.csv")
    summary = {
        "problem": bundle.name,
        "problem_hash": bundle.problem_hash,
        "algorithm": _get(cfg, "algorithm", str),
        "seed": seed,
        "status": result.status,
        "iterations": int(result.iterations),
        "final": {
            "err_x_max": float(np.max(trace.err_x[-1])),
            "err_mu": float(trace.err_mu[-1]),
            "dist_lambda": float(trace.dist_lambda[-1]),
            "kkt_stationarity": float(trace.kkt[-1, 0]),
            "kkt_constraint": float(trace.kkt[-1, 1]),
            "kkt_consensus": float(trace.kkt[-1, 2]),
            "objective": float(trace.objective[-1]),
        },
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    write_json(summary, out / "summary.json")
    if _get(cfg, "certify", bool, False):
        write_json(_certificate_dict(cfg, bundle, point), out / "certificate.json")
    return ExperimentOutcome(status=result.status, summary=summary, out_dir=out, trace=trace)


# ---------------------------------------------------------------------------
# sweeps


SWEEP_HEADER = "parameter,status,final_err_x,contraction,r_squared"


def _set_parameter(cfg: dict, parameter: str, value: float) -> dict:
    new = json.loads(json.dumps(cfg))
    if parameter == "c" and cfg.get("algorithm") == "a3":
        # constant-penalty study: pin the whole schedule at the grid value
        new["c0"] = value
        new["c_max"] = value
    else:
        new[parameter] = value
    return new


def _sweep_row(cfg: dict, parameter: str, value: float, row_dir: Path):
    row_cfg = _set_parameter(cfg, parameter, value)
    outcome = run_experiment(row_cfg, row_dir)
    trace = outcome.trace
    err_x_sq = np.sum(trace.err_x**2, axis=1)
    # distance to the attractor set; single components oscillate when the
    # dominant eigenvalues are complex
    joint = np.sqrt(err_x_sq + trace.err_mu**2 + trace.dist_lambda**2)
    final_err_x = float(np.sqrt(err_x_sq[-1]))
    contraction, r2 = np.nan, np.nan
    try:
        fit = analysis.estimate_linear_rate(joint, tail_fraction=0.5)
        contraction, r2 = fit.contraction, fit.r_squared
    except ValueError:
        pass
    return (value, outcome.status, final_err_x, contraction, r2)


def sweep(cfg: dict, parameter: str, grid, out_dir) -> list[tuple]:
    """One run per grid value of ``parameter``, in grid order; emits
    sweep.csv."""
    if parameter not in ("alpha", "c", "c_max"):
        raise ConfigError("sweep", f"parameter must be alpha, c or c_max, got {parameter!r}")
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep", "grid must not be empty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [
        _sweep_row(cfg, parameter, value, out / "rows" / f"{idx:03d}")
        for idx, value in enumerate(grid)
    ]
    with open(out / "sweep.csv", "w", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for value, status, err, contraction, r2 in results:
            fh.write(
                ",".join([_fmt(value), status, _fmt(err), _fmt(contraction), _fmt(r2)])
                + "\n"
            )
    return results


# ---------------------------------------------------------------------------
# trace enrichment


def compare_to_oracle(trace, point: StationaryPoint, p: LiftedProblem, problem_hash: str):
    """Fill err_x / err_mu / dist_lambda columns of an in-memory trace from
    oracle values; refuses traces whose identity hash does not match."""
    if trace.problem_hash != problem_hash:
        raise HashMismatchError(
            f"trace hash {trace.problem_hash} != oracle hash {problem_hash}"
        )
    if trace.states is None:
        raise ValueError("trace must carry states (run with keep_states=True)")
    for row, state in enumerate(trace.states):
        trace.err_x[row], trace.err_mu[row], trace.dist_lambda[row] = (
            solvers.reference_errors(p, state, point)
        )
    return trace


def gradient_report(cfg: dict, samples: int = 10) -> dict:
    bundle = build_problem(cfg)
    report = check_gradients(bundle.problem, samples=samples,
                             seed=_get(cfg, "seed", int, 0))
    worst = report.worst()
    return {
        "problem": bundle.name,
        "problem_hash": bundle.problem_hash,
        "max_rel_error": report.max_rel_error,
        "worst_agent": worst.agent,
        "worst_kind": worst.kind,
        "samples": samples,
    }


def oracle_report(cfg: dict) -> dict:
    bundle = build_problem(cfg)
    p = bundle.problem
    sol = oracle.solve_centralized(p, x_init=bundle.oracle_init,
                                   seed=_get(cfg, "seed", int, 0))
    point = oracle.lifted_multipliers(p, sol)
    report = oracle.verify_minimizer(p, sol)
    return {
        "problem_hash": bundle.problem_hash,
        "x_star": [float(v) for v in sol.x_star],
        "psi_star": [float(v) for v in sol.psi_star],
        "mu_star": [float(v) for v in point.mu],
        "lambda_star": [float(v) for v in point.lam.ravel()],
        "kkt_residual": sol.kkt_residual_norm,
        "assumption2_sigma_min": report.assumption2_sigma_min
        if np.isfinite(report.assumption2_sigma_min)
        else None,
        "blockwise_pd": report.blockwise_pd,
        "tangent_cone_pd": report.tangent_cone_pd,
    }
