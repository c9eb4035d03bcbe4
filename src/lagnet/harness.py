"""Experiment runner: config validation, orchestration, artifact emission.

One YAML file fully specifies an experiment (problem, graph, algorithm,
initialization, seed); outputs are flat files — ``trace.csv``,
``summary.json``, optionally ``certificate.json`` — whose bytes are
deterministic for a fixed config and seed (the single exception is the
``wall_time_s`` entry of the summary).  A problem identity hash is
embedded in every artifact so traces and oracle outputs from different
problems cannot be mixed.
"""

from __future__ import annotations

import dataclasses
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


# Every config key path, once, with its type.  A solver setting (from
# "algorithm" on) sets the field of its name, or the one its (type, field)
# entry names, in FirstOrderConfig, MoMConfig or InnerSchedule, which own the
# defaults and range checks; settings of another algorithm are ignored.
CONFIG_KEYS = {
    "seed": int,
    "certify": bool,
    "problem": {"name": str, "custom": {"dim": int, "agents": list}},
    "graph": {"num_agents": int, "symmetric_weights": bool, "edges": list},
    "init": {"mode": str, "radius": float, "x": list, "mu": list, "lam": list},
    "algorithm": str,
    "alpha": float, "c": float, "max_iter": int, "tol": float,
    "c0": float, "beta": float, "c_max": float,
    "inner": {"alpha": (float, "inner_alpha"), "eps0": (float, "eps0"),
              "gamma": (float, "gamma"), "max_iter": (int, "inner_max_iter"),
              "schedule": {"a": (float, "a"), "b": (float, "b")}},
    "outer": {"max_iter": (int, "outer_max_iter")},
}


def key_paths(table: dict = CONFIG_KEYS, prefix: str = ""):
    """Yield ``(path, entry)`` for every key of the table, sections included."""
    for key, entry in table.items():
        yield prefix + key, entry
        if isinstance(entry, dict):
            yield from key_paths(entry, f"{prefix}{key}.")


_FIELD_PATH = {entry[1]: path for path, entry in key_paths() if isinstance(entry, tuple)}


def validate_config(raw, table: dict = CONFIG_KEYS, prefix: str = "") -> dict:
    """``{key path: value}`` for each key of a raw config, sections included;
    null counts as absent and an int as a float.  An unknown key or a wrong
    type raises :class:`ConfigError` naming its full path."""
    if not isinstance(raw, dict):
        raise ConfigError(prefix[:-1] or "<file>", "expected a mapping")
    out: dict = {}
    for key, value in raw.items():
        path = f"{prefix}{key}"
        if key not in table:
            raise ConfigError(path, "unknown key")
        entry = table[key]
        if value is None:
            continue
        if isinstance(entry, dict):
            out[path] = value
            out.update(validate_config(value, entry, path + "."))
            continue
        kind = entry[0] if isinstance(entry, tuple) else entry
        if kind is float and type(value) is int and abs(value) <= 1e308:
            value = float(value)
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
        out[path] = value
    return out


def _required(cfg: dict, path: str):
    if path not in cfg:
        raise ConfigError(path, "missing required key")
    return cfg[path]


def _seed(cfg: dict) -> int:
    seed = cfg.get("seed", 0)
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")
    return seed


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        raise ConfigError("<file>", f"not valid YAML: {err}") from err
    except OSError as err:
        raise ConfigError("<file>", f"cannot read: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("<file>", "top level must be a mapping")
    return cfg


# ---------------------------------------------------------------------------
# problem and graph assembly


def _graph_from_config(cfg: dict) -> GraphSpec | None:
    if "graph" not in cfg:
        return None
    num_agents = _required(cfg, "graph.num_agents")
    edges = []
    for idx, entry in enumerate(_required(cfg, "graph.edges")):
        i, j, w = entry if isinstance(entry, list) and len(entry) == 3 else (None,) * 3
        if not (type(i) is int and type(j) is int and type(w) in (int, float)
                and abs(w) <= 1e308):
            raise ConfigError(f"graph.edges[{idx}]", "expected [i, j, s_ij] with integer i, j")
        edges.append((i - 1, j - 1, float(w)))  # config is 1-based
    try:
        return from_edges(num_agents, edges, cfg.get("graph.symmetric_weights", True))
    except ValueError as err:
        raise ConfigError("graph.edges", str(err)) from err


@dataclass(frozen=True)
class ProblemBundle:
    problem: LiftedProblem
    name: str
    problem_hash: str
    oracle_init: np.ndarray


def problem_identity_hash(spec_dict: dict) -> str:
    blob = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_problem(cfg: dict) -> ProblemBundle:
    """Validate a raw config and build its problem."""
    return _build_problem(validate_config(cfg))


def _build_problem(cfg: dict) -> ProblemBundle:
    if ("problem.name" in cfg) == ("problem.custom" in cfg):
        raise ConfigError("problem", "give exactly one of problem.name and problem.custom")
    graph = _graph_from_config(cfg)
    if "problem.name" in cfg:
        name = cfg["problem.name"]
        if name not in FIXTURES:
            raise ConfigError("problem.name", f"unknown fixture {name!r}; "
                              f"available: {sorted(FIXTURES)}")
        fixture = get_fixture(name)
        problem, spec, oracle_init = fixture.problem, name, fixture.oracle_init
        if graph is not None:
            try:
                problem = lift_problem(problem.agents, graph)
            except ValueError as err:
                raise ConfigError("graph", str(err)) from err
    else:
        name, dim = "custom", _required(cfg, "problem.custom.dim")
        agents_raw = _required(cfg, "problem.custom.agents")
        if graph is None:
            raise ConfigError("graph", "custom problems require a graph section")
        agents = []
        for idx, entry in enumerate(agents_raw):
            path = f"problem.custom.agents[{idx}]"
            if not (isinstance(entry, dict) and set(entry) <= {"f", "h"}
                    and isinstance(entry.get("f"), list)
                    and isinstance(entry.get("h", []), (list, type(None)))):
                raise ConfigError(path, "expected {f: term list, h: optional term list}")
            try:
                agents.append(polynomial_agent(entry["f"], dim, h_terms=entry.get("h")))
            except ValueError as err:
                raise ConfigError(path, str(err)) from err
        try:
            problem = lift_problem(agents, graph)
        except ValueError as err:
            raise ConfigError("problem.custom", str(err)) from err
        spec = {"dim": dim, "agents": [{"f": e["f"], "h": e.get("h")} for e in agents_raw]}
        oracle_init = np.zeros(dim)
    spec_dict = {"problem": spec, "graph": {"num_agents": problem.graph.num_agents,
                                            "edges": sorted(problem.graph.directed_weights)}}
    return ProblemBundle(problem, name, problem_identity_hash(spec_dict), oracle_init)


# ---------------------------------------------------------------------------
# initialization


def _numbers(cfg: dict, path: str, shape: tuple) -> np.ndarray:
    """The list at ``path`` as a float array of ``shape``; zeros when absent."""
    try:
        return np.asarray(cfg.get(path, np.zeros(shape)), dtype=float).reshape(shape)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"expected a list of {int(np.prod(shape))} numbers") from None


def _initial_state(cfg: dict, p: LiftedProblem, point: StationaryPoint) -> MultiplierState:
    mode = cfg.get("init.mode", "oracle-perturb")
    if mode == "zeros":
        return p.zero_state()
    if mode == "explicit":
        _required(cfg, "init.x")
        return MultiplierState(
            x=_numbers(cfg, "init.x", (p.N, p.n)),
            mu=_numbers(cfg, "init.mu", (p.m,)),
            lam=_numbers(cfg, "init.lam", (p.num_pairs, p.n)),
        )
    if mode != "oracle-perturb":
        raise ConfigError("init.mode", f"unknown mode {mode!r}")
    radius = cfg.get("init.radius", 0.1)
    if not 0 <= 2 * radius < np.inf:  # the sampler needs a finite width
        raise ConfigError("init.radius", "must be finite and >= 0")
    rng = np.random.default_rng(_seed(cfg))
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


def _dataclass_from(cls, cfg: dict, **kwargs):
    """``cls(**kwargs)`` plus each other field whose config key is present."""
    for f in dataclasses.fields(cls):
        path = _FIELD_PATH.get(f.name, f.name)
        if f.name not in kwargs and path in cfg:
            kwargs[f.name] = cfg[path]
        elif f.name not in kwargs and f.default is dataclasses.MISSING:
            raise ConfigError(path, "missing required key")
    try:
        return cls(**kwargs)
    except solvers.SettingError as err:
        raise ConfigError(_FIELD_PATH.get(err.field, err.field), str(err)) from err


def _solver_settings(cfg: dict, init: MultiplierState):
    algorithm = _required(cfg, "algorithm")
    if algorithm in ("a1", "a2"):
        return _dataclass_from(solvers.FirstOrderConfig, cfg, init=init)
    if algorithm == "a3":
        schedule = (_dataclass_from(multipliers.InnerSchedule, cfg)
                    if "inner.schedule" in cfg else None)
        return _dataclass_from(multipliers.MoMConfig, cfg, init=init, inner_schedule=schedule)
    raise ConfigError("algorithm", f"unknown algorithm {algorithm!r}")


def _prepare(cfg: dict):
    """Problem, oracle point and solver settings of a validated config."""
    bundle = _build_problem(cfg)
    sol = oracle.solve_centralized(bundle.problem, x_init=bundle.oracle_init, seed=_seed(cfg))
    point = oracle.lifted_multipliers(bundle.problem, sol)
    init = _initial_state(cfg, bundle.problem, point)
    return bundle, point, _solver_settings(cfg, init)


def _certificate_dict(settings, bundle: ProblemBundle, point: StationaryPoint) -> dict:
    p = bundle.problem
    out: dict = {"problem_hash": bundle.problem_hash}
    if isinstance(settings, multipliers.MoMConfig):
        c_bar = analysis.find_cbar(p, point)
        cert = analysis.rate_bound_mom(p, point, settings.c_max)
        out.update(cert.to_json_dict())
        out["c_bar"] = c_bar
        return out
    c = settings.effective_c
    if settings.algorithm == "a2":
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


def certificate_report(cfg: dict) -> dict:
    """Spectral certificate of the run a raw config describes."""
    bundle, point, settings = _prepare(validate_config(cfg))
    return _certificate_dict(settings, bundle, point)


@dataclass
class ExperimentOutcome:
    status: str
    summary: dict
    out_dir: Path
    trace: solvers.Trace


def run_experiment(cfg: dict, out_dir) -> ExperimentOutcome:
    """Run one experiment from a raw config; write trace.csv and
    summary.json (and certificate.json when ``certify: true``).  Config
    errors are raised before the output directory is created."""
    t0 = time.perf_counter()
    cfg = validate_config(cfg)
    bundle, point, settings = _prepare(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = (solvers.run_first_order if isinstance(settings, solvers.FirstOrderConfig)
           else multipliers.run_a3)
    result = run(bundle.problem, settings, reference=point, problem_hash=bundle.problem_hash)
    trace = result.trace
    write_trace_csv(trace, out / "trace.csv")
    summary = {
        "problem": bundle.name,
        "problem_hash": bundle.problem_hash,
        "algorithm": cfg["algorithm"],
        "seed": _seed(cfg),
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
        } if len(trace) else None,  # a3 can diverge before its first row
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    write_json(summary, out / "summary.json")
    if cfg.get("certify", False):
        write_json(_certificate_dict(settings, bundle, point), out / "certificate.json")
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
    final_err_x = float(np.sqrt(err_x_sq[-1])) if len(trace) else np.nan
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
    validate_config(cfg)
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
    cfg = validate_config(cfg)
    bundle = _build_problem(cfg)
    report = check_gradients(bundle.problem, samples=samples, seed=_seed(cfg))
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
    cfg = validate_config(cfg)
    bundle = _build_problem(cfg)
    p = bundle.problem
    sol = oracle.solve_centralized(p, x_init=bundle.oracle_init, seed=_seed(cfg))
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
