"""Experiment runner: config validation, orchestration, artifact emission.

One YAML file fully specifies an experiment (problem, graph, algorithm,
initialization, seed); outputs are flat files — ``trace.csv``,
``summary.json``, optionally ``certificate.json`` — whose bytes are
deterministic for a fixed config and seed (the single exception is the
``wall_time_s`` entry of the summary).  A problem identity hash is
embedded in the summary, the certificate and the oracle and gradient
reports, so outputs of different problems can be told apart.
"""

from __future__ import annotations

import copy
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
from .netgraph import DisconnectedGraphError, GraphSpec, from_edges
from .problem import (
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_gradients,
    finite_number,
    lift_problem,
    polynomial_agent,
)

class ConfigError(ValueError):
    """Config problem, annotated with the offending key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config key '{path}': {message}")


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
        if kind is float and finite_number(value):
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


# libyaml's parser when it is built in; both loaders share the safe
# constructor and resolver, so they return the same mapping
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> dict:
    try:
        with open(path, "rb") as fh:  # undecodable bytes are a YAML ReaderError
            cfg = yaml.load(fh, Loader=_SAFE_LOADER)
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
    if num_agents < 1:
        raise ConfigError("graph.num_agents", "must be a positive integer")
    edges = []
    for idx, entry in enumerate(_required(cfg, "graph.edges")):
        i, j, w = entry if isinstance(entry, list) and len(entry) == 3 else (None,) * 3
        if not (type(i) is int and type(j) is int and finite_number(w)):
            raise ConfigError(f"graph.edges[{idx}]", "expected [int i, int j, finite s_ij]")
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
        if dim < 1:
            raise ConfigError("problem.custom.dim", "must be >= 1")
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
        except DisconnectedGraphError as err:
            raise ConfigError("graph", str(err)) from err
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
    """The list at ``path`` as a float array of ``shape``; zeros when absent.
    Each entry is a :func:`finite_number`, as a term's coefficient is (numpy
    alone would take "0.3", "nan" and a bool)."""
    try:
        entries = np.asarray(cfg.get(path, np.zeros(shape)), dtype=object).reshape(shape)
        if all(map(finite_number, entries.flat)):
            return entries.astype(float)
    except ValueError:
        pass
    raise ConfigError(path, f"expected a list of {int(np.prod(shape))} finite numbers")


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


def _column(values) -> list[str]:
    """The cells of one CSV column: ints by ``str``, floats by ``repr`` (+ 0.0 makes -0.0 0.0)."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return [str(v) for v in values.tolist()]
    return [repr(v) for v in (values + 0.0).tolist()]


# Lines of trace.csv formatted and written at a time; a chunk holds whole
# trace rows, so the writer's memory does not grow with the run's length.
TRACE_CHUNK_LINES = 1024


def write_trace_csv(trace, path) -> None:
    """The header of the trace columns (an a3 trace ends in c_k, eps_k and
    inner_iters), then one line per trace row and agent: k, agent, the
    agent's err_x, then the row's other fields, formatted by column and
    joined once per row.  Rows are written a chunk of about
    :data:`TRACE_CHUNK_LINES` lines at a time, and at least one row."""
    header = "k,agent,err_x,err_mu,dist_lambda,kkt_stat,kkt_h,kkt_cons,objective"
    shared = [trace.err_mu, trace.dist_lambda, *trace.kkt.T, trace.objective]
    if trace.inner_iters is not None:
        header += ",c_k,eps_k,inner_iters"
        shared += [trace.c, trace.eps, trace.inner_iters]
    num_agents = trace.err_x.shape[1]
    step = max(1, TRACE_CHUNK_LINES // num_agents)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(trace.k), step):
            chunk = slice(start, start + step)
            tails = map(",".join, zip(*(_column(column[chunk]) for column in shared)))
            err_x = _column(trace.err_x[chunk].ravel())
            fh.write("".join([f"{k},{a},{err_x[row * num_agents + a]},{tail}\n"
                              for row, (k, tail) in enumerate(zip(_column(trace.k[chunk]), tails))
                              for a in range(num_agents)]))


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
    """Problem, oracle point and initial state of a validated config."""
    bundle = _build_problem(cfg)
    sol = oracle.solve_centralized(bundle.problem, x_init=bundle.oracle_init, seed=_seed(cfg))
    point = oracle.lifted_multipliers(bundle.problem, sol)
    return bundle, point, _initial_state(cfg, bundle.problem, point)


def _certificate_dict(settings, bundle: ProblemBundle, point: StationaryPoint,
                      memo: dict | None = None) -> dict:
    """The run's certificate, or ``verdict: false`` and a ``reason`` when an
    :class:`analysis.AnalysisError` is raised (a huge penalty overflows quietly
    into a non-finite matrix, which is one).  ``memo`` keeps c_bar, the a3
    spectrum and every certificate (keyed by c_max or c) across a sweep."""
    memo = {} if memo is None else memo
    p = bundle.problem
    a3 = isinstance(settings, multipliers.MoMConfig)
    key = settings.c_max if a3 else settings.c
    if key not in memo:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if "c_bar" not in memo and a3:
                    memo["spectrum"] = analysis.mom_spectrum(p, point)
                    memo["c_bar"] = memo["spectrum"].c_bar
                elif "c_bar" not in memo and settings.algorithm == "a2":
                    memo["c_bar"] = analysis.find_cbar(p, point)
                cert = (analysis.rate_bound_mom(memo["spectrum"], key) if a3
                        else analysis.certify_step_size(p, point, c=key))
            memo[key] = cert.to_json_dict()
        except analysis.AnalysisError as err:
            failed = analysis.SpectralCertificate("N_c" if a3 else analysis.matrix_name(key),
                                                  getattr(err, "eigenvalues", []), False)
            memo[key] = {**failed.to_json_dict(), "reason": str(err)}
    out = {"problem_hash": bundle.problem_hash, **memo[key]}
    if "c_bar" in memo:
        out["c_bar"] = memo["c_bar"]
    return out


def certificate_report(cfg: dict) -> dict:
    """Spectral certificate of the run a raw config describes."""
    cfg = validate_config(cfg)
    bundle, point, init = _prepare(cfg)
    return _certificate_dict(_solver_settings(cfg, init), bundle, point)


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
    return _run(cfg, _prepare(cfg), out_dir, t0)


def _run(cfg: dict, prepared, out_dir, t0: float, memo: dict | None = None):
    """Solve a validated config from its :func:`_prepare` output and write
    the artifacts; ``memo`` is passed to :func:`_certificate_dict`."""
    bundle, point, init = prepared
    settings = _solver_settings(cfg, init)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = (solvers.run_first_order if isinstance(settings, solvers.FirstOrderConfig)
           else multipliers.run_a3)
    result = run(bundle.problem, settings, reference=point)
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
        write_json(_certificate_dict(settings, bundle, point, memo), out / "certificate.json")
    return ExperimentOutcome(status=result.status, summary=summary, out_dir=out, trace=trace)


# ---------------------------------------------------------------------------
# sweeps


SWEEP_HEADER = "parameter,status,final_err_x,contraction,r_squared"


def _set_parameter(cfg: dict, parameter: str, value: float) -> dict:
    new = copy.deepcopy(cfg)
    if parameter == "c" and cfg.get("algorithm") == "a3":
        # constant-penalty study: pin the whole schedule at the grid value
        new["c0"] = new["c_max"] = value
    else:
        new[parameter] = value
    return new


def _sweep_row(cfg: dict, value: float, prepared, row_dir: Path, memo: dict):
    outcome = _run(cfg, prepared, row_dir, time.perf_counter(), memo)
    trace = outcome.trace
    err_x_sq = np.sum(trace.err_x**2, axis=1)
    # distance to the attractor set; single components oscillate when the
    # dominant eigenvalues are complex
    joint = np.sqrt(err_x_sq + trace.err_mu**2 + trace.dist_lambda**2)
    final_err_x = float(np.sqrt(err_x_sq[-1])) if len(trace) else np.nan
    contraction, r2 = np.nan, np.nan
    try:
        fit = analysis.estimate_linear_rate(joint)
        contraction, r2 = fit.contraction, fit.r_squared
    except ValueError:
        pass
    return (value, outcome.status, final_err_x, contraction, r2)


# the algorithms that read each sweep parameter (c must be 0 under a1)
_READ_BY = {"alpha": ("a1", "a2"), "c": ("a1", "a2", "a3"), "c_max": ("a3",)}


def sweep(cfg: dict, parameter: str, grid, out_dir) -> list[tuple]:
    """One run per grid value of ``parameter``, in grid order; emits
    sweep.csv.  A parameter the algorithm never reads is rejected, and every
    row's solver settings are checked, before any row runs; the directory is
    made by the first row, so a config error leaves none behind.  The swept
    value changes neither the problem nor the oracle point, so the sweep
    solves the oracle once, finds c_bar once and certifies once per distinct
    certificate input."""
    if parameter not in _READ_BY:
        raise ConfigError("sweep", f"parameter must be alpha, c or c_max, got {parameter!r}")
    grid = list(grid)
    if not grid:
        raise ConfigError("sweep", "grid must not be empty")
    base = validate_config(cfg)
    algorithm = base.get("algorithm")  # an unknown one is reported below
    if algorithm in _READ_BY["c"] and algorithm not in _READ_BY[parameter]:
        raise ConfigError("sweep", f"{algorithm} never reads {parameter}, so every row is alike")
    rows = [validate_config(_set_parameter(cfg, parameter, value)) for value in grid]
    for row in rows:
        _solver_settings(row, init=None)
    prepared, memo = _prepare(base), {}
    out = Path(out_dir)
    results = [
        _sweep_row(row, value, prepared, out / "rows" / f"{idx:03d}", memo)
        for idx, (row, value) in enumerate(zip(rows, grid))
    ]
    cell = lambda value: _column([value])[0]
    with open(out / "sweep.csv", "w", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for value, status, err, rate, r2 in results:
            fh.write(",".join([cell(value), status, cell(err), cell(rate), cell(r2)]) + "\n")
    return results


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
    report = analysis.verify_minimizer(p, sol.x_star, sol.psi_star)
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
