"""The benchmark's workloads: inputs generated from a seed, the timed
operations, and output checks computed apart from lagnet.

One operation is one ``harness.run_experiment`` call or one row of a
``harness.sweep``.  A *sample* is the unit that is timed and calibrated:
one ``run_experiment`` call for the a2 workloads, one whole sweep for the
a3 workload.  A *cycle* is the fixed list of samples a run repeats; every
run attempts whole cycles, so counts per cycle repeat exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

OK, FAILED, WRONG = "ok", "failed", "wrong"

# tp-nonconv3, derived by hand from its definition:
#   f1 = (x1^4 + x2^4)/4, f2 = (x1-2)^2/2 + x2^2/2, f3 = (x1-2)^2/2 - 0.75 x2^2,
#   h1 = x1^2 + x2^2 - 1.  At x* = (1, 0) the objective is 0.25 + 0.5 + 0.5
#   = 1.25, grad sum f = (1 - 1 - 1, 0) = (-1, 0) and grad h = (2, 0), so
#   stationarity -1 + 2 psi = 0 gives psi* = 0.5.
NONCONV3_X = np.array([1.0, 0.0])
NONCONV3_MU = np.array([0.5])
NONCONV3_OBJECTIVE = 1.25


def op_seeds(seed: int, count: int) -> list[int]:
    """Per-operation seeds drawn from the run's seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, count)]


def write_yaml(cfg: dict, path: Path) -> Path:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return path


def read_trace(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def kkt_total(row: dict) -> float:
    return float(np.sqrt(row["kkt_stat"] ** 2 + row["kkt_h"] ** 2 + row["kkt_cons"] ** 2))


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


@dataclass
class Sample:
    """One timed unit: a config file and where its artifacts go."""

    config: Path
    out: Path
    ops: int = 1
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# nonconv3-a2


@dataclass
class Nonconv3A2:
    """tp-nonconv3 under a2 (c = 5.6 > c_bar ~ 3.70, alpha = 0.04), solved to
    KKT <= 1e-9 from one oracle-perturb seed per operation."""

    ops_per_cycle: int = 14
    name: str = "nonconv3-a2"

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "problem": {"name": "tp-nonconv3"},
            "algorithm": "a2",
            "alpha": 0.04,
            "c": 5.6,
            "max_iter": 50000,
            "tol": 1.0e-9,
            "init": {"mode": "oracle-perturb", "radius": 0.1},
            "certify": True,
        }

    def prepare(self, seed: int, workdir: Path) -> list[Sample]:
        samples = []
        for i, s in enumerate(op_seeds(seed, self.ops_per_cycle)):
            path = write_yaml(self.config(s), workdir / f"op{i:02d}.yaml")
            samples.append(Sample(path, workdir / f"op{i:02d}"))
        return samples

    def execute(self, sample: Sample) -> object:
        from lagnet import harness

        cfg = harness.load_config(sample.config)
        return harness.run_experiment(cfg, sample.out)

    def check(self, sample: Sample, outcome, solver_runs, points) -> list[str]:
        return [check_nonconv3_a2(outcome.status, outcome.summary, sample.out,
                                  solver_runs, points)]

    def setup_reference(self, sample: Sample):
        return NONCONV3_X, NONCONV3_MU


def check_nonconv3_a2(status, summary, out_dir, solver_runs, points) -> str:
    """Converged to KKT <= 1e-9 at the closed-form x* = (1, 0), mu* = 0.5."""
    if status == "diverged":
        return FAILED
    if status != "converged" or len(solver_runs) != 1 or len(points) != 1:
        return WRONG
    final = summary["final"]
    kkt = np.sqrt(final["kkt_stationarity"] ** 2 + final["kkt_constraint"] ** 2
                  + final["kkt_consensus"] ** 2)
    run = solver_runs[0]
    point = points[0]
    good = (
        kkt <= 1e-9
        and run["status"] == "converged"
        and _close(run["x"], NONCONV3_X, 1e-7)
        and _close(run["mu"], NONCONV3_MU, 1e-7)
        and abs(final["objective"] - NONCONV3_OBJECTIVE) <= 1e-8
        and _close(point.x, NONCONV3_X, 1e-9)
        and _close(point.mu, NONCONV3_MU, 1e-9)
        and all((Path(out_dir) / f).is_file()
                for f in ("trace.csv", "summary.json", "certificate.json"))
        and json.loads((Path(out_dir) / "certificate.json").read_text())["verdict"]
    )
    return OK if good else WRONG


# ---------------------------------------------------------------------------
# mesh-a2


@dataclass
class MeshProblem:
    """A generated quadratic-plus-affine problem on a ring with chords.

    f_i(x) = (a_i / 2) ||x - centre_i||^2 on every agent, one affine
    constraint g'x = b on agent 0.  Directed weights s_ij are drawn
    independently, so s_ij != s_ji.
    """

    num_agents: int
    weights: dict          # (i, j) -> s_ij, 0-based, both directions
    curvature: np.ndarray  # a_i, shape (N,)
    centres: np.ndarray    # shape (N, 2)
    g: np.ndarray          # constraint normal, shape (2,)
    b: float

    @classmethod
    def generate(cls, rng: np.random.Generator, num_agents: int, chords: int):
        N = num_agents
        undirected = {tuple(sorted((i, (i + 1) % N))) for i in range(N)}
        while len(undirected) < N + chords:
            i, j = sorted(int(v) for v in rng.choice(N, 2, replace=False))
            undirected.add((i, j))
        weights = {}
        for i, j in sorted(undirected):
            weights[(i, j)] = float(rng.uniform(0.5, 1.5))
            weights[(j, i)] = float(rng.uniform(0.5, 1.5))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        return cls(
            num_agents=N,
            weights=weights,
            curvature=rng.uniform(0.5, 2.0, N),
            centres=rng.uniform(-1.0, 1.0, (N, 2)),
            g=np.array([np.cos(angle), np.sin(angle)]),
            b=float(rng.uniform(-0.5, 0.5)),
        )

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """Directed pairs in lexicographic order, the order of lam's rows."""
        return sorted(self.weights)

    def incidence(self) -> np.ndarray:
        S = np.zeros((len(self.pairs), self.num_agents))
        for r, (i, j) in enumerate(self.pairs):
            S[r, i] = self.weights[(i, j)]
            S[r, j] = -self.weights[(i, j)]
        return S

    def solution(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form minimizer and multiplier of sum f_i s.t. g'x = b.

        Stationarity A x - sum a_i c_i + psi g = 0 with A = sum a_i gives
        x = xbar - psi g / A, and g'x = b fixes psi = A (g'xbar - b) / g'g.
        """
        A = float(self.curvature.sum())
        xbar = (self.curvature[:, None] * self.centres).sum(axis=0) / A
        psi = A * (self.g @ xbar - self.b) / (self.g @ self.g)
        return xbar - psi * self.g / A, np.array([psi])

    def config(self, seed: int, init: dict, alpha: float, c: float, rounds: int) -> dict:
        agents = []
        for a, (cx, cy) in zip(self.curvature, self.centres):
            a, cx, cy = float(a), float(cx), float(cy)
            agents.append({"f": [[0.5 * a, [2, 0]], [0.5 * a, [0, 2]], [-a * cx, [1, 0]],
                                 [-a * cy, [0, 1]], [0.5 * a * (cx * cx + cy * cy), [0, 0]]]})
        agents[0]["h"] = [[float(self.g[0]), [1, 0]], [float(self.g[1]), [0, 1]],
                          [-self.b, [0, 0]]]
        return {
            "seed": seed,
            "problem": {"custom": {"dim": 2, "agents": agents}},
            "graph": {
                "num_agents": self.num_agents,
                "symmetric_weights": False,
                "edges": [[i + 1, j + 1, w] for (i, j), w in sorted(self.weights.items())],
            },
            "algorithm": "a2",
            "alpha": alpha,
            "c": c,
            "max_iter": rounds,
            "tol": 1.0e-9,
            "init": init,
            "certify": True,
        }

    # -- the benchmark's own evaluation of the problem ----------------------

    def objective(self, x: np.ndarray) -> float:
        d = x - self.centres
        return float(0.5 * np.sum(self.curvature * np.sum(d * d, axis=1)))

    def a2_round(self, x, mu, lam, alpha: float, c: float):
        """One synchronous a2 round in whole-vector form.

        x+ = x - alpha (grad F + grad h (mu + c h) + S'lam + c L x),
        mu+ = mu + alpha h,  lam+ = lam + alpha S x,  with L = S'S.
        """
        S = self.incidence()
        h = float(self.g @ x[0] - self.b)
        grad = self.curvature[:, None] * (x - self.centres) + S.T @ lam + c * (S.T @ (S @ x))
        grad[0] += (mu[0] + c * h) * self.g
        return x - alpha * grad, mu + alpha * h, lam + alpha * (S @ x)

    def kkt(self, x, mu, lam) -> tuple[float, float, float]:
        S = self.incidence()
        stat = self.curvature[:, None] * (x - self.centres) + S.T @ lam
        stat[0] += mu[0] * self.g
        h = float(self.g @ x[0] - self.b)
        return float(np.linalg.norm(stat)), abs(h), float(np.linalg.norm(S @ x))


@dataclass
class MeshA2:
    """A generated mesh problem under a2 at 0.9x its certified step, run to a
    fixed round cap; one explicit initial state per operation."""

    num_agents: int = 160
    chords: int = 40
    rounds: int = 40
    c: float = 1.0
    ops_per_cycle: int = 4
    name: str = "mesh-a2"

    def prepare(self, seed: int, workdir: Path) -> list[Sample]:
        from lagnet import analysis, harness, oracle

        rng = np.random.default_rng(seed)
        mesh = MeshProblem.generate(rng, self.num_agents, self.chords)
        x_star, psi_star = mesh.solution()
        inits = []
        for _ in range(self.ops_per_cycle):
            inits.append({
                "x": x_star + rng.uniform(-0.1, 0.1, (self.num_agents, 2)),
                "mu": psi_star + rng.uniform(-0.1, 0.1, 1),
                "lam": rng.uniform(-0.1, 0.1, (len(mesh.pairs), 2)),
            })
        # The step is 0.9x the largest step lagnet certifies for this graph;
        # finding it is input preparation and is not timed.
        probe = mesh.config(seed, {"mode": "zeros"}, 1.0, self.c, self.rounds)
        bundle = harness.build_problem(probe)
        sol = oracle.solve_centralized(bundle.problem, x_init=bundle.oracle_init, seed=seed)
        point = oracle.lifted_multipliers(bundle.problem, sol)
        alpha_bound = analysis.certify_step_size(bundle.problem, point, c=self.c).alpha_bound
        alpha = 0.9 * alpha_bound
        samples = []
        for i, init in enumerate(inits):
            init_cfg = {"mode": "explicit",
                        "x": [float(v) for v in init["x"].ravel()],
                        "mu": [float(v) for v in init["mu"]],
                        "lam": [float(v) for v in init["lam"].ravel()]}
            cfg = mesh.config(seed, init_cfg, alpha, self.c, self.rounds)
            path = write_yaml(cfg, workdir / f"op{i:02d}.yaml")
            samples.append(Sample(path, workdir / f"op{i:02d}", extra={
                "mesh": mesh, "init": init, "alpha": alpha, "alpha_bound": alpha_bound}))
        return samples

    def execute(self, sample: Sample) -> object:
        from lagnet import harness

        cfg = harness.load_config(sample.config)
        return harness.run_experiment(cfg, sample.out)

    def check(self, sample: Sample, outcome, solver_runs, points) -> list[str]:
        return [check_mesh_a2(outcome.status, outcome.summary, sample.out, points,
                              sample.extra, self.c, self.rounds)]

    def setup_reference(self, sample: Sample):
        return sample.extra["mesh"].solution()


def check_mesh_a2(status, summary, out_dir, points, extra, c, rounds) -> str:
    """Oracle at the closed form, first round equal to the benchmark's own
    whole-vector round, KKT at the round cap below its starting value."""
    if status == "diverged":
        return FAILED
    if status != "iteration-cap" or summary["iterations"] != rounds or len(points) != 1:
        return WRONG
    mesh: MeshProblem = extra["mesh"]
    x_star, psi_star = mesh.solution()
    point = points[0]
    if not (_close(point.x, x_star, 1e-9) and _close(point.mu, psi_star, 1e-9)):
        return WRONG
    rows = read_trace(Path(out_dir) / "trace.csv")
    N = mesh.num_agents
    if len(rows) != (rounds + 1) * N:
        return WRONG
    init = extra["init"]
    x1, mu1, lam1 = mesh.a2_round(init["x"], init["mu"], init["lam"], extra["alpha"], c)
    # lam error is measured modulo Null(S'): project onto Range(S)
    S = mesh.incidence()
    d = lam1 - np.asarray(point.lam).reshape(lam1.shape)
    d_range = S @ np.linalg.lstsq(S, d, rcond=None)[0]
    stat, hval, cons = mesh.kkt(x1, mu1, lam1)
    expected = {
        "err_mu": float(np.linalg.norm(mu1 - point.mu)),
        "dist_lambda": float(np.linalg.norm(d_range)),
        "kkt_stat": stat, "kkt_h": hval, "kkt_cons": cons,
        "objective": mesh.objective(x1),
    }
    err_x = np.linalg.norm(x1 - point.x, axis=1)
    for agent, row in enumerate(rows[N : 2 * N]):
        if row["k"] != 1 or row["agent"] != agent:
            return WRONG
        values = dict(expected, err_x=err_x[agent])
        for key, value in values.items():
            if abs(row[key] - value) > 1e-12 * max(1.0, abs(value)):
                return WRONG
    if not kkt_total(rows[-1]) < kkt_total(rows[0]):
        return WRONG
    cert = json.loads((Path(out_dir) / "certificate.json").read_text())
    if not (cert["verdict"] and cert["alpha_bound"] == extra["alpha_bound"]):
        return WRONG
    return OK


# ---------------------------------------------------------------------------
# nonconv3-a3-sweep


@dataclass
class Nonconv3A3Sweep:
    """Serial sweep of tp-nonconv3 under a3 over constant penalties c, one
    oracle-perturb seed per sweep."""

    grid: tuple = (8.0, 10.0, 12.0)
    sweeps_per_cycle: int = 8
    name: str = "nonconv3-a3-sweep"

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "problem": {"name": "tp-nonconv3"},
            "algorithm": "a3",
            "c0": self.grid[0],
            "beta": 2.0,
            "c_max": self.grid[0],
            "inner": {"eps0": 1.0e-2, "gamma": 0.5, "max_iter": 20000},
            "outer": {"max_iter": 30},
            "tol": 1.0e-9,
            "init": {"mode": "oracle-perturb", "radius": 0.1},
            "certify": True,
        }

    def prepare(self, seed: int, workdir: Path) -> list[Sample]:
        samples = []
        for i, s in enumerate(op_seeds(seed, self.sweeps_per_cycle)):
            path = write_yaml(self.config(s), workdir / f"sweep{i:02d}.yaml")
            samples.append(Sample(path, workdir / f"sweep{i:02d}", ops=len(self.grid)))
        return samples

    def execute(self, sample: Sample) -> object:
        from lagnet import harness

        cfg = harness.load_config(sample.config)
        return harness.sweep(cfg, "c", list(self.grid), sample.out)

    def check(self, sample: Sample, rows, solver_runs, points) -> list[str]:
        return check_sweep(rows, solver_runs, sample.out, self.grid)

    def setup_reference(self, sample: Sample):
        return NONCONV3_X, NONCONV3_MU


def check_sweep(rows, solver_runs, out_dir, grid) -> list[str]:
    """Every row converged with final_err_x <= 1e-8 against x* = (1, 0)."""
    verdicts = []
    csv_path = Path(out_dir) / "sweep.csv"
    written = csv_path.read_text().splitlines() if csv_path.is_file() else []
    for idx, value in enumerate(grid):
        if idx >= len(rows) or idx >= len(solver_runs):
            verdicts.append(WRONG)
            continue
        param, status, final_err_x = rows[idx][:3]
        run = solver_runs[idx]
        own_err = float(np.linalg.norm(run["x"] - NONCONV3_X))
        if status == "diverged":
            verdicts.append(FAILED)
        elif (status == "converged" and param == value and own_err <= 1e-8
              and abs(final_err_x - own_err) <= 1e-9
              and len(written) == len(grid) + 1
              and written[idx + 1].split(",")[1] == status):
            verdicts.append(OK)
        else:
            verdicts.append(WRONG)
    return verdicts


WORKLOADS = {w.name: w for w in (Nonconv3A2(), MeshA2(), Nonconv3A3Sweep())}
