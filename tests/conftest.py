from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from lagnet import oracle
from lagnet.fixtures import get_fixture
from lagnet.problem import (
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_state,
    constraint_values,
    grad_aug_lagrangian,
)
from lagnet.solvers import FirstOrderConfig

# every property test draws the same examples on every run; a test's own
# @settings sets only its max_examples
settings.register_profile("lagnet", derandomize=True, deadline=None)
settings.load_profile("lagnet")


def kron_lift(A, n: int) -> np.ndarray:
    """Kronecker lift A (x) I_n: the dense form of A acting on agent-major arrays."""
    return np.kron(np.asarray(A, dtype=float), np.eye(n))


@dataclass(frozen=True)
class DenseForms:
    """Dense graph algebra of a lifted problem, built apart from the package
    as an independent reference: J projects onto Null(S') (from scipy's
    ``null_space``), and S_lift and J_lift are the lifts of S and J."""

    J: np.ndarray
    S_lift: np.ndarray
    J_lift: np.ndarray


def dense_forms(p: LiftedProblem) -> DenseForms:
    U = scipy.linalg.null_space(p.incidence.S.T, rcond=1e-10)
    J = U @ U.T
    return DenseForms(J, kron_lift(p.incidence.S, p.n), kron_lift(J, p.n))


def stacked_step(
    p: LiftedProblem, state: MultiplierState, config: FirstOrderConfig
) -> MultiplierState:
    """One a1/a2 round computed by whole-vector matrix algebra, apart from
    both executors: the independent reference the array executor is
    checked against (agreement to 1e-12 componentwise)."""
    check_state(p, state)
    alpha, c = config.alpha, config.effective_c
    g = grad_aug_lagrangian(p, state, c)
    x_new = state.x.ravel() - alpha * g
    mu_new = state.mu + alpha * constraint_values(p, state.x)
    lam_new = state.lam + alpha * (p.incidence.S @ state.x)
    return MultiplierState(x=x_new.reshape(p.N, p.n), mu=mu_new, lam=lam_new)


def _fmt(value) -> str:
    """One CSV field: an integer as an int, anything else as repr(float),
    with -0.0 written as 0.0."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if v == 0.0:
        v = 0.0
    return repr(v)


def trace_csv_rows(trace):
    """The fields of every trace.csv line after the header, row by row and
    agent by agent."""
    num_agents = trace.err_x.shape[1]
    for row in range(len(trace.k)):
        outer = ()
        if trace.inner_iters is not None:
            outer = (trace.c[row], trace.eps[row], int(trace.inner_iters[row]))
        for agent in range(num_agents):
            yield (
                int(trace.k[row]),
                agent,
                trace.err_x[row, agent],
                trace.err_mu[row],
                trace.dist_lambda[row],
                trace.kkt[row, 0],
                trace.kkt[row, 1],
                trace.kkt[row, 2],
                trace.objective[row],
            ) + outer


def reference_trace_csv(trace) -> bytes:
    """trace.csv written field by field, apart from the package's column
    writer: the independent reference ``harness.write_trace_csv`` is checked
    against (same bytes)."""
    lines = [trace.csv_header]
    lines += [",".join(_fmt(v) for v in row) for row in trace_csv_rows(trace)]
    return ("\n".join(lines) + "\n").encode()


class CountedTable:
    """A compiled polynomial table that keeps a copy of every output."""

    def __init__(self, table):
        self.table, self.outputs = table, []

    def __call__(self, x):
        out = self.table(x)
        self.outputs.append(out.copy())
        return out


def counted_tables(p: LiftedProblem):
    """``p`` with every compiled table wrapped in a :class:`CountedTable`,
    and the wrappers by name."""
    tables = {name: CountedTable(table) for name, table in p.tables.items()}
    return replace(p, tables=tables), tables


@dataclass(frozen=True)
class Solved:
    name: str
    problem: LiftedProblem
    solution: oracle.OracleSolution
    point: StationaryPoint
    oracle_init: object


def _solve(name: str) -> Solved:
    fx = get_fixture(name)
    sol = oracle.solve_centralized(fx.problem, x_init=fx.oracle_init, seed=0)
    point = oracle.lifted_multipliers(fx.problem, sol)
    return Solved(name, fx.problem, sol, point, fx.oracle_init)


@pytest.fixture(scope="session")
def path2() -> Solved:
    return _solve("tp-path2")


@pytest.fixture(scope="session")
def affine2() -> Solved:
    return _solve("tp-affine2")


@pytest.fixture(scope="session")
def nonconv3() -> Solved:
    return _solve("tp-nonconv3")


@pytest.fixture(scope="session")
def all_solved(path2, affine2, nonconv3):
    return (path2, affine2, nonconv3)
