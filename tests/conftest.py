import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from lagnet import oracle
from lagnet.fixtures import get_fixture
from lagnet.netgraph import from_edges
from lagnet.problem import (
    Evaluation,
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_state,
    constraint_jacobian,
    evaluate,
    hess_aug_lagrangian,
    lift_problem,
    objective_total,
    polynomial_agent,
)
from lagnet.solvers import ArrayExecutor, FirstOrderConfig, TraceRecorder

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


def eval_lagrangian(p: LiftedProblem, state: MultiplierState) -> float:
    """L(x, mu, lam) = F(x) + mu'h(x) + lam'Sx."""
    check_state(p, state)
    Sx = p.incidence.S @ state.x
    ev = evaluate(p, state.x)
    value = objective_total(ev.f)
    if p.m:
        value += float(state.mu @ ev.h)
    return value + float(state.lam.ravel() @ Sx.ravel())


def eval_aug_lagrangian(p: LiftedProblem, state: MultiplierState, c: float) -> float:
    """L_c = L + (c/2)||h(x)||^2 + (c/2) x'Lx; c = 0 gives the plain value.
    The value whose x-derivatives the tests compare with
    ``grad_aug_lagrangian`` and ``hess_aug_lagrangian``."""
    if c < 0:
        raise ValueError("penalty parameter c must be >= 0")
    value = eval_lagrangian(p, state)
    if c == 0:
        return value
    penalty = float(state.x.ravel() @ (p.L @ state.x).ravel())
    if p.m:
        hv = evaluate(p, state.x).h
        penalty += float(hv @ hv)
    return value + 0.5 * c * penalty


def grad_aug_lagrangian(
    p: LiftedProblem, state: MultiplierState, c: float, ev: Evaluation | None = None
) -> np.ndarray:
    """Gradient in x of L_c, stacked shape (nN,).

    grad F + grad h mu + S'lam + c grad h h + c L x; ``ev`` is the
    evaluation at state.x when it is at hand.  The dense whole-vector form
    the executors' round kernels are checked against.
    """
    if c < 0:
        raise ValueError("penalty parameter c must be >= 0")
    check_state(p, state)
    ev = evaluate(p, state.x) if ev is None else ev
    return _grad_x(p, state.x, state.mu, state.lam, c, ev)


def _grad_x(p: LiftedProblem, x, mu, lam, c: float, ev: Evaluation) -> np.ndarray:
    """:func:`grad_aug_lagrangian` of shape-checked arrays.  The dense products
    fix its bits, and ``G @ mu`` turns 0 * inf into nan on a diverging row."""
    g = ev.grad_f.ravel() + (p.incidence.S.T @ lam).ravel()
    if p.m:
        g = g + constraint_jacobian(p, ev.grad_h) @ (mu + c * ev.h if c else mu)
    return g + c * (p.L @ x).ravel() if c else g


def _norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` bit for bit (numpy's formula for the
    flattened array) without its call overhead."""
    w = v.ravel(order="K")
    return math.sqrt(float(w.dot(w)))


def stacked_step(
    p: LiftedProblem, state: MultiplierState, config: FirstOrderConfig
) -> MultiplierState:
    """One a1/a2 round computed by whole-vector matrix algebra, apart from
    both executors: the independent reference the array executor is
    checked against (agreement to 1e-12 componentwise)."""
    check_state(p, state)
    alpha, c = config.alpha, config.c
    g = grad_aug_lagrangian(p, state, c)
    x_new = state.x.ravel() - alpha * g
    mu_new = state.mu + alpha * evaluate(p, state.x).h
    lam_new = state.lam + alpha * (p.incidence.S @ state.x)
    return MultiplierState(x=x_new.reshape(p.N, p.n), mu=mu_new, lam=lam_new)


def same_bits(a, b):
    """Bitwise equal, except that every NaN counts as the same NaN."""
    a, b = (np.where(np.isnan(v), np.nan, v) for v in np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    return np.shape(a) == np.shape(b) and a.tobytes() == b.tobytes()


def masked_table_call(polynomials, rows, n: int, x) -> np.ndarray:
    """Entry k of a :class:`lagnet.problem.PolynomialTable` by the evaluator
    it replaced: padding terms masked to +0.0 by ``np.where``, and the terms
    added one at a time in term order from ``np.zeros(K)``; a lone power
    (one entry with one term) is taken as the first of two equal ones.  The
    reference the maskless table pass is checked against bit for bit."""
    K = len(polynomials)
    T = max((len(terms) for terms in polynomials), default=0)
    coeffs, exps = np.zeros((K, T)), np.zeros((K, T, n), dtype=np.int64)
    keep = np.zeros((K, T), dtype=bool)
    for k, terms in enumerate(polynomials):
        for t, (coeff, exp) in enumerate(terms):
            coeffs[k, t], exps[k, t], keep[k, t] = coeff, exp, True
    base = np.asarray(x, dtype=float)[np.array(rows, dtype=np.int64)][:, None, :]
    if exps.size == 1:
        powers = (np.repeat(base, 2, axis=-1) ** np.repeat(exps, 2, axis=-1))[..., :1]
    else:
        powers = base ** exps
    prod = powers[..., 0]
    for l in range(1, n):
        prod = prod * powers[..., l]
    terms = np.where(keep, coeffs * prod, 0.0)
    out = np.zeros(K)
    for t in range(T):
        out = out + terms[:, t]
    return out


def sequential_sum(values) -> float:
    """Floats added one at a time from 0.0, the order in which
    ``problem.objective_total`` adds the agents' objectives (the builtin
    ``sum`` compensates float sums from Python 3.12 on)."""
    total = 0.0
    for value in values:
        total += float(value)
    return total


def add_at_row_sum(N: int, n: int, at, values) -> np.ndarray:
    """Row r of ``values`` (k, n) added into row ``at[r]`` of an (N, n) zero
    array by ``np.add.at``, in row order: the reference for the array
    executor's bincount scatter.  Where two NaNs meet, the two may keep
    different ones (bincount keeps the running sum's, as ``acc + value``
    does), so compare them with :func:`same_bits`."""
    out = np.zeros((N, n))
    with np.errstate(invalid="ignore"):
        np.add.at(out, np.asarray(at, dtype=int), values)
    return out


def above_zero_tol(value: float, B: np.ndarray, floor: float = 0.0) -> bool:
    """The certificates' zero test value > 1e-10 max(||B||_2, floor) with the
    spectral norm from a full SVD: the reference for
    ``analysis._above_zero_tol``."""
    return bool(value > 1e-10 * max(np.linalg.norm(B, 2), floor))


@dataclass(frozen=True)
class LiftedCone:
    """The second-order check done on the lifted problem with dense Kronecker
    lifts: ``basis`` is the unit lift
    1 (x) V / sqrt(N) of scipy's orthonormal Null(grad h(x*)'), ``dimension``
    the column count of scipy's Null([grad h, S (x) I_n']') and ``margin`` the
    least eigenvalue of the dense Z'H_0 Z (+inf on a zero cone)."""

    basis: np.ndarray
    dimension: int
    margin: float


def lifted_cone(p: LiftedProblem, x_star, mu_star) -> LiftedCone:
    """:class:`LiftedCone` at (x*, mu*): the reference for
    ``analysis.tangent_cone_basis`` and ``analysis.verify_minimizer``."""
    x_lift = np.tile(np.asarray(x_star, dtype=float), (p.N, 1))
    grad_h = [p.agents[i].values(x_lift[i])[3] for i in p.constrained_agents]
    V = scipy.linalg.null_space(np.array(grad_h), rcond=1e-10) if p.m else np.eye(p.n)
    Z = kron_lift(np.ones((p.N, 1)) / np.sqrt(p.N), p.n) @ V
    Gh = constraint_jacobian(p, evaluate(p, x_lift).grad_h)
    stacked = np.vstack([Gh.T, kron_lift(p.incidence.S, p.n)])
    dimension = scipy.linalg.null_space(stacked, rcond=1e-10).shape[1]
    state = MultiplierState(x_lift, np.asarray(mu_star, dtype=float),
                            np.zeros((p.num_pairs, p.n)))
    H0 = hess_aug_lagrangian(p, state, 0.0)
    margin = float(np.min(np.linalg.eigvalsh(Z.T @ H0 @ Z))) if Z.shape[1] else np.inf
    return LiftedCone(Z, dimension, margin)


def assert_cbar_crossing(p: LiftedProblem, point: StationaryPoint, c_bar: float) -> None:
    """c_bar is where hess L_c turns positive definite, by the least
    eigenvalue of the dense hess L_c: exactly 0.0 when hess L_0 (block
    diagonal) is positive definite, and otherwise a crossing, positive at
    c_bar (1 + 1e-7) and negative at c_bar (1 - 1e-7)."""
    state = point.as_state(p)

    def min_eig(c: float) -> float:
        return float(np.min(np.linalg.eigvalsh(hess_aug_lagrangian(p, state, c))))

    if min_eig(0.0) > 0:
        assert c_bar == 0.0
    else:
        assert min_eig(c_bar * (1 + 1e-7)) > 0 > min_eig(c_bar * (1 - 1e-7)), c_bar


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
    header = "k,agent,err_x,err_mu,dist_lambda,kkt_stat,kkt_h,kkt_cons,objective"
    lines = [header + (",c_k,eps_k,inner_iters" if trace.inner_iters is not None else "")]
    lines += [",".join(_fmt(v) for v in row) for row in trace_csv_rows(trace)]
    return ("\n".join(lines) + "\n").encode()


class CountedTable:
    """A compiled polynomial table that keeps a copy of every output, of a
    call and of a pass on a block row (``into``) alike."""

    def __init__(self, table):
        self.table, self.outputs = table, []

    def __getattr__(self, name):
        return getattr(self.table, name)

    def __call__(self, x):
        out = self.table(x)
        self.outputs.append(out.copy())
        return out

    def into(self, row, values, powers):
        self.table.into(row, values, powers)
        self.outputs.append(values.copy())


def counted_tables(p: LiftedProblem):
    """``p`` with every compiled table wrapped in a :class:`CountedTable`,
    and the wrappers by name."""
    tables = {name: CountedTable(table) for name, table in p.tables.items()}
    return replace(p, tables=tables), tables


def counted_passes(p: LiftedProblem, monkeypatch):
    """:func:`counted_tables`, and the array kernel (``ArrayExecutor._run``,
    which every round and descent runs) patched so that the stacked table's
    pass each step of the counted problem makes at row src also lands in
    ``outputs``: E[src], right after the kernel."""
    p, tables = counted_tables(p)
    stacked, kernel = tables["stacked"], ArrayExecutor._run

    def counted(executor, blk, src, *args):
        kernel(executor, blk, src, *args)
        if executor.p.tables["stacked"] is stacked:
            stacked.outputs.append(blk.E[src].copy())

    monkeypatch.setattr(ArrayExecutor, "_run", counted)
    return p, tables


def run_with_states(solve, *args, **kwargs):
    """``solve(*args, **kwargs)``, a ``run_first_order`` or ``run_a3`` call,
    and the state of each of its trace rows: ``TraceRecorder.record`` is
    wrapped to copy every row it records, and the copies are cut to the
    trace's length (an a1/a2 run records the rows it ran past its stop too)."""
    states, record = [], TraceRecorder.record

    def copying(recorder, k0, x, mu, lam, *rest, **options):
        states.extend(MultiplierState(*(v[b].copy() for v in (x, mu, lam))) for b in range(len(x)))
        return record(recorder, k0, x, mu, lam, *rest, **options)

    TraceRecorder.record = copying
    try:
        result = solve(*args, **kwargs)
    finally:
        TraceRecorder.record = record
    return result, states[:len(result.trace)]


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


@pytest.fixture(scope="session")
def two_constraints():
    """Two constraints (a circle at agent 0, a line at agent 2) on a 4-ring
    with s_ij != s_ji, in the plane, and the oracle's point."""
    agents = [
        polynomial_agent([[1.0, [2, 0]], [-2.0, [1, 0]], [1.0, [0, 2]]], 2,
                         [[1.0, [2, 0]], [1.0, [0, 2]], [-1.0, [0, 0]]]),
        polynomial_agent([[1.0, [2, 0]], [0.5, [0, 2]], [-1.0, [0, 1]]], 2),
        polynomial_agent([[0.5, [2, 0]], [1.0, [1, 0]], [1.0, [0, 2]]], 2,
                         [[1.0, [1, 0]], [-1.0, [0, 1]]]),
        polynomial_agent([[0.25, [4, 0]], [1.0, [0, 2]], [-0.5, [0, 1]]], 2),
    ]
    edges = [(0, 1, 1.0), (1, 0, 0.6), (1, 2, 1.3), (2, 1, 0.8), (2, 3, 0.9),
             (3, 2, 1.2), (3, 0, 0.7), (0, 3, 1.1)]
    p = lift_problem(agents, from_edges(4, edges, symmetric_weights=False))
    assert p.m == 2
    return p, oracle.lifted_multipliers(p, oracle.solve_centralized(p, seed=0))
