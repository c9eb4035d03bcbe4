"""Independent references the tests judge the package by, kept apart from
the code they check: the full linearized iteration matrix B, rebuilt from
the certificate's quotient matrix with its J / alpha block, its spectral
radius off the neutral eigenspace, the finite-difference Jacobian of the
iteration (the arbiter for B's block layout), the least-squares
multipliers, the implicit minimizer x(eta, c) by Newton's method, the
a1/a2 loop that checks and records every iterate on its own before it
takes the next round, with its own distance to the multiplier set, and
the a3 inner solve that tests every descent before it takes the next.
Both loops take their steps with ``one_round`` and ``one_descent``: an
executor's own kernel, run on a one-row block of a two-row StateBlock."""

import math
from dataclasses import astuple, dataclass

import numpy as np
import scipy.linalg
from conftest import _grad_x, _norm, above_zero_tol, dense_forms, grad_aug_lagrangian, kron_lift

from lagnet.analysis import _quotient_matrix
from lagnet.multipliers import InnerDivergenceError, MoMConfig, default_inner_alpha
from lagnet.problem import (
    KKTResidual,
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    central_difference_jacobian,
    check_state,
    constraint_jacobian,
    evaluate,
    hess_aug_lagrangian,
    objective_total,
)
from lagnet.solvers import (
    DIVERGENCE_NORM,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_ITERATION_CAP,
    ArrayExecutor,
    FirstOrderConfig,
    RunResult,
    StateBlock,
    Trace,
    make_executor,
)


@dataclass(frozen=True)
class IterationMatrix:
    """The full B (or B_c) at a stationary point, its eigenvalues, and the
    verdict min Re eig > 1e-10 ||B||_2."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    verdict: bool


def iteration_matrix(
    p: LiftedProblem, point: StationaryPoint, alpha: float, c: float = 0.0
) -> IterationMatrix:
    """B = Q Bq Q' + blockdiag(0, 0, (J (x) I_n) / alpha) with
    Q = blockdiag(I, R (x) I_n): the certificate's quotient matrix Bq
    (``analysis._quotient_matrix``, which rejects a point that is not
    stationary) mapped back, and J from scipy's Null(S')."""
    Bq = _quotient_matrix(p, point, c)
    nx = p.N * p.n + p.m
    Q = scipy.linalg.block_diag(np.eye(nx), kron_lift(p.range_basis.R, p.n))
    B = Q @ Bq @ Q.T
    B[nx:, nx:] += dense_forms(p).J_lift / alpha
    eig = np.linalg.eigvals(B)
    return IterationMatrix(B, eig, above_zero_tol(np.min(eig.real), B, 0.0))


def contraction_factor(
    p: LiftedProblem, point: StationaryPoint, alpha: float, c: float = 0.0
) -> float:
    """Spectral radius of I - alpha B restricted to the complement of the
    neutral (0, 0, Null(S')) eigenspace."""
    Bq = _quotient_matrix(p, point, c)
    return float(np.max(np.abs(np.linalg.eigvals(np.eye(Bq.shape[0]) - alpha * Bq))))


# ---------------------------------------------------------------------------
# one round or descent of an executor


def _from_row_0(executor, state: MultiplierState) -> StateBlock:
    blk = StateBlock(executor.p, 2)
    blk.put(0, state)
    return blk


def one_round(executor, state: MultiplierState, alpha: float, c: float = 0.0):
    """The state after one a1/a2 round from ``state`` (c = 0 is a1): the
    executor's one-row block (``advance``) from row 0 of a two-row
    StateBlock."""
    blk = _from_row_0(executor, state)
    executor.advance(blk, 1, [alpha], c, False)
    return blk.state(1)


def one_descent(executor, state: MultiplierState, step: float, c: float):
    """The state and the gradient rows of one a3 descent from ``state``:
    the executor's one-row block of descents."""
    blk = _from_row_0(executor, state)
    executor.advance(blk, 1, [step], c, True)
    return blk.state(1), blk.g[0].copy()


# ---------------------------------------------------------------------------
# Jacobian ground truth for the B-matrix block layout


def transformed_first_order_map(
    p: LiftedProblem, state: MultiplierState, alpha: float, c: float = 0.0
) -> MultiplierState:
    """One round of the implemented iteration in the (x, mu, (I-J) lam)
    variables: one array-executor round followed by projecting lam onto
    Range(S), the complement of Null(S'), with RR'."""
    new = one_round(ArrayExecutor(p), state, alpha, c)
    R = p.range_basis.R
    return MultiplierState(new.x, new.mu, R @ (R.T @ new.lam))


def pack_state(state: MultiplierState) -> np.ndarray:
    return np.concatenate([state.x.ravel(), state.mu, state.lam.ravel()])


def unpack_state(p: LiftedProblem, vec: np.ndarray) -> MultiplierState:
    nN = p.N * p.n
    return MultiplierState(
        x=vec[:nN].reshape(p.N, p.n),
        mu=vec[nN : nN + p.m].copy(),
        lam=vec[nN + p.m :].reshape(p.num_pairs, p.n),
    )


def numeric_iteration_jacobian(
    p: LiftedProblem, point: StationaryPoint, alpha: float, c: float = 0.0
) -> np.ndarray:
    """Finite-difference Jacobian of the transformed iteration at a
    stationary point; the arbiter for the B-matrix block layout."""
    base = pack_state(point.as_state(p))

    def mapped(vec):
        out = transformed_first_order_map(p, unpack_state(p, vec), alpha, c)
        return pack_state(out)

    return central_difference_jacobian(mapped, base)


# ---------------------------------------------------------------------------
# multiplier uniqueness and the implicit-minimizer shift bound


def least_squares_multipliers(p: LiftedProblem, x_star: np.ndarray):
    """Unique (mu, lam in Range(S)) solving the lifted stationarity system.

    Returns (mu, lam, residual); the least-norm least-squares solution
    selects lam orthogonal to Null(S'), i.e. the Range(S) representative.
    """
    ev = evaluate(p, np.tile(np.asarray(x_star, dtype=float), (p.N, 1)))
    A = np.hstack([constraint_jacobian(p, ev.grad_h), kron_lift(p.incidence.S, p.n).T])
    b = -ev.grad_f.ravel()
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    mu = sol[: p.m]
    lam = sol[p.m :].reshape(p.num_pairs, p.n)
    residual = float(np.linalg.norm(A @ sol - b))
    return mu, lam, residual


def minimize_penalized_newton(
    p: LiftedProblem,
    mu: np.ndarray,
    lam: np.ndarray,
    c: float,
    x0: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """Newton's method on grad_x L_c = 0 from x0.

    Locally exact evaluation of the implicit minimizer x(eta, c); used by
    rate studies, sampling checks, and closed-form inner-solution oracles.
    """
    state = MultiplierState(
        np.array(x0, dtype=float, copy=True),
        np.asarray(mu, dtype=float),
        np.asarray(lam, dtype=float).reshape(p.num_pairs, p.n),
    )
    for _ in range(max_iter):
        g = grad_aug_lagrangian(p, state, c)
        if np.linalg.norm(g) <= tol:
            break
        H = hess_aug_lagrangian(p, state, c)
        step = np.linalg.solve(H, -g)
        state = state.with_x(state.x + step.reshape(p.N, p.n))
    return state.x


def minimizer_shift_ratios(
    p: LiftedProblem,
    point: StationaryPoint,
    c_values,
    samples: int = 100,
    radius: float = 1e-2,
    seed: int = 0,
) -> dict[float, float]:
    """Sampled sup of c ||x(eta, c) - x*|| / ||eta - eta*|| per penalty value.

    Probes the bounded-shift property of the implicit minimizer around the
    multiplier vector; the bound constant itself is not computable, so the
    check reports the observed maximum for each c.
    """
    rng = np.random.default_rng(seed)
    x_lift = point.lifted_x(p.N)
    out = {}
    for c in c_values:
        worst = 0.0
        for _ in range(samples):
            d_mu = rng.uniform(-radius, radius, p.m)
            d_lam = rng.uniform(-radius, radius, (p.num_pairs, p.n))
            eta_norm = float(np.sqrt(np.sum(d_mu**2) + np.sum(d_lam**2)))
            if eta_norm == 0.0:
                continue
            x_eta = minimize_penalized_newton(
                p, point.mu + d_mu, point.lam + d_lam, c, x_lift
            )
            worst = max(worst, c * float(np.linalg.norm(x_eta - x_lift)) / eta_norm)
        out[float(c)] = worst
    return out


# ---------------------------------------------------------------------------
# row-by-row a1/a2 driver: the reference for the blocked run_first_order


def _kkt(p: LiftedProblem, x, mu, lam, ev) -> KKTResidual:
    """:func:`kkt_residual` of shape-checked arrays."""
    stat = _grad_x(p, x, mu, lam, 0.0, ev)
    return KKTResidual(_norm(stat), _norm(ev.h), _norm(p.incidence.S @ x))


def reference_errors(p: LiftedProblem, state: MultiplierState, point: StationaryPoint,
                     x_star):
    """Distances of an iterate to the reference point: per-agent
    ||x_i - x*||, ||mu - mu*|| and the distance of lam to the multiplier
    set lam* + Null(S') (a set, because the lifted minimizers are not
    regular); ``x_star`` is ``point.lifted_x(p.N)``."""
    err_x = np.linalg.norm(state.x - x_star, axis=1)
    err_mu = _norm(state.mu - point.mu)
    dist_l = _norm(p.range_basis.R.T @ (state.lam - point.lam))  # ||(I - J)(lam - lam*)||
    return err_x, err_mu, dist_l


def _state_norm(state: MultiplierState) -> float:
    return max(_norm(state.x), _norm(state.mu), _norm(state.lam))


class RowTraceRecorder:
    """Collects one trace row and a copy of the state per recorded iterate,
    for every algorithm."""

    def __init__(self, p: LiftedProblem, reference: StationaryPoint | None):
        self.p = p
        self.reference = reference
        self.x_star = None if reference is None else reference.lifted_x(p.N)
        self.rows = []
        self.outer = []
        self.states: list[MultiplierState] = []

    def record(self, k: int, state: MultiplierState, kkt, f, outer=None) -> None:
        """Append row k; ``f`` holds the agent objectives f_i(x_i) at state.x
        (:attr:`Evaluation.f`) and ``outer`` is (c_k, eps_k, inner_iters)
        for a3."""
        p = self.p
        if self.reference is not None:
            errors = reference_errors(p, state, self.reference, self.x_star)
        else:
            errors = (np.full(p.N, np.nan), np.nan, np.nan)
        self.rows.append((k, *errors, astuple(kkt), objective_total(f)))
        if outer is not None:
            self.outer.append(outer)
        self.states.append(state.copy())

    def build(self) -> Trace:
        outer = {}
        if self.outer or not self.rows:  # a1 and a2 always record their start
            outer = dict(
                c=np.array([r[0] for r in self.outer]),
                eps=np.array([r[1] for r in self.outer]),
                inner_iters=np.array([r[2] for r in self.outer], dtype=int),
            )
        return Trace(
            k=np.array([r[0] for r in self.rows], dtype=int),
            err_x=np.array([r[1] for r in self.rows]).reshape(-1, self.p.N),
            err_mu=np.array([r[2] for r in self.rows]),
            dist_lambda=np.array([r[3] for r in self.rows]),
            kkt=np.array([r[4] for r in self.rows]).reshape(-1, 3),
            objective=np.array([r[5] for r in self.rows]),
            **outer,
        )


def row_run_first_order(
    p: LiftedProblem,
    config: FirstOrderConfig,
    reference: StationaryPoint | None = None,
    engine: str = "arrays",
) -> tuple[RunResult, list[MultiplierState]]:
    """a1/a2 with every iterate evaluated, checked and recorded before the
    round from it: the reference the blocked ``run_first_order`` is
    checked against bit for bit.  Returns the run and the state of each
    trace row."""
    check_state(p, config.init)
    executor = make_executor(p, config.init, engine)
    state = config.init.copy()
    c = config.c
    recorder = RowTraceRecorder(p, reference)
    status = STATUS_ITERATION_CAP
    iterations = config.max_iter
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iter + 1):
            ev = evaluate(p, state.x)
            res = _kkt(p, state.x, state.mu, state.lam, ev)
            recorder.record(k, state, res, ev.f)
            total = res.total
            if total <= config.tol:
                status = STATUS_CONVERGED
                iterations = k
                break
            if not math.isfinite(total) or _state_norm(state) > DIVERGENCE_NORM:
                status = STATUS_DIVERGED
                iterations = k
                break
            if k == config.max_iter:
                break
            state = one_round(executor, state, config.alpha, c)
    result = RunResult(trace=recorder.build(), state=state, status=status, iterations=iterations)
    return result, recorder.states


# ---------------------------------------------------------------------------
# row-by-row a3 inner solve: the reference for the blocked inner_minimize


def row_inner_minimize(
    p: LiftedProblem,
    x_init: np.ndarray,
    mu_k: np.ndarray,
    lam_k: np.ndarray,
    c_k: float,
    config: MoMConfig,
    eps_k: float | None = None,
    engine: str = "arrays",
):
    """Gradient descent on L_{c_k} with the stopping and finite tests made
    after every descent, before the next: returns ``(x, iterations,
    converged)``, the reference the blocked ``inner_minimize`` is checked
    against bit for bit."""
    state = MultiplierState(*(np.array(v, dtype=float) for v in (x_init, mu_k, lam_k)))
    check_state(p, state)
    if eps_k is None:
        eps_k = config.eps0
    executor = make_executor(p, state, engine)
    if config.inner_schedule is not None:
        step_of = config.inner_schedule
    else:
        alpha = (
            config.inner_alpha
            if config.inner_alpha is not None
            else default_inner_alpha(p, state, c_k)
        )
        step_of = lambda tau: alpha
    tau = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            new, grad = one_descent(executor, state, step_of(tau), c_k)
            sq = (grad[:, None, :] @ grad[:, :, None]).ravel()
            grad_sq = float(np.add.accumulate(sq)[-1])
            if math.sqrt(grad_sq) <= eps_k:
                return state.x, tau, True
            if not math.isfinite(grad_sq) or not np.isfinite(new.x).all():
                raise InnerDivergenceError(
                    f"non-finite inner iterate at tau = {tau}; "
                    "the inner step size is likely too large"
                )
            state = new
            tau += 1
            if tau >= config.inner_max_iter:
                return state.x, tau, False
