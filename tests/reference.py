"""Independent references the tests judge the package by, kept apart from
the code they check: the spectral radius of the linearized first-order
iteration, its finite-difference Jacobian (the arbiter for the B-matrix
block layout), the least-squares multipliers and the implicit minimizer
x(eta, c) by Newton's method."""

import numpy as np
from conftest import kron_lift

from lagnet.analysis import _quotient_matrix
from lagnet.problem import (
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    central_difference_jacobian,
    constraint_jacobian,
    grad_aug_lagrangian,
    hess_aug_lagrangian,
    objective_gradient,
)
from lagnet.solvers import ArrayExecutor


def contraction_factor(
    p: LiftedProblem, point: StationaryPoint, alpha: float, c: float = 0.0
) -> float:
    """Spectral radius of I - alpha B restricted to the complement of the
    neutral (0, 0, Null(S')) eigenspace."""
    Bq = _quotient_matrix(p, point, c)
    return float(np.max(np.abs(np.linalg.eigvals(np.eye(Bq.shape[0]) - alpha * Bq))))


# ---------------------------------------------------------------------------
# Jacobian ground truth for the B-matrix block layout


def transformed_first_order_map(
    p: LiftedProblem, state: MultiplierState, alpha: float, c: float = 0.0
) -> MultiplierState:
    """One round of the implemented iteration in the (x, mu, (I-J) lam)
    variables: one array-executor round followed by projecting lam onto
    Range(S), the complement of Null(S'), with RR'."""
    new = ArrayExecutor(p).round(state, alpha, c)
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
    x_lift = np.tile(np.asarray(x_star, dtype=float), (p.N, 1))
    A = np.hstack([constraint_jacobian(p, x_lift), kron_lift(p.incidence.S, p.n).T])
    b = -objective_gradient(p, x_lift)
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
