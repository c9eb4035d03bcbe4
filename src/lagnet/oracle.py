"""Centralized ground-truth solver for the underlying problem.

Solves min sum_i f_i(x) s.t. h(x) = 0 over the shared variable by damped
Newton on the KKT system with seeded multi-starts, so distributed runs can
be measured against the true minimizer and multipliers.  The lifted
multipliers (mu*, lam* in Range(S)) follow from the minimum-norm solve of
the lifted stationarity system through the thin SVD S = R Sigma V'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .problem import (
    LiftedProblem,
    StationaryPoint,
    agent_values,
    constraint_jacobian,
    evaluate,
    lagrangian_hessian_blocks,
    objective_gradient,
    objective_total,
)

KKT_TOL = 1e-10


class OracleError(RuntimeError):
    """No KKT point found within the iteration budget."""


@dataclass(frozen=True)
class OracleSolution:
    x_star: np.ndarray
    psi_star: np.ndarray
    objective: float
    kkt_residual_norm: float
    all_roots: tuple[tuple[np.ndarray, np.ndarray, float], ...]


def _at(p: LiftedProblem, kind: str, x: np.ndarray) -> np.ndarray:
    """Evaluator ``kind`` of every agent at the shared point x."""
    return agent_values(p, kind, np.tile(x, (p.N, 1)))


def _centralized_residual(p: LiftedProblem, x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    ev = evaluate(p, np.tile(x, (p.N, 1)))
    grad = np.sum(ev.grad_f, axis=0)
    for k, gh in enumerate(ev.grad_h):
        grad = grad + psi[k] * gh
    return np.concatenate([grad, ev.h])


def _centralized_kkt_jacobian(p: LiftedProblem, x: np.ndarray, psi: np.ndarray) -> np.ndarray:
    n = p.n
    H = np.sum(_at(p, "hess_f", x), axis=0)
    for k, hh in enumerate(_at(p, "hess_h", x)):
        H = H + psi[k] * hh
    G = _at(p, "grad_h", x).T
    Jac = np.zeros((n + p.m, n + p.m))
    Jac[:n, :n] = H
    Jac[:n, n:] = G
    Jac[n:, :n] = G.T
    return Jac


def _initial_psi(p: LiftedProblem, x: np.ndarray) -> np.ndarray:
    if p.m == 0:
        return np.zeros(0)
    G = np.column_stack(_at(p, "grad_h", x))
    grad = np.sum(_at(p, "grad_f", x), axis=0)
    psi, *_ = np.linalg.lstsq(G, -grad, rcond=None)
    return psi


def _newton_root(p: LiftedProblem, x0: np.ndarray, max_iter: int = 200):
    x = np.array(x0, dtype=float, copy=True)
    psi = _initial_psi(p, x)
    for _ in range(max_iter):
        r = _centralized_residual(p, x, psi)
        norm = np.linalg.norm(r)
        if norm <= 1e-12:
            break
        try:
            step = np.linalg.solve(_centralized_kkt_jacobian(p, x, psi), -r)
        except np.linalg.LinAlgError:
            return None
        # backtracking on the residual norm
        t = 1.0
        for _ in range(40):
            x_trial = x + t * step[: p.n]
            psi_trial = psi + t * step[p.n :]
            if np.linalg.norm(_centralized_residual(p, x_trial, psi_trial)) < norm:
                break
            t *= 0.5
        else:
            return None
        x, psi = x_trial, psi_trial
    r = float(np.linalg.norm(_centralized_residual(p, x, psi)))
    if r > KKT_TOL or not np.all(np.isfinite(x)):
        return None
    return x, psi, r


def solve_centralized(
    p: LiftedProblem,
    x_init: np.ndarray | None = None,
    restarts: int = 8,
    seed: int = 0,
    radius: float = 1.0,
) -> OracleSolution:
    """Find KKT points of the centralized problem; pick the lowest objective.

    Damped Newton on [grad f + grad h psi; h] from ``x_init`` plus
    ``restarts`` seeded perturbations.  Among converged roots, returns the
    one with the smallest objective, ties broken lexicographically in x.
    """
    x0 = np.zeros(p.n) if x_init is None else np.asarray(x_init, dtype=float)
    rng = np.random.default_rng(seed)
    starts = [x0] + [x0 + rng.uniform(-radius, radius, p.n) for _ in range(restarts)]
    roots = []
    for start in starts:
        found = _newton_root(p, start)
        if found is None:
            continue
        x, psi, r = found
        if any(np.linalg.norm(x - other[0]) <= 1e-8 for other in roots):
            continue
        roots.append((x, psi, r))
    if not roots:
        raise OracleError("no KKT point found from any start")
    objectives = [objective_total(_at(p, "f", x)) for x, _, _ in roots]
    order = sorted(range(len(roots)), key=lambda i: (objectives[i], tuple(roots[i][0])))
    best = order[0]
    return OracleSolution(
        x_star=roots[best][0],
        psi_star=roots[best][1],
        objective=float(objectives[best]),
        kkt_residual_norm=roots[best][2],
        all_roots=tuple(roots[i] for i in order),
    )


def lifted_multipliers(p: LiftedProblem, solution: OracleSolution) -> StationaryPoint:
    """Unique lifted multipliers (mu* = psi*, lam* in Range(S)).

    lam* = R Sigma^{-1} V' r is the minimum-norm solution of
    S' lam = r = -grad F - grad h mu* (one column per coordinate), which is
    exactly the Range(S) representative.  Raises when the stationarity
    system is inconsistent (x* not a lifted stationary point).
    """
    x_lift = np.tile(solution.x_star, (p.N, 1))
    rhs = -objective_gradient(p, x_lift)
    if p.m:
        rhs = rhs - constraint_jacobian(p, x_lift) @ solution.psi_star
    rhs = rhs.reshape(p.N, p.n)
    lam = p.range_basis.min_norm_solve(rhs)
    residual = float(np.linalg.norm(p.incidence.S.T @ lam - rhs))
    if residual > KKT_TOL:
        raise OracleError(
            f"lifted stationarity residual {residual:.3e}: x* is not a lifted "
            "stationary point"
        )
    return StationaryPoint(
        x=solution.x_star.copy(),
        mu=solution.psi_star.copy(),
        lam=lam,
    )


@dataclass(frozen=True)
class MinimizerReport:
    assumption2_ok: bool
    assumption2_sigma_min: float
    blockwise_pd: bool
    blockwise_min_eigs: tuple[float, ...]
    tangent_cone_pd: bool
    tangent_cone_margin: float
    a1_certified: bool
    a2_a3_certified: bool


def verify_minimizer(p: LiftedProblem, solution: OracleSolution) -> MinimizerReport:
    """Check which convergence hypotheses hold at the oracle solution.

    Blockwise positivity of hess f_i + psi_i* hess h_i certifies the plain
    first-order iteration; tangent-cone positivity (weaker) certifies the
    augmented first-order iteration and the method of multipliers.  This is
    a pure report: violated hypotheses are flagged, never raised.
    """
    x, psi = solution.x_star, solution.psi_star
    if p.m:
        sigma_min = float(np.linalg.svd(_at(p, "grad_h", x).T, compute_uv=False)[-1])
    else:
        sigma_min = np.inf
    assumption2_ok = sigma_min > 1e-8
    blocks = lagrangian_hessian_blocks(p, np.tile(x, (p.N, 1)), psi)
    mins = [float(np.min(np.linalg.eigvalsh(block))) for block in blocks]
    blockwise = all(v > 0 for v in mins)
    tangent_pd, margin = False, float("nan")
    if assumption2_ok:
        try:
            second = analysis.second_order_check(p, x, psi)
        except analysis.HypothesisViolatedError:
            pass  # the cone fails its annihilation or width check: flagged
        else:
            tangent_pd, margin = second.passed, second.margin
    return MinimizerReport(
        assumption2_ok=assumption2_ok,
        assumption2_sigma_min=sigma_min,
        blockwise_pd=blockwise,
        blockwise_min_eigs=tuple(mins),
        tangent_cone_pd=tangent_pd,
        tangent_cone_margin=margin,
        a1_certified=blockwise and assumption2_ok,
        a2_a3_certified=tangent_pd and assumption2_ok,
    )
