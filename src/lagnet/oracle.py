"""Centralized ground-truth solver for the underlying problem.

Solves min sum_i f_i(x) s.t. h(x) = 0 over the shared variable by damped
Newton on the KKT system with seeded multi-starts, so distributed runs can
be measured against the true minimizer and multipliers.  The lifted
multipliers (mu*, lam* in Range(S)) follow from the minimum-norm solve of
the lifted stationarity system through the thin SVD S = R Sigma V'.  The
oracle only solves: which convergence hypotheses hold at its point is
``analysis.verify_minimizer``'s report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import (
    LiftedProblem,
    StationaryPoint,
    Evaluation,
    constraint_jacobian,
    evaluate,
    hessians,
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


def _at(p: LiftedProblem, x: np.ndarray) -> Evaluation:
    """The evaluation of every agent at the shared point x."""
    return evaluate(p, np.tile(x, (p.N, 1)))


def _centralized_residual(ev: Evaluation, psi: np.ndarray) -> np.ndarray:
    grad = np.sum(ev.grad_f, axis=0)
    for k, gh in enumerate(ev.grad_h):
        grad = grad + psi[k] * gh
    return np.concatenate([grad, ev.h])


def _centralized_kkt_jacobian(p: LiftedProblem, x: np.ndarray, psi: np.ndarray,
                              grad_h: np.ndarray) -> np.ndarray:
    """The Jacobian of the residual at (x, psi); ``grad_h`` is grad h at x."""
    n = p.n
    hess_f, hess_h = hessians(p, np.tile(x, (p.N, 1)))
    H = np.sum(hess_f, axis=0)
    for k, hh in enumerate(hess_h):
        H = H + psi[k] * hh
    G = grad_h.T
    Jac = np.zeros((n + p.m, n + p.m))
    Jac[:n, :n] = H
    Jac[:n, n:] = G
    Jac[n:, :n] = G.T
    return Jac


def _initial_psi(ev: Evaluation) -> np.ndarray:
    if not len(ev.h):
        return np.zeros(0)
    G = np.column_stack(ev.grad_h)
    grad = np.sum(ev.grad_f, axis=0)
    psi, *_ = np.linalg.lstsq(G, -grad, rcond=None)
    return psi


def _newton_root(p: LiftedProblem, x0: np.ndarray, max_iter: int = 200):
    """Damped Newton from x0.  Each iterate is evaluated once, at the start
    or by the line-search trial that accepts it, and that evaluation serves
    its residual, its Jacobian's grad h, the final residual norm and the
    root's objective."""
    x = np.array(x0, dtype=float, copy=True)
    ev = _at(p, x)
    psi = _initial_psi(ev)
    r = _centralized_residual(ev, psi)
    norm = np.linalg.norm(r)
    for _ in range(max_iter):
        if norm <= 1e-12:
            break
        try:
            step = np.linalg.solve(_centralized_kkt_jacobian(p, x, psi, ev.grad_h), -r)
        except np.linalg.LinAlgError:
            return None
        # backtracking on the residual norm
        t = 1.0
        for _ in range(40):
            x_trial = x + t * step[: p.n]
            psi_trial = psi + t * step[p.n :]
            ev = _at(p, x_trial)
            r = _centralized_residual(ev, psi_trial)
            trial_norm = np.linalg.norm(r)
            if trial_norm < norm:
                break
            t *= 0.5
        else:
            return None
        x, psi, norm = x_trial, psi_trial, trial_norm
    if norm > KKT_TOL or not np.all(np.isfinite(x)):
        return None
    return x, psi, float(norm), objective_total(ev.f)


def solve_centralized(
    p: LiftedProblem,
    x_init: np.ndarray | None = None,
    restarts: int = 8,
    seed: int = 0,
    radius: float = 1.0,
) -> OracleSolution:
    """Find KKT points of the centralized problem; pick the lowest objective.

    Damped Newton on [grad f + grad h psi; h] from ``x_init`` plus
    ``restarts`` seeded perturbations, under ``np.errstate`` as the solvers
    run: a residual norm that overflows reads inf and no warning is raised.
    Among converged roots, returns the one with the smallest objective, ties
    broken lexicographically in x.
    """
    x0 = np.zeros(p.n) if x_init is None else np.asarray(x_init, dtype=float)
    rng = np.random.default_rng(seed)
    starts = [x0] + [x0 + rng.uniform(-radius, radius, p.n) for _ in range(restarts)]
    roots, objectives = [], []
    for start in starts:
        with np.errstate(over="ignore", invalid="ignore"):
            found = _newton_root(p, start)
        if found is None:
            continue
        x, psi, r, objective = found
        if any(np.linalg.norm(x - other[0]) <= 1e-8 for other in roots):
            continue
        roots.append((x, psi, r))
        objectives.append(objective)
    if not roots:
        raise OracleError("no KKT point found from any start")
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
    ev = _at(p, solution.x_star)
    rhs = -ev.grad_f.ravel()
    if p.m:
        rhs = rhs - constraint_jacobian(p, ev.grad_h) @ solution.psi_star
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
