"""Numerical certification of the solvers' convergence hypotheses.

The first-order iterations, written in the variables (x, mu,
(I - J) lam), linearize at a stationary point to I - alpha B with

    B = [[ hess L_c,  grad h,  S' ],
         [ -grad h',  0,       0  ],
         [ -S,        0,       J / alpha ]],

all matrices lifted.  The (0, 0, Null(S')) directions are eigenvectors of
B at exactly 1/alpha; they are the flat directions of the attractor set
and are split off through a quotient basis when certifying step sizes and
rates.  The method-of-multipliers rate machinery uses

    N_c = I - c grad ht' [hess L_c]^{-1} grad ht,   grad ht = [grad h, S'],

sandwiched by T = diag(I, I - J), whose spectral radius bounds the
asymptotic multiplier-error ratio; its eigenvalues sigma relate to the
penalty-independent quantities e = c sigma / (1 - sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .problem import (
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    central_difference_jacobian,
    constraint_jacobian,
    grad_aug_lagrangian,
    hess_aug_lagrangian,
    kkt_residual,
    objective_gradient,
)

EIG_ZERO_RTOL = 1e-10
STATIONARY_TOL = 1e-8


class NotStationaryError(ValueError):
    """The supplied point does not satisfy the first-order conditions."""


class CertificationError(RuntimeError):
    """No stable step size exists (or none above the search floor)."""


class HypothesisViolatedError(RuntimeError):
    """A spectral hypothesis (tangent-cone positivity) does not hold."""


class NeedLargerCError(RuntimeError):
    """The augmented Hessian is singular; increase the penalty."""


class Assumption2Error(ValueError):
    """Constraint gradients at the minimizer are not linearly independent."""


@dataclass(frozen=True)
class SpectralCertificate:
    matrix: str
    eigenvalues: np.ndarray
    verdict: bool
    alpha: float | None = None
    c: float | None = None
    alpha_bound: float | None = None
    rho_star: float | None = None
    rate_bound: float | None = None
    effective_eigenvalues: np.ndarray | None = None
    admissible: bool | None = None
    matrix_data: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        out = {
            "matrix": self.matrix,
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "verdict": bool(self.verdict),
        }
        for key in ("alpha_bound", "rho_star", "rate_bound"):
            value = getattr(self, key)
            if value is not None:
                out[key] = float(value)
        if self.effective_eigenvalues is not None:
            out["effective_eigenvalues"] = [float(e) for e in self.effective_eigenvalues]
        if self.admissible is not None:
            out["admissible"] = bool(self.admissible)
        return out


# ---------------------------------------------------------------------------
# assembly helpers


def _require_stationary(p: LiftedProblem, point: StationaryPoint) -> MultiplierState:
    state = point.as_state(p)
    res = kkt_residual(p, state)
    if res.total > STATIONARY_TOL:
        raise NotStationaryError(
            f"KKT residual {res.total:.3e} exceeds {STATIONARY_TOL:.0e}"
        )
    return state


def _blocks(p: LiftedProblem, state: MultiplierState, c: float):
    H = hess_aug_lagrangian(p, state, c)
    Gh = constraint_jacobian(p, state.x)
    return H, Gh, p.S_lift


def _assemble_B(H, Gh, S, J_over_alpha):
    nN = H.shape[0]
    m = Gh.shape[1]
    nQ = S.shape[0]
    B = np.zeros((nN + m + nQ, nN + m + nQ))
    B[:nN, :nN] = H
    B[:nN, nN : nN + m] = Gh
    B[:nN, nN + m :] = S.T
    B[nN : nN + m, :nN] = -Gh.T
    B[nN + m :, :nN] = -S
    B[nN + m :, nN + m :] = J_over_alpha
    return B


def flat_nullspace_basis(p: LiftedProblem) -> np.ndarray:
    """Orthonormal basis of the neutral directions (0, 0, Null(S' lifted))."""
    W = scipy.linalg.null_space(p.S_lift.T, rcond=EIG_ZERO_RTOL)
    total = p.N * p.n + p.m + p.num_pairs * p.n
    E = np.zeros((total, W.shape[1]))
    E[p.N * p.n + p.m :, :] = W
    return E


def quotient_basis(p: LiftedProblem) -> np.ndarray:
    """Orthonormal basis of the complement of the neutral directions."""
    return scipy.linalg.null_space(flat_nullspace_basis(p).T, rcond=EIG_ZERO_RTOL)


def iteration_matrix_B(
    p: LiftedProblem,
    x_star: np.ndarray,
    mu_star: np.ndarray,
    lambda_star: np.ndarray,
    alpha: float,
    c: float = 0.0,
) -> SpectralCertificate:
    """Assemble B (or B_c) at a stationary point and check min Re eig > 0.

    Eigenvalues with |Re| below ``EIG_ZERO_RTOL * ||B||`` count as zero for
    the verdict.  Raises :class:`NotStationaryError` when the point fails
    the KKT residual test at 1e-8.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    point = StationaryPoint(np.asarray(x_star, float), np.asarray(mu_star, float),
                            np.asarray(lambda_star, float).reshape(p.num_pairs, p.n))
    state = _require_stationary(p, point)
    H, Gh, S = _blocks(p, state, c)
    B = _assemble_B(H, Gh, S, p.J_lift / alpha)
    eig = np.linalg.eigvals(B)
    zero_tol = EIG_ZERO_RTOL * np.linalg.norm(B, 2)
    verdict = bool(np.min(eig.real) > zero_tol)
    return SpectralCertificate(
        matrix="B" if c == 0 else "B_c",
        eigenvalues=eig,
        verdict=verdict,
        alpha=alpha,
        c=c,
        matrix_data=B,
    )


def _quotient_matrix(p: LiftedProblem, point: StationaryPoint, c: float) -> np.ndarray:
    state = _require_stationary(p, point)
    H, Gh, S = _blocks(p, state, c)
    B0 = _assemble_B(H, Gh, S, np.zeros((S.shape[0], S.shape[0])))
    Q = quotient_basis(p)
    return Q.T @ B0 @ Q


def contraction_factor(
    p: LiftedProblem, point: StationaryPoint, alpha: float, c: float = 0.0
) -> float:
    """Spectral radius of I - alpha B restricted to the complement of the
    neutral (0, 0, Null(S')) eigenspace."""
    Bq = _quotient_matrix(p, point, c)
    return float(np.max(np.abs(np.linalg.eigvals(np.eye(Bq.shape[0]) - alpha * Bq))))


def certify_step_size(
    p: LiftedProblem,
    point: StationaryPoint,
    c: float = 0.0,
    alpha_max_search: float = 10.0,
) -> SpectralCertificate:
    """Largest stable step size by bisection (relative width 1e-3).

    The returned alpha_bound satisfies rho(I - alpha B) < 1 while
    1.05 alpha_bound is unstable; rho_star is the restricted contraction
    factor at alpha_bound.  Raises :class:`CertificationError` when some
    restricted eigenvalue has a non-positive real part (no alpha works) or
    no stable alpha exists above 1e-12.
    """
    Bq = _quotient_matrix(p, point, c)
    eig = np.linalg.eigvals(Bq)
    zero_tol = EIG_ZERO_RTOL * max(np.linalg.norm(Bq, 2), 1.0)
    if np.min(eig.real) <= zero_tol:
        raise CertificationError(
            f"restricted iteration matrix has min Re eig = {np.min(eig.real):.3e}; "
            "no step size can make the iteration contract"
        )

    def stable(a: float) -> bool:
        return np.max(np.abs(1.0 - a * eig)) < 1.0

    lo = min(alpha_max_search, 1.0)
    while not stable(lo):
        lo /= 2.0
        if lo < 1e-12:
            raise CertificationError("no stable step size above 1e-12")
    hi = lo * 2.0
    while stable(hi):
        hi *= 2.0
    while (hi - lo) / hi > 1e-3:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    rho = float(np.max(np.abs(1.0 - lo * eig)))
    return SpectralCertificate(
        matrix="B" if c == 0 else "B_c",
        eigenvalues=eig,
        verdict=True,
        c=c,
        alpha_bound=float(lo),
        rho_star=rho,
    )


# ---------------------------------------------------------------------------
# tangent cone and curvature thresholds


@dataclass(frozen=True)
class TangentConeBasis:
    """Orthonormal bases of Null(grad h(x*)') and its consensus lift."""

    basis: np.ndarray
    lifted_basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def _unlifted_constraint_gradients(p: LiftedProblem, x_star: np.ndarray) -> np.ndarray:
    cols = [p.agents[i].grad_h(x_star) for i in p.constrained_agents]
    if not cols:
        return np.zeros((p.n, 0))
    return np.column_stack(cols)


def tangent_cone_basis(p: LiftedProblem, x_star: np.ndarray) -> TangentConeBasis:
    """Tangent cone to the constraint set at x*, unlifted and lifted.

    Verifies Assumption-2 style independence (smallest singular value of
    grad h(x*) above 1e-8), that each lifted basis vector is annihilated by
    both grad h(x*)' and S to 1e-10, and the converse dimension count
    dim Null([grad h, S']') = n - m.
    """
    x_star = np.asarray(x_star, dtype=float)
    G = _unlifted_constraint_gradients(p, x_star)
    if G.shape[1]:
        sigma_min = float(np.linalg.svd(G, compute_uv=False)[-1])
        if sigma_min <= 1e-8:
            raise Assumption2Error(
                f"constraint gradients nearly dependent (sigma_min = {sigma_min:.3e})"
            )
        basis = scipy.linalg.null_space(G.T, rcond=EIG_ZERO_RTOL)
    else:
        basis = np.eye(p.n)
    ones = np.ones(p.N) / np.sqrt(p.N)
    lifted = np.kron(ones[:, None], basis)
    x_lift = np.tile(x_star, (p.N, 1))
    Gh = constraint_jacobian(p, x_lift)
    for k in range(lifted.shape[1]):
        z = lifted[:, k]
        if np.linalg.norm(Gh.T @ z) > 1e-10 or np.linalg.norm(p.S_lift @ z) > 1e-10:
            raise RuntimeError("lifted tangent vector fails the annihilation check")
    stacked = np.vstack([Gh.T, p.S_lift])
    full_null = scipy.linalg.null_space(stacked, rcond=EIG_ZERO_RTOL)
    if full_null.shape[1] != p.n - G.shape[1]:
        raise RuntimeError(
            f"nullspace of [grad h, S']' has dimension {full_null.shape[1]}, "
            f"expected n - m = {p.n - G.shape[1]}"
        )
    return TangentConeBasis(basis=basis, lifted_basis=lifted)


@dataclass(frozen=True)
class SecondOrderReport:
    passed: bool
    margin: float
    cone_dimension: int


def second_order_check(p: LiftedProblem, point: StationaryPoint) -> SecondOrderReport:
    """Positivity of the plain Lagrangian Hessian on the lifted tangent cone.

    Vacuously true with margin +inf when the cone is {0}.
    """
    cone = tangent_cone_basis(p, point.x)
    if cone.dimension == 0:
        return SecondOrderReport(passed=True, margin=np.inf, cone_dimension=0)
    state = point.as_state(p)
    H0 = hess_aug_lagrangian(p, state, 0.0)
    Z = cone.lifted_basis
    margin = float(np.min(np.linalg.eigvalsh(Z.T @ H0 @ Z)))
    return SecondOrderReport(passed=margin > 0, margin=margin, cone_dimension=cone.dimension)


def find_cbar(p: LiftedProblem, point: StationaryPoint) -> float:
    """Smallest penalty (to relative width 1e-3) making hess L_c positive
    definite at the stationary point; 0 when the plain Hessian already is.

    Requires tangent-cone positivity (:class:`HypothesisViolatedError`
    otherwise), which guarantees the threshold exists.
    """
    report = second_order_check(p, point)
    if not report.passed:
        raise HypothesisViolatedError(
            f"tangent-cone curvature is not positive (margin {report.margin:.3e})"
        )
    state = _require_stationary(p, point)

    def positive(c: float) -> bool:
        return float(np.min(np.linalg.eigvalsh(hess_aug_lagrangian(p, state, c)))) > 0

    if positive(0.0):
        return 0.0
    hi = 1.0
    while not positive(hi):
        hi *= 2.0
        if hi > 2**60:
            raise HypothesisViolatedError("no finite penalty makes the Hessian positive")
    lo = hi / 2.0
    while (hi - lo) / hi > 1e-3:
        mid = 0.5 * (lo + hi)
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


# ---------------------------------------------------------------------------
# method-of-multipliers rate machinery


def rate_bound_mom(p: LiftedProblem, point: StationaryPoint, c: float) -> SpectralCertificate:
    """Predicted asymptotic multiplier-error ratio of the outer iteration.

    Computes N_c at the stationary point, sandwiches it with
    T = diag(I, I - J), and returns the spectral radius as ``rate_bound``.
    Effective eigenvalues e = c sigma / (1 - sigma) are reported for
    sigma != 1 and the admissibility predicate c > max(-2 e) is checked.
    """
    state = _require_stationary(p, point)
    Hc = hess_aug_lagrangian(p, state, c)
    eig_H = np.linalg.eigvalsh(Hc)
    if np.min(np.abs(eig_H)) <= 1e-12 * np.max(np.abs(eig_H)):
        raise NeedLargerCError(
            f"hess L_c is numerically singular at c = {c}; increase the penalty"
        )
    Gh = constraint_jacobian(p, state.x)
    G = np.hstack([Gh, p.S_lift.T])
    Nc = np.eye(G.shape[1]) - c * (G.T @ np.linalg.solve(Hc, G))
    m = p.m
    T = np.eye(Nc.shape[0])
    T[m:, m:] = np.eye(p.num_pairs * p.n) - p.J_lift
    Nt = T @ Nc @ T
    sigma = np.linalg.eigvalsh(Nt)
    rate = float(np.max(np.abs(sigma)))
    effective = np.array([c * s / (1.0 - s) for s in sigma if abs(1.0 - s) > 1e-8])
    admissible = bool(effective.size == 0 or c > float(np.max(-2.0 * effective)))
    return SpectralCertificate(
        matrix="N_c",
        eigenvalues=sigma.astype(complex),
        verdict=bool(rate < 1.0 and admissible),
        c=c,
        rate_bound=rate,
        effective_eigenvalues=effective,
        admissible=admissible,
    )


def dist_to_multiplier_set(lam, lam_star, J: np.ndarray) -> float:
    """Euclidean distance from lam to the affine set lam* + Null(S').

    Equals ||(I - J)(lam - lam*)|| with J the (unlifted) projector onto
    Null(S'); arguments may be (num_pairs, n) arrays or flat vectors.
    """
    lam = np.asarray(lam, dtype=float)
    lam_star = np.asarray(lam_star, dtype=float)
    num_pairs = J.shape[0]
    d = (lam - lam_star).reshape(num_pairs, -1)
    return float(np.linalg.norm(d - J @ d))


# ---------------------------------------------------------------------------
# empirical rate estimation


@dataclass(frozen=True)
class RateFit:
    contraction: float
    r_squared: float
    slope: float
    points: int


def estimate_linear_rate(errors, tail_fraction: float = 0.5) -> RateFit:
    """Least-squares fit of log(error) vs iteration over the trailing part.

    Needs at least 20 positive records; the tail is truncated at the first
    non-positive entry (errors at machine-precision floor).
    """
    errors = np.asarray(errors, dtype=float)
    if np.sum(errors > 0) < 20:
        raise ValueError("need at least 20 records with positive errors")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = len(errors) - int(np.ceil(tail_fraction * len(errors)))
    tail = errors[start:]
    bad = np.nonzero(~(tail > 0))[0]
    if bad.size:
        tail = tail[: bad[0]]
    if len(tail) < 2:
        raise ValueError("tail has fewer than 2 positive entries")
    k = np.arange(len(tail), dtype=float)
    y = np.log(tail)
    A = np.column_stack([np.ones_like(k), k])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(
        contraction=float(np.exp(coef[1])), r_squared=r2, slope=float(coef[1]),
        points=len(tail),
    )


# ---------------------------------------------------------------------------
# Jacobian ground truth for the B-matrix block layout


def transformed_first_order_map(
    p: LiftedProblem, state: MultiplierState, alpha: float, c: float = 0.0
) -> MultiplierState:
    """One round of the implemented iteration in the (x, mu, (I-J) lam)
    variables: the solver kernel followed by projecting lam onto the
    complement of Null(S')."""
    from .solvers import ArrayExecutor

    new, _ = ArrayExecutor(p).round(state, alpha, alpha, c, True)
    lam_perp = new.lam - p.projector.J @ new.lam
    return MultiplierState(new.x, new.mu, lam_perp)


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
    A = np.hstack([constraint_jacobian(p, x_lift), p.S_lift.T])
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
