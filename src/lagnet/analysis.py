"""Numerical certification of the solvers' convergence hypotheses.

Every Range(S) and Null(S') quantity comes from the problem's thin SVD
S = R Sigma V' (``LiftedProblem.range_basis``): J = I - RR' projects onto
Null(S').  The first-order iterations, written in the variables (x, mu,
(I - J) lam), linearize at a stationary point to I - alpha B with

    B = [[ hess L_c,  grad h,  S' ],
         [ -grad h',  0,       0  ],
         [ -S,        0,       J / alpha ]],

all matrices lifted.  The (0, 0, Null(S')) directions are eigenvectors of
B at exactly 1/alpha; they are the flat directions of the attractor set
and are split off by the quotient basis Q = blockdiag(I, R (x) I_n).  The
step-size certificate assembles Bq = Q'B_0 Q, B without its J / alpha
block, in which the multiplier coupling S becomes Sigma V' (x) I_n: Bq is
the one iteration matrix this package assembles, and the full B is rebuilt
from it, as Q Bq Q' + blockdiag(0, 0, J / alpha), only by the test
references (``tests/reference.py``).  The method-of-multipliers rate
machinery uses

    N_c = I - c grad ht' [hess L_c]^{-1} grad ht,   grad ht = [grad h, S'],

sandwiched by T = diag(I, I - J), whose spectral radius bounds the
asymptotic multiplier-error ratio; its eigenvalues sigma relate to the
penalty-independent quantities e = c sigma / (1 - sigma).  Dense
Kronecker lifts are built here on demand, for these dense eigenproblems
and solves only; ``eigvals`` is a step-size certificate's one large
decomposition, and its zero test needs an SVD only inside a Frobenius-norm
bracket.  The second-order hypothesis needs no lift: the lifted tangent
cone is 1 (x) Null(grad h(x*)').  This module alone decides the
hypotheses at a minimizer (:func:`verify_minimizer` reports them, and
:func:`find_cbar` reads the cone by the same code).  Each certificate
evaluates its point once, in its KKT test, and a failed hypothesis raises
an :class:`AnalysisError`.  The largest stable step size comes from a
bisection (:func:`_threshold`); c_bar comes from no search, but from the
eigenvalues of a penalty-free pencil read from one Hessian pass, since
hess L_c = H_0 + c M with hess f_i and hess h_i independent of c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problem import (
    Evaluation,
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    block_diagonal,
    constraint_jacobian,
    evaluate,
    hess_aug_lagrangian,
    hessians,
    kkt_residual,
    lagrangian_hessian_blocks,
)

EIG_ZERO_RTOL = 1e-10
STATIONARY_TOL = 1e-8
SIGMA_MIN_TOL = 1e-8  # Assumption 2: sigma_min(grad h(x*)) must lie above it
ANNIHILATION_TOL = 1e-10  # ||grad h(x*)'z|| of a unit lifted tangent vector z
RATE_TAIL_FRACTION = 0.5  # the share of records estimate_linear_rate fits


class AnalysisError(Exception):
    """A hypothesis of the analysis fails at the point."""


class NotStationaryError(AnalysisError, ValueError):
    """The supplied point does not satisfy the first-order conditions."""


class CertificationError(AnalysisError, RuntimeError):
    """No stable step size exists (or none above the search floor);
    ``eigenvalues`` holds the restricted iteration matrix's spectrum."""

    def __init__(self, message: str, eigenvalues: np.ndarray):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class HypothesisViolatedError(AnalysisError, RuntimeError):
    """A tangent-cone hypothesis (its dimension, or positivity) does not hold."""


class NeedLargerCError(AnalysisError, RuntimeError):
    """min |eig| <= 1e-12 max |eig| for hess L_c: at c = c_bar, or where it is ill-conditioned."""


class Assumption2Error(AnalysisError, ValueError):
    """Constraint gradients at the minimizer are not linearly independent."""


def matrix_name(c: float) -> str:
    """The iteration matrix certified at penalty c: B for a1, B_c otherwise."""
    return "B" if c == 0 else "B_c"


@dataclass(frozen=True)
class SpectralCertificate:
    matrix: str
    eigenvalues: np.ndarray
    verdict: bool
    alpha_bound: float | None = None
    rho_star: float | None = None
    rate_bound: float | None = None
    effective_eigenvalues: np.ndarray | None = None
    admissible: bool | None = None

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


def _require_stationary(p: LiftedProblem,
                        point: StationaryPoint) -> tuple[MultiplierState, Evaluation]:
    """The point as a state and its evaluation, which the KKT test used and
    the certificate reads; :class:`NotStationaryError` when the test fails."""
    state = point.as_state(p)
    ev = evaluate(p, state.x)
    res = kkt_residual(p, state, ev)
    if res.total > STATIONARY_TOL:
        raise NotStationaryError(
            f"KKT residual {res.total:.3e} exceeds {STATIONARY_TOL:.0e}"
        )
    return state, ev


def _above_zero_tol(value: float, B: np.ndarray, floor: float) -> bool:
    """value > EIG_ZERO_RTOL max(||B||_2, floor); the SVD behind ||B||_2 runs only
    inside ||B||_F / sqrt(min(shape)) <= ||B||_2 <= ||B||_F, widened by 1e-12."""
    fro = np.linalg.norm(B)
    if value > EIG_ZERO_RTOL * max(fro, floor) * (1 + 1e-12):
        return True
    if value <= EIG_ZERO_RTOL * max(fro / np.sqrt(min(B.shape)), floor) * (1 - 1e-12):
        return False
    return bool(value > EIG_ZERO_RTOL * max(np.linalg.norm(B, 2), floor))


def _spectrum(eig, A: np.ndarray, what: str) -> np.ndarray:
    """eig(A), or :class:`AnalysisError` when A is not finite (a huge penalty
    overflows it) or the decomposition does not converge."""
    if not np.isfinite(A).all():
        raise AnalysisError(f"{what} has non-finite entries; lower the penalty")
    try:
        return eig(A)
    except np.linalg.LinAlgError as err:
        raise AnalysisError(f"the spectrum of {what} failed: {err}") from err


def _lift(p: LiftedProblem, A: np.ndarray) -> np.ndarray:
    """Dense Kronecker lift A (x) I_n."""
    return np.kron(A, np.eye(p.n))


def _quotient_matrix(p: LiftedProblem, point: StationaryPoint, c: float) -> np.ndarray:
    """Q'B_0 Q = [[hess L_c, grad h, C'], [-grad h', 0, 0], [-C, 0, 0]] for
    the quotient basis Q = blockdiag(I, R (x) I_n), where B_0 is B without
    its J / alpha block: the coupling C = (R' (x) I)(S (x) I) is
    Sigma V' (x) I_n."""
    state, ev = _require_stationary(p, point)
    rb = p.range_basis
    C = _lift(p, rb.sigma[:, None] * rb.V.T)
    H = hess_aug_lagrangian(p, state, c, ev)
    Gh = constraint_jacobian(p, ev.grad_h)
    nN, m, nQ = H.shape[0], Gh.shape[1], C.shape[0]
    Bq = np.zeros((nN + m + nQ, nN + m + nQ))
    Bq[:nN, :nN] = H
    Bq[:nN, nN : nN + m] = Gh
    Bq[:nN, nN + m :] = C.T
    Bq[nN : nN + m, :nN] = -Gh.T
    Bq[nN + m :, :nN] = -C
    return Bq


def _threshold(above, floor: float) -> tuple[float, float]:
    """A bracket (lo, hi) of the threshold of a predicate that holds from it
    upwards: not above(lo), above(hi) and (hi - lo) / hi <= 1e-3.  It starts
    at 1 and halves down to ``floor`` or doubles up, moving both ends, then
    bisects; (0, floor) when above(floor) holds.  The step-size search."""
    if above(1.0):
        lo, hi = 0.5, 1.0
        while above(lo):
            if lo <= floor:
                return 0.0, lo
            lo, hi = lo / 2.0, lo
    else:
        lo, hi = 1.0, 2.0
        while not above(hi):
            lo, hi = hi, hi * 2.0
    while (hi - lo) / hi > 1e-3:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def certify_step_size(
    p: LiftedProblem,
    point: StationaryPoint,
    c: float = 0.0,
) -> SpectralCertificate:
    """Largest stable step size: the lower end of :func:`_threshold`'s
    bracket of "unstable at alpha" (relative width 1e-3, halving down to
    2^-39).

    The returned alpha_bound satisfies rho(I - alpha B) < 1 while
    1.05 alpha_bound is unstable; rho_star is the restricted contraction
    factor at alpha_bound.  ``eigvals(Bq)`` is the one large decomposition:
    min Re eig > 1e-10 max(||Bq||_2, 1) is decided from ||Bq||_F outside the
    bracket of :func:`_above_zero_tol`.  Raises :class:`CertificationError`
    when it fails (no alpha works) or no stable alpha exists above 1e-12.
    """
    Bq = _quotient_matrix(p, point, c)
    eig = _spectrum(np.linalg.eigvals, Bq, f"{matrix_name(c)} at c = {c}")
    if not _above_zero_tol(np.min(eig.real), Bq, floor=1.0):
        tol = EIG_ZERO_RTOL * max(np.linalg.norm(Bq, 2), 1.0)
        raise CertificationError(
            f"restricted iteration matrix has min Re eig = {np.min(eig.real):.3e}, not above "
            f"1e-10 max(||Bq||_2, 1) = {tol:.3e}; no step size can make the iteration contract",
            eig)

    def unstable(a: float) -> bool:
        return not np.max(np.abs(1.0 - a * eig)) < 1.0

    lo, _ = _threshold(unstable, floor=2**-39)
    if lo == 0.0:
        raise CertificationError("no stable step size above 1e-12", eig)
    rho = float(np.max(np.abs(1.0 - lo * eig)))
    return SpectralCertificate(matrix_name(c), eig, True, alpha_bound=float(lo), rho_star=rho)


# ---------------------------------------------------------------------------
# convergence hypotheses at a lifted minimizer and curvature thresholds


def _null_space(A: np.ndarray, rcond: float) -> np.ndarray:
    """Orthonormal basis of Null(A) by ``scipy.linalg.null_space``'s rank rule."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[int(np.sum(s > np.max(s, initial=0.0) * rcond)):].T


def tangent_cone_basis(p: LiftedProblem, grad_h: np.ndarray) -> np.ndarray:
    """Orthonormal basis V (n, n - m) of Null(grad h(x*)'), from the
    :attr:`Evaluation.grad_h` rows at the tiled x*; the lifted cone is its
    copy 1 (x) V, since ``netgraph.range_basis`` checks rank S = N - 1.

    Verifies ||grad h(x*)'v|| / sqrt(N) <= 1e-10 for each column v (the
    lifted ||grad h' z|| of z = 1 (x) v / sqrt(N)) and that V has n - m
    columns; :class:`HypothesisViolatedError` otherwise.
    """
    V = _null_space(grad_h, rcond=EIG_ZERO_RTOL)  # the identity without constraints
    if np.any(np.linalg.norm(grad_h @ V, axis=0) / np.sqrt(p.N) > ANNIHILATION_TOL):
        raise HypothesisViolatedError("tangent vector fails the annihilation check")
    if V.shape[1] != p.n - p.m:
        raise HypothesisViolatedError(
            f"nullspace of grad h' has dimension {V.shape[1]}, expected n - m = {p.n - p.m}"
        )
    return V


def _second_order(p: LiftedProblem, grad_h: np.ndarray, blocks: np.ndarray):
    """(sigma_min, mins, margin, failure) at the tiled x* with mu*, from the
    grad h rows and the :func:`lagrangian_hessian_blocks` there: the least
    singular value of grad h(x*), which Assumption 2 asks above 1e-8, the
    least eigenvalue of each block, and that of V'(sum_i hess L_i)V / N
    (Z'H_0 Z for the unit lifted basis Z = 1 (x) V / sqrt(N)).  The margin
    is +inf on a zero cone, and nan when a check fails, whose error is
    ``failure``.
    """
    mins = tuple(np.linalg.eigvalsh(blocks)[:, 0].tolist())
    sigma_min = float(np.linalg.svd(grad_h.T, compute_uv=False)[-1]) if p.m else np.inf
    if sigma_min <= SIGMA_MIN_TOL:
        return sigma_min, mins, np.nan, Assumption2Error(
            f"constraint gradients nearly dependent (sigma_min = {sigma_min:.3e})")
    try:
        V = tangent_cone_basis(p, grad_h)
    except HypothesisViolatedError as err:
        return sigma_min, mins, np.nan, err
    margin = np.min(np.linalg.eigvalsh(V.T @ blocks.sum(axis=0) @ V / p.N), initial=np.inf)
    return sigma_min, mins, float(margin), None


class MinimizerReport(NamedTuple):
    """Which convergence hypotheses hold at a lifted minimizer.  Blockwise
    positivity of hess f_i + mu_i* hess h_i, with Assumption 2, certifies
    the plain first-order iteration; tangent-cone positivity (weaker, and
    false whenever Assumption 2 fails) certifies the augmented first-order
    iteration and the method of multipliers."""

    assumption2_ok: bool
    assumption2_sigma_min: float
    blockwise_pd: bool
    blockwise_min_eigs: tuple[float, ...]
    tangent_cone_pd: bool
    tangent_cone_margin: float  # +inf on a zero cone, nan when a check fails


def verify_minimizer(p: LiftedProblem, x_star: np.ndarray,
                     mu_star: np.ndarray) -> MinimizerReport:
    """Check which convergence hypotheses hold at (x*, mu*), from one stacked
    and one Hessian pass at the tiled x*.  A pure report: violated
    hypotheses are flagged, never raised."""
    x = np.tile(np.asarray(x_star, dtype=float), (p.N, 1))
    mu = np.asarray(mu_star, dtype=float)
    blocks = lagrangian_hessian_blocks(p, x, mu)
    sigma_min, mins, margin, failure = _second_order(p, evaluate(p, x).grad_h, blocks)
    assumption2 = not isinstance(failure, Assumption2Error)
    blockwise = all(v > 0 for v in mins)
    # a failed check, Assumption 2 included, leaves the margin nan
    return MinimizerReport(assumption2, sigma_min, blockwise, mins, margin > 0, margin)


def find_cbar(p: LiftedProblem, point: StationaryPoint) -> float:
    """The penalty c_bar above which hess L_c = H_0 + c M is positive
    definite at the stationary point, with no search: exactly 0.0 when every
    block of H_0 is (``blockwise_pd``), and otherwise from the pencil
    (A, Y'MY): A is the Schur complement of the unit lifted cone Z in H_0 and
    Y = [V_S (x) I_n, 1 (x) W / sqrt(N)] is Z's orthonormal complement, on
    which M = d hess L_c / dc is positive definite.  Its c0 = -lambda_min
    holds to an absolute eps ||(Y'MY)^-1 A||, so one shift-and-invert step
    at the positive definite hess L_2c0 gives c_bar to relative accuracy
    (README).  One stacked and one Hessian pass serve the cone check and
    both steps.  Needs Assumption 2 and tangent-cone positivity; an
    :class:`AnalysisError` otherwise, or when a factorization fails."""
    state, ev = _require_stationary(p, point)
    hess = hessians(p, state.x)
    blocks = lagrangian_hessian_blocks(p, state.x, state.mu, hess=hess)  # at c = 0
    _, mins, margin, failure = _second_order(p, ev.grad_h, blocks)
    if failure is not None:
        raise failure
    if not margin > 0:
        raise HypothesisViolatedError(f"tangent-cone curvature {margin:.3e} is not positive")
    if min(mins) > 0:
        return 0.0
    V, rb, ones = tangent_cone_basis(p, ev.grad_h), p.range_basis, np.full((p.N, 1), p.N**-0.5)
    Y = np.hstack([_lift(p, rb.V), np.kron(ones, _null_space(V.T, rcond=EIG_ZERO_RTOL))])
    P = block_diagonal(lagrangian_hessian_blocks(  # M's blocks: hess L_1's at hess f = mu = 0
        p, state.x, np.zeros(p.m), 1.0, ev, (np.zeros_like(hess[0]), hess[1])))
    H0, Z = block_diagonal(blocks), np.kron(ones, V)
    HZ = H0 @ Z
    A = Y.T @ (H0 - HZ @ np.linalg.solve(Z.T @ HZ, HZ.T)) @ Y
    B = Y.T @ P @ Y + np.diag(np.r_[np.repeat(rb.sigma**2, p.n), np.zeros(p.m)])
    M = P + _lift(p, p.L)
    try:
        C = np.linalg.cholesky(B)
        c0 = -np.linalg.eigvalsh(np.linalg.solve(C, np.linalg.solve(C, A).T))[0]
        if not c0 > 0:  # H_0 is positive semidefinite
            return 0.0
        w, E = np.linalg.eigh(H0 + 2.0 * c0 * M)
        if not w[0] > 0:
            raise AnalysisError(f"hess L_c is not positive definite at c = 2 c0 = {2.0 * c0:.6e}")
        X = E / np.sqrt(w)
        mu_max = np.linalg.eigvalsh(X.T @ M @ X)[-1]
    except np.linalg.LinAlgError as err:
        raise AnalysisError(f"the c_bar eigenproblem failed: {err}") from err
    return max(0.0, float(2.0 * c0 - 1.0 / mu_max))


# ---------------------------------------------------------------------------
# method-of-multipliers rate machinery


def rate_bound_mom(p: LiftedProblem, point: StationaryPoint, c: float) -> SpectralCertificate:
    """Predicted asymptotic multiplier-error ratio of the outer iteration.

    Computes N_c at the stationary point, sandwiches it with
    T = diag(I, I - J), and returns the spectral radius as ``rate_bound``.
    Effective eigenvalues e = c sigma / (1 - sigma) are reported for
    sigma != 1 and the admissibility predicate c > max(-2 e) is checked.
    """
    state, ev = _require_stationary(p, point)
    Hc = hess_aug_lagrangian(p, state, c, ev)
    eig_H = _spectrum(np.linalg.eigvalsh, Hc, f"hess L_c at c = {c}")
    small, large = np.min(np.abs(eig_H)), np.max(np.abs(eig_H))
    if small <= 1e-12 * large:
        raise NeedLargerCError(f"hess L_c is numerically singular at c = {c}: min |eig| = "
                               f"{small:.3e} is at most 1e-12 times max |eig| = {large:.3e}")
    Gh = constraint_jacobian(p, ev.grad_h)
    G = np.hstack([Gh, _lift(p, p.incidence.S).T])
    Nc = np.eye(G.shape[1]) - c * (G.T @ np.linalg.solve(Hc, G))
    R = p.range_basis.R
    T = np.eye(Nc.shape[0])
    T[p.m:, p.m:] = _lift(p, R @ R.T)  # I - J
    Nt = T @ Nc @ T
    sigma = _spectrum(np.linalg.eigvalsh, Nt, f"N_c at c = {c}")
    rate = float(np.max(np.abs(sigma), initial=0.0))  # no multipliers: 0
    effective = np.array([c * s / (1.0 - s) for s in sigma if abs(1.0 - s) > 1e-8])
    admissible = bool(effective.size == 0 or c > float(np.max(-2.0 * effective)))
    return SpectralCertificate("N_c", sigma.astype(complex), bool(rate < 1.0 and admissible),
                               rate_bound=rate, effective_eigenvalues=effective,
                               admissible=admissible)


# ---------------------------------------------------------------------------
# empirical rate estimation


@dataclass(frozen=True)
class RateFit:
    contraction: float
    r_squared: float


def estimate_linear_rate(errors) -> RateFit:
    """Least-squares fit of log(error) vs iteration over the trailing
    ``RATE_TAIL_FRACTION`` of the records.

    Needs at least 20 positive records; the tail is truncated at the first
    non-positive entry (errors at machine-precision floor).
    """
    errors = np.asarray(errors, dtype=float)
    if np.sum(errors > 0) < 20:
        raise ValueError("need at least 20 records with positive errors")
    start = len(errors) - int(np.ceil(RATE_TAIL_FRACTION * len(errors)))
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
    return RateFit(contraction=float(np.exp(coef[1])), r_squared=r2)
