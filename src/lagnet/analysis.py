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
references (``tests/reference.py``).  Since hess L_c = H_0 + c M, with
hess f_i and hess h_i independent of c, one penalty-free pencil (A, Y'MY)
over the (N - 1)n + m directions off the lifted tangent cone serves every
penalty: the asymptotic multiplier-error ratio of the method of
multipliers at c is max |e / (c + e)| over its whitened eigenvalues e, the
effective eigenvalues.  Small e carry an absolute error of order
eps ||(Y'MY)^-1 A||, so c_bar, refined from min e by one shift-and-invert
step, is what decides admissibility, c > 2 c_bar.  Dense Kronecker lifts
are built here on demand, for these dense eigenproblems only; ``eigvals``
is a step-size certificate's one large decomposition, and its zero test
needs an SVD only inside a Frobenius-norm bracket.  The second-order
hypothesis needs no lift: the lifted tangent cone is
1 (x) Null(grad h(x*)').  This module alone decides the hypotheses at a
minimizer (:func:`verify_minimizer` reports them, and the pencil reads
the cone by the same code).  Each certificate evaluates its point once,
in its KKT test, and a failed hypothesis raises an :class:`AnalysisError`.
Neither bound comes from a search: the largest stable step size is
min 2 Re beta / |beta|^2 over the eigenvalues beta of Bq.
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
    """No stable step size exists (or none above the floor 2^-39);
    ``eigenvalues`` holds the restricted iteration matrix's spectrum."""

    def __init__(self, message: str, eigenvalues: np.ndarray):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class HypothesisViolatedError(AnalysisError, RuntimeError):
    """A tangent-cone hypothesis (its dimension, or positivity) does not hold."""


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
    rate_bound: float | None = None
    effective_eigenvalues: np.ndarray | None = None
    admissible: bool | None = None

    def to_json_dict(self) -> dict:
        eig = np.asarray(self.eigenvalues)
        out = {"matrix": self.matrix, "verdict": bool(self.verdict),
               "eigenvalues": np.stack([eig.real, eig.imag], axis=1).tolist()}
        for key in ("alpha_bound", "rate_bound", "effective_eigenvalues", "admissible"):
            if getattr(self, key) is not None:
                out[key] = np.asarray(getattr(self, key)).tolist()
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


def certify_step_size(
    p: LiftedProblem,
    point: StationaryPoint,
    c: float = 0.0,
) -> SpectralCertificate:
    """Largest stable step size, in closed form from the spectrum of Bq.

    For an eigenvalue beta with Re beta > 0, |1 - alpha beta|^2 =
    1 - 2 alpha Re beta + alpha^2 |beta|^2, so rho(I - alpha B) < 1 exactly
    for 0 < alpha < alpha_bound = min 2 Re beta / |beta|^2: the supremum of
    the stable steps, at which rho is 1 up to rounding.  ``eigvals(Bq)`` is
    the one large decomposition: min Re eig > 1e-10 max(||Bq||_2, 1) is
    decided from ||Bq||_F outside the bracket of :func:`_above_zero_tol`.
    Raises :class:`CertificationError` when it fails (no alpha works) or
    alpha_bound is not above 2^-39 (an overflowed |beta|^2 gives 0).
    """
    Bq = _quotient_matrix(p, point, c)
    if not np.isfinite(Bq).all():  # a huge penalty overflows it
        raise AnalysisError(f"{matrix_name(c)} at c = {c} has non-finite entries; "
                            "lower the penalty")
    try:
        eig = np.linalg.eigvals(Bq)
    except np.linalg.LinAlgError as err:
        raise AnalysisError(f"the spectrum of {matrix_name(c)} at c = {c} failed: {err}") from err
    if not _above_zero_tol(np.min(eig.real), Bq, floor=1.0):
        tol = EIG_ZERO_RTOL * max(np.linalg.norm(Bq, 2), 1.0)
        raise CertificationError(
            f"restricted iteration matrix has min Re eig = {np.min(eig.real):.3e}, not above "
            f"1e-10 max(||Bq||_2, 1) = {tol:.3e}; no step size can make the iteration contract",
            eig)
    alpha = float(np.min(2.0 * eig.real / np.abs(eig) ** 2))
    if not alpha > 2**-39:
        raise CertificationError(
            f"the supremum of the stable step sizes, min 2 Re eig / |eig|^2 = {alpha:.3e}, "
            f"is not above the floor 2^-39 = {2**-39:.3e}", eig)
    return SpectralCertificate(matrix_name(c), eig, True, alpha_bound=alpha)


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


def _checked_curvature(p: LiftedProblem, point: StationaryPoint):
    """(x, ev, hess, blocks of H_0, blockwise_pd) at the stationary point from
    one stacked and one Hessian pass, or the :class:`AnalysisError` of its
    KKT test, Assumption 2 or tangent-cone positivity."""
    state, ev = _require_stationary(p, point)
    hess = hessians(p, state.x)
    blocks = lagrangian_hessian_blocks(p, state.x, state.mu, hess=hess)  # at c = 0
    _, mins, margin, failure = _second_order(p, ev.grad_h, blocks)
    if failure is not None:
        raise failure
    if not margin > 0:
        raise HypothesisViolatedError(f"tangent-cone curvature {margin:.3e} is not positive")
    return state.x, ev, hess, blocks, min(mins) > 0


class MomSpectrum(NamedTuple):
    """The penalty-free part of every a3 certificate at a stationary point."""

    effective: np.ndarray  # e, the pencil's whitened eigenvalues, ascending
    c_bar: float  # as find_cbar gives it
    m_max: float  # max |entry| of M


def _pencil(p: LiftedProblem, x: np.ndarray, ev: Evaluation, hess, blocks: np.ndarray,
            blockwise_pd: bool) -> MomSpectrum:
    """The whitened eigenvalues e, ascending, of the pencil (A, Y'MY), and
    c_bar: A is the Schur complement of the unit lifted cone Z in H_0, and
    Y = [V_S (x) I_n, 1 (x) W / sqrt(N)] is Z's orthonormal complement, on
    which M is positive definite.  c0 = -min e holds to an absolute
    eps ||(Y'MY)^-1 A||, so unless ``blockwise_pd`` gives c_bar = 0.0, one
    shift-and-invert step at the positive definite hess L_2c0 refines it to
    relative accuracy (README)."""
    V, rb, ones = tangent_cone_basis(p, ev.grad_h), p.range_basis, np.full((p.N, 1), p.N**-0.5)
    Y = np.hstack([_lift(p, rb.V), np.kron(ones, _null_space(V.T, rcond=EIG_ZERO_RTOL))])
    P = block_diagonal(lagrangian_hessian_blocks(  # M's blocks: hess L_1's at hess f = mu = 0
        p, x, np.zeros(p.m), 1.0, ev, (np.zeros_like(hess[0]), hess[1])))
    H0, Z = block_diagonal(blocks), np.kron(ones, V)
    HZ = H0 @ Z
    A = Y.T @ (H0 - HZ @ np.linalg.solve(Z.T @ HZ, HZ.T)) @ Y
    B = Y.T @ P @ Y + np.diag(np.r_[np.repeat(rb.sigma**2, p.n), np.zeros(p.m)])
    M = P + _lift(p, p.L)
    try:
        C = np.linalg.cholesky(B)
        e = np.linalg.eigvalsh(np.linalg.solve(C, np.linalg.solve(C, A).T))
        c0 = -np.min(e, initial=0.0)  # no directions off the cone: c_bar = 0.0
        if blockwise_pd or not c0 > 0:  # H_0 is blockwise or semidefinite
            return MomSpectrum(e, 0.0, float(np.max(np.abs(M))))
        w, E = np.linalg.eigh(H0 + 2.0 * c0 * M)
        if not w[0] > 0:
            raise AnalysisError(f"hess L_c is not positive definite at c = 2 c0 = {2.0 * c0:.6e}")
        X = E / np.sqrt(w)
        mu_max = np.linalg.eigvalsh(X.T @ M @ X)[-1]
    except np.linalg.LinAlgError as err:
        raise AnalysisError(f"the c_bar eigenproblem failed: {err}") from err
    return MomSpectrum(e, max(0.0, float(2.0 * c0 - 1.0 / mu_max)), float(np.max(np.abs(M))))


def find_cbar(p: LiftedProblem, point: StationaryPoint) -> float:
    """The penalty c_bar above which hess L_c is positive definite at the
    stationary point, with no search: exactly 0.0, forming no pencil, when
    every block of H_0 is (``blockwise_pd``), and otherwise from the pencil.
    Needs Assumption 2 and tangent-cone positivity; an :class:`AnalysisError`
    otherwise, or when a factorization fails."""
    checked = _checked_curvature(p, point)
    return 0.0 if checked[-1] else _pencil(p, *checked).c_bar


# ---------------------------------------------------------------------------
# method-of-multipliers rate


def mom_spectrum(p: LiftedProblem, point: StationaryPoint) -> MomSpectrum:
    """:class:`MomSpectrum` from one pencil, formed even when
    ``blockwise_pd`` holds; the same errors as :func:`find_cbar`."""
    return _pencil(p, *_checked_curvature(p, point))


def rate_bound_mom(spectrum: MomSpectrum, c: float) -> SpectralCertificate:
    """The method of multipliers' certificate at penalty c, in closed form:
    the multiplier map's eigenvalues sigma = e / (c + e), ``rate_bound`` =
    max |sigma|, and ``admissible`` = c > 2 c_bar.  An
    :class:`AnalysisError` where hess L_c has non-finite entries, or is
    singular because c = -e."""
    e = spectrum.effective
    if not np.isfinite(float(c) * spectrum.m_max):
        raise AnalysisError(f"hess L_c at c = {c} has non-finite entries; lower the penalty")
    if np.any(c + e == 0.0):
        raise AnalysisError(f"hess L_c is singular at the penalty c = {float(c)!r}, "
                            "minus an effective eigenvalue")
    sigma = e / (c + e)
    rate = float(np.max(np.abs(sigma), initial=0.0))  # no multipliers: 0
    admissible = bool(c > 2.0 * spectrum.c_bar)
    return SpectralCertificate("N_c", sigma.astype(complex), bool(rate < 1.0 and admissible),
                               rate_bound=rate, effective_eigenvalues=e, admissible=admissible)


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
