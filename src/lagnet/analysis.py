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
an :class:`AnalysisError`.  The two thresholds, c_bar and the largest
stable step size, come from one search (:func:`_threshold`); c_bar's reads
one Hessian pass, since hess f_i and hess h_i do not depend on c.
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
    """The augmented Hessian is singular; increase the penalty."""


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


def _threshold(above, floor: float, cap: float = np.inf) -> tuple[float, float]:
    """A bracket (lo, hi) of the threshold of a predicate that holds from it
    upwards: not above(lo), above(hi) and (hi - lo) / hi <= 1e-3.  It starts
    at 1 and halves down to ``floor`` or doubles up to ``cap``, moving both
    ends, then bisects; (0, floor) when above(floor) holds and (cap, inf)
    when above(cap) fails."""
    if above(1.0):
        lo, hi = 0.5, 1.0
        while above(lo):
            if lo <= floor:
                return 0.0, lo
            lo, hi = lo / 2.0, lo
    else:
        lo, hi = 1.0, 2.0
        while not above(hi):
            if hi >= cap:
                return hi, np.inf
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
    return SpectralCertificate(
        matrix=matrix_name(c),
        eigenvalues=eig,
        verdict=True,
        alpha_bound=float(lo),
        rho_star=rho,
    )


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
    """(sigma_min, margin, failure) at the tiled x* with mu*, from the
    grad h rows and the :func:`lagrangian_hessian_blocks` there: the least
    singular value of grad h(x*), which Assumption 2 asks above 1e-8, and
    the least eigenvalue of V'(sum_i hess L_i)V / N (Z'H_0 Z for the unit
    lifted basis Z = 1 (x) V / sqrt(N)).  The margin is +inf on a zero
    cone, and nan when a check fails, whose error is ``failure``.
    """
    sigma_min = float(np.linalg.svd(grad_h.T, compute_uv=False)[-1]) if p.m else np.inf
    if sigma_min <= SIGMA_MIN_TOL:
        return sigma_min, np.nan, Assumption2Error(
            f"constraint gradients nearly dependent (sigma_min = {sigma_min:.3e})")
    try:
        V = tangent_cone_basis(p, grad_h)
    except HypothesisViolatedError as err:
        return sigma_min, np.nan, err
    if V.shape[1] == 0:
        return sigma_min, np.inf, None
    return sigma_min, float(np.min(np.linalg.eigvalsh(V.T @ blocks.sum(axis=0) @ V / p.N))), None


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
    sigma_min, margin, failure = _second_order(p, evaluate(p, x).grad_h, blocks)
    mins = tuple(float(np.min(np.linalg.eigvalsh(block))) for block in blocks)
    assumption2 = not isinstance(failure, Assumption2Error)
    blockwise = all(v > 0 for v in mins)
    # a failed check, Assumption 2 included, leaves the margin nan
    return MinimizerReport(assumption2, sigma_min, blockwise, mins, margin > 0, margin)


def find_cbar(p: LiftedProblem, point: StationaryPoint) -> float:
    """Smallest penalty (to relative width 1e-3) making hess L_c positive
    definite at the stationary point; 0 when the plain Hessian already is.
    The upper end of :func:`_threshold`'s bracket, which halves down to
    2^-60 (a smaller threshold is reported as 2^-60) or doubles up to 2^60,
    so its lower end is always a tested non-positive penalty.  Each step
    decides definiteness by a Cholesky attempt.  hess f_i and hess h_i do
    not depend on c, so one Hessian pass at x* serves the cone check and
    every attempt.

    Requires Assumption 2 and tangent-cone positivity (an
    :class:`AnalysisError` otherwise), which guarantee the threshold exists.
    """
    state, ev = _require_stationary(p, point)
    hess = hessians(p, state.x)
    blocks = lagrangian_hessian_blocks(p, state.x, state.mu, hess=hess)  # at c = 0
    _, margin, failure = _second_order(p, ev.grad_h, blocks)
    if failure is not None:
        raise failure
    if not margin > 0:
        raise HypothesisViolatedError(
            f"tangent-cone curvature is not positive (margin {margin:.3e})"
        )

    def positive(c: float) -> bool:
        try:
            np.linalg.cholesky(hess_aug_lagrangian(p, state, c, ev, hess))
        except np.linalg.LinAlgError:
            return False
        return True

    if positive(0.0):
        return 0.0
    _, hi = _threshold(positive, floor=2**-60, cap=2**60)
    if hi == np.inf:
        raise HypothesisViolatedError("no finite penalty makes the Hessian positive")
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
    state, ev = _require_stationary(p, point)
    Hc = hess_aug_lagrangian(p, state, c, ev)
    eig_H = _spectrum(np.linalg.eigvalsh, Hc, f"hess L_c at c = {c}")
    if np.min(np.abs(eig_H)) <= 1e-12 * np.max(np.abs(eig_H)):
        raise NeedLargerCError(
            f"hess L_c is numerically singular at c = {c}; increase the penalty"
        )
    Gh = constraint_jacobian(p, ev.grad_h)
    G = np.hstack([Gh, _lift(p, p.incidence.S).T])
    Nc = np.eye(G.shape[1]) - c * (G.T @ np.linalg.solve(Hc, G))
    m = p.m
    R = p.range_basis.R
    T = np.eye(Nc.shape[0])
    T[m:, m:] = _lift(p, R @ R.T)  # I - J
    Nt = T @ Nc @ T
    sigma = _spectrum(np.linalg.eigvalsh, Nt, f"N_c at c = {c}")
    rate = float(np.max(np.abs(sigma), initial=0.0))  # no multipliers: 0
    effective = np.array([c * s / (1.0 - s) for s in sigma if abs(1.0 - s) > 1e-8])
    admissible = bool(effective.size == 0 or c > float(np.max(-2.0 * effective)))
    return SpectralCertificate(
        matrix="N_c",
        eigenvalues=sigma.astype(complex),
        verdict=bool(rate < 1.0 and admissible),
        rate_bound=rate,
        effective_eigenvalues=effective,
        admissible=admissible,
    )


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
