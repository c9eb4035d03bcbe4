"""Distributed method of multipliers: outer multiplier/penalty loop around
an inner distributed gradient descent on the augmented Lagrangian.

Outer iteration k minimizes L_{c_k}(., mu_k, lam_k) approximately (inner
gradient rounds obey the same locality contract as the first-order
solvers), then updates

    mu_i  += c_k h_i(x_i),        lam_ij += c_k s_ij (x_i - x_j),

with penalties growing as c_{k+1} = min(beta c_k, c_max) and inner
accuracy tightening geometrically, eps_k = eps0 gamma^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import (
    CapabilityError,
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_state,
    hess_aug_lagrangian,
    kkt_residual,
)
from .solvers import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_ITERATION_CAP,
    RunResult,
    SettingError,
    TraceRecorder,
    make_executor,
)


class InnerDivergenceError(RuntimeError):
    """The inner gradient iteration produced a non-finite iterate."""


@dataclass(frozen=True)
class InnerSchedule:
    """Diminishing inner step sizes alpha_tau = a / (tau + b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise SettingError("a", "must be > 0")
        if not self.b > 0:
            raise SettingError("b", "must be > 0, as the first step is a / b")

    def __call__(self, tau: int) -> float:
        return self.a / (tau + self.b)


@dataclass(frozen=True)
class MoMConfig:
    init: MultiplierState
    c0: float = 1.0
    beta: float = 2.0
    c_max: float = 16.0
    inner_alpha: float | None = None
    inner_schedule: InnerSchedule | None = None
    eps0: float = 1e-2
    gamma: float = 0.5
    inner_max_iter: int = 20000
    outer_max_iter: int = 30
    tol: float = 1e-9

    def __post_init__(self):
        if not self.c0 > 0:
            raise SettingError("c0", "must be > 0")
        if not self.beta > 1:
            raise SettingError("beta", "must be > 1")
        if self.c_max < self.c0:
            raise SettingError("c_max", "must be >= c0")
        if not self.eps0 > 0:
            raise SettingError("eps0", "must be > 0")
        if not 0 < self.gamma < 1:
            raise SettingError("gamma", "must lie in (0, 1)")
        if self.outer_max_iter < 1:
            raise SettingError("outer_max_iter", "must be >= 1")
        if self.inner_alpha is not None and not self.inner_alpha > 0:
            raise SettingError("inner_alpha", "must be > 0")
        if self.inner_alpha is not None and self.inner_schedule is not None:
            raise SettingError("inner_alpha", "excludes inner_schedule; give one of them")


def penalty_schedule(config: MoMConfig, k: int) -> float:
    """c_k under c_{k+1} = min(beta c_k, c_max): non-decreasing, capped."""
    if k < 0:
        raise ValueError("k must be >= 0")
    c = config.c0
    for _ in range(k):
        c = min(config.beta * c, config.c_max)
    return c


def default_inner_alpha(p: LiftedProblem, state: MultiplierState, c: float) -> float:
    """Constant inner step 1/||hess L_c|| at the warm start."""
    if not p.has_hessians:
        raise CapabilityError(
            "no Hessians available to size the inner step; set inner_alpha"
        )
    H = hess_aug_lagrangian(p, state, c)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(H))))
    if norm <= 0:
        return 1.0
    return 1.0 / norm


def inner_minimize(
    p: LiftedProblem,
    x_init: np.ndarray,
    mu_k: np.ndarray,
    lam_k: np.ndarray,
    c_k: float,
    config: MoMConfig,
    eps_k: float | None = None,
    engine: str = "arrays",
):
    """Gradient descent on x -> L_{c_k}(x, mu_k, lam_k) from a warm start.

    Runs synchronous distributed rounds until ||grad_x L_{c_k}|| <= eps_k,
    or returns the iterate at ``inner_max_iter`` with ``converged=False``.
    Returns ``(x, iterations, converged)``.
    """
    state = MultiplierState(
        x=np.array(x_init, dtype=float, copy=True),
        mu=np.array(mu_k, dtype=float, copy=True),
        lam=np.array(lam_k, dtype=float, copy=True),
    )
    check_state(p, state)
    if eps_k is None:
        eps_k = config.eps0
    executor = make_executor(p, state, engine)
    current = state if engine == "arrays" else executor.state(None)
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
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            new, grad_sq = executor.round(current, step_of(tau), 0.0, c_k, False)
        if np.sqrt(grad_sq) <= eps_k:
            return current.x, tau, True
        if not np.isfinite(grad_sq) or not np.all(np.isfinite(new.x)):
            raise InnerDivergenceError(
                f"non-finite inner iterate at tau = {tau}; "
                "the inner step size is likely too large"
            )
        current = new
        tau += 1
        if tau >= config.inner_max_iter:
            return current.x, tau, False


def outer_step(
    p: LiftedProblem, state: MultiplierState, c_k: float, engine: str = "arrays"
) -> MultiplierState:
    """Multiplier updates mu_i += c_k h_i(x_i), lam_ij += c_k s_ij (x_i - x_j);
    x is left unchanged (it already holds the inner solution)."""
    check_state(p, state)
    return make_executor(p, state, engine).outer(state, c_k)


def run_a3(
    p: LiftedProblem,
    config: MoMConfig,
    reference: StationaryPoint | None = None,
    engine: str = "arrays",
    keep_states: bool = False,
    problem_hash: str | None = None,
) -> RunResult:
    """Alternate inner minimization and multiplier updates until the KKT
    residual of the plain Lagrangian drops below tol; a non-finite inner
    iterate ends the run with status ``diverged``."""
    check_state(p, config.init)
    state = config.init.copy()
    recorder = TraceRecorder(p, reference, keep_states)
    status = STATUS_ITERATION_CAP
    outer_count = config.outer_max_iter
    for k in range(config.outer_max_iter):
        c_k = penalty_schedule(config, k)
        eps_k = config.eps0 * config.gamma**k
        try:
            x_k, inner_iters, _ = inner_minimize(
                p, state.x, state.mu, state.lam, c_k, config, eps_k, engine
            )
        except InnerDivergenceError:
            status = STATUS_DIVERGED
            outer_count = k
            break
        state = state.with_x(x_k)
        res = kkt_residual(p, state)
        recorder.record(k, state, res, outer=(c_k, eps_k, inner_iters))
        if res.total <= config.tol:
            status = STATUS_CONVERGED
            outer_count = k + 1
            break
        state = outer_step(p, state, c_k, engine)
    return RunResult(
        trace=recorder.build(problem_hash), state=state, status=status, iterations=outer_count
    )
