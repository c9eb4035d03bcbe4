"""Distributed method of multipliers: outer multiplier/penalty loop around
an inner distributed gradient descent on the augmented Lagrangian.

Outer iteration k minimizes L_{c_k}(., mu_k, lam_k) approximately (inner
gradient rounds obey the same locality contract as the first-order
solvers), then updates

    mu_i  += c_k h_i(x_i),        lam_ij += c_k s_ij (x_i - x_j),

with penalties growing as c_{k+1} = min(beta c_k, c_max) and inner
accuracy tightening geometrically, eps_k = eps0 gamma^k.

An inner solve runs the a1/a2 loop, ``solvers.blocks``, for both engines,
one executor call (``advance``) per block of ``DESCENT_BLOCK`` (32)
descents, as it stops once per solve (a1/a2 stop once per run, 128 rounds
a block): descent b writes the stacked table's pass at x[b] into row b (the
first stage of the array executor's program), the gradient rows into D[b]
and x into row b + 1 at the step of its own index tau, and keeps mu_k and
lam_k: a descent runs the program of an a2 round at c_k and steps x alone.
One batched pass per block takes the gradient norms and the finite tests
and keeps the first descent a row-by-row loop would stop at, so a solve
runs none past ``inner_max_iter`` and raises ``InnerDivergenceError`` where
that loop raises.  Every solve hands back the evaluation at the x it
returns, the loop's lone pass at the cap included: ``run_a3`` takes the KKT
row, the trace objective and the ascent's h from it, and the next solve its
default step.  The next solve's first descent makes the pass at that x once
more, inside its kernel: one pass per solve repeats an x already evaluated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .problem import (
    Evaluation,
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_state,
    hess_aug_lagrangian,
)
from .solvers import (
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_ITERATION_CAP,
    DESCENT_BLOCK,
    RunResult,
    SettingError,
    TraceRecorder,
    blocks,
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
        if not self.c_max >= self.c0:
            raise SettingError("c_max", "must be >= c0")
        if not self.eps0 > 0:
            raise SettingError("eps0", "must be > 0")
        if not 0 < self.gamma < 1:
            raise SettingError("gamma", "must lie in (0, 1)")
        if self.inner_max_iter < 1:
            raise SettingError("inner_max_iter", "must be >= 1")
        if self.outer_max_iter < 1:
            raise SettingError("outer_max_iter", "must be >= 1")
        if self.inner_alpha is not None and not self.inner_alpha > 0:
            raise SettingError("inner_alpha", "must be > 0")
        if self.inner_alpha is not None and self.inner_schedule is not None:
            raise SettingError("inner_alpha", "excludes inner_schedule; give one of them")
        if not self.tol >= 0:
            raise SettingError("tol", "must be >= 0")


def penalty_schedule(config: MoMConfig):
    """c_0, c_1, ... under c_{k+1} = min(beta c_k, c_max): non-decreasing,
    capped, one step per outer iteration."""
    c = config.c0
    while True:
        yield c
        c = min(config.beta * c, config.c_max)


def default_inner_alpha(
    p: LiftedProblem, state: MultiplierState, c: float, ev: Evaluation | None = None
) -> float:
    """Constant inner step 1/||hess L_c|| at the warm start; ``ev`` is the
    evaluation at state.x when it is at hand."""
    H = hess_aug_lagrangian(p, state, c, ev)
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
    ev: Evaluation | None = None,
):
    """Gradient descent on x -> L_{c_k}(x, mu_k, lam_k) from a warm start.

    Runs synchronous distributed descents until ||grad_x L_{c_k}|| <= eps_k,
    or returns the iterate at ``inner_max_iter`` with ``converged=False``.
    Returns ``(x, iterations, converged, evaluation)``: the evaluation at x
    (``problem.evaluate``) is the table pass of the descent that stopped the
    solve, or the loop's lone pass at the cap.  ``ev`` is the evaluation at
    x_init when the caller has it; it serves the default step.

    Descents run ahead in blocks (see the module docstring); the squared
    norm of each is summed agent by agent in agent order from the dots of
    its gradient rows, all taken in one batched matrix product per block.
    """
    state = MultiplierState(*(np.array(v, dtype=float) for v in (x_init, mu_k, lam_k)))
    eps = np.array(config.eps0 if eps_k is None else eps_k, float)
    schedule, cap, alpha = config.inner_schedule, config.inner_max_iter, config.inner_alpha
    if schedule is None and alpha is None:
        alpha = default_inner_alpha(p, state, c_k, ev)
    sizes = (itertools.repeat(np.array(alpha, float)) if schedule is None  # a 0-d step
             else map(schedule, itertools.count()))
    with np.errstate(over="ignore", invalid="ignore"):
        for blk, tau, rows in blocks(p, state, engine, cap, DESCENT_BLOCK, sizes, c_k, True):
            done = min(rows, cap - tau)  # the descents; a row past them is x at the cap
            # each row of the batched product is the dot g_a @ g_a, bit for
            # bit; an einsum row sum rounds differently (n >= 2)
            g = blk.g[:done]
            grad_sq = np.add.accumulate((g[:, :, None, :] @ g[:, :, :, None])[..., 0, 0],
                                        axis=1)[:, -1]
            finite = np.logical_and.reduce(np.isfinite(blk.x[1:done + 1]), (1, 2))
            stop, ok = np.sqrt(grad_sq) <= eps, np.isfinite(grad_sq) & finite
            for b in (stop | ~ok).nonzero()[0][:1].tolist():
                if stop[b]:
                    return blk.x[b].copy(), tau + b, True, blk.evaluation(b)
                raise InnerDivergenceError(
                    f"non-finite inner iterate at tau = {tau + b}; "
                    "the inner step size is likely too large"
                )
            if done < rows:
                return blk.x[done].copy(), cap, False, blk.evaluation(done)


def outer_step(
    p: LiftedProblem, state: MultiplierState, c_k: float, engine: str = "arrays", h=None
) -> MultiplierState:
    """Multiplier updates mu_i += c_k h_i(x_i), lam_ij += c_k s_ij (x_i - x_j);
    x is left unchanged (it already holds the inner solution).  ``h`` is
    h(state.x) when the caller already has it; the message engine's agents
    evaluate their own."""
    check_state(p, state)
    return make_executor(p, state, engine).ascend(state, c_k, h)


def run_a3(p: LiftedProblem, config: MoMConfig, reference: StationaryPoint | None = None,
           engine: str = "arrays") -> RunResult:
    """Alternate inner minimization and multiplier updates until the KKT
    residual of the plain Lagrangian drops below tol; a non-finite inner
    iterate ends the run with status ``diverged``."""
    check_state(p, config.init)
    state = config.init.copy()
    recorder = TraceRecorder(p, reference)
    status = STATUS_ITERATION_CAP
    ev = None  # the evaluation at state.x, which every solve hands back
    with np.errstate(over="ignore", invalid="ignore"):
        for k, c_k in zip(range(config.outer_max_iter), penalty_schedule(config)):
            eps_k = config.eps0 * config.gamma**k
            try:
                x_k, inner_iters, _, ev = inner_minimize(
                    p, state.x, state.mu, state.lam, c_k, config, eps_k, engine, ev
                )
            except InnerDivergenceError:
                status = STATUS_DIVERGED
                break
            state = state.with_x(x_k)
            # ev serves the KKT row, the objective, the ascent and the next warm start
            one = (v[None] for v in (state.x, state.mu, state.lam))
            (total,), _ = recorder.record(k, *one, Evaluation(*(v[None] for v in ev)),
                                          outer=(c_k, eps_k, inner_iters))
            if total <= config.tol:
                status = STATUS_CONVERGED
                break
            state = outer_step(p, state, c_k, engine, ev.h)
    trace = recorder.build()
    return RunResult(trace=trace, state=state, status=status, iterations=len(trace))
