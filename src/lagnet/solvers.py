"""First-order distributed solvers over the lifted problem.

Two synchronous per-round executors share one per-agent update kernel:

* the **array executor** keeps global stacked arrays and is the production
  path;
* the **message executor** keeps one store per agent and routes neighbor
  values (x_j, lam_ji, s_ji) through explicit inboxes, so an agent's
  update can only read its own state and its neighbors' messages.

Both call the identical kernel on identical values in identical order, so
their iterates (and hence traces) are bitwise equal; :func:`stacked_step`
is an independent whole-vector implementation used to cross-validate the
kernel to 1e-12.

All rounds are synchronous: every update reads round-k values and writes
round-(k+1) values (double buffering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .problem import (
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_state,
    eval_lifted_objective,
    kkt_residual,
)

DIVERGENCE_NORM = 1e8

STATUS_CONVERGED = "converged"
STATUS_ITERATION_CAP = "iteration-cap"
STATUS_DIVERGED = "diverged"


class SettingError(ValueError):
    """An out-of-range solver setting; ``field`` names the dataclass field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


@dataclass(frozen=True)
class FirstOrderConfig:
    """Settings for the plain (a1) and augmented (a2) first-order iterations."""

    algorithm: str
    alpha: float
    init: MultiplierState
    c: float = 0.0
    max_iter: int = 10000
    tol: float = 1e-9

    def __post_init__(self):
        if self.algorithm not in ("a1", "a2"):
            raise SettingError("algorithm", f"must be 'a1' or 'a2', got {self.algorithm!r}")
        if not self.alpha > 0:
            raise SettingError("alpha", "must be > 0")
        if not self.c >= 0:
            raise SettingError("c", "must be >= 0")
        if self.max_iter < 0:
            raise SettingError("max_iter", "must be >= 0")
        if self.algorithm == "a1" and self.c != 0.0:
            raise SettingError("c", "must be 0 under a1, which uses no penalty")

    @property
    def effective_c(self) -> float:
        return self.c if self.algorithm == "a2" else 0.0


# ---------------------------------------------------------------------------
# per-agent kernel and its static plan


@dataclass(frozen=True)
class AgentPlan:
    """Static, purely local bookkeeping for one agent's update.

    ``merged`` lists the rows incident to the agent in the global
    (lexicographic) incidence row order: ``(is_own, slot, j)`` where own
    rows (a, j) index the agent's multiplier slots and foreign rows (j, a)
    name the neighbor whose message carries lam_ji and s_ji.
    """

    index: int
    neighbors: tuple[int, ...]
    w_own: np.ndarray
    l_own: np.ndarray
    merged: tuple[tuple[bool, int, int], ...]
    mu_index: int | None
    global_rows: np.ndarray


def build_agent_plans(p: LiftedProblem) -> tuple[AgentPlan, ...]:
    row_of = {pair: r for r, pair in enumerate(p.incidence.row_order)}
    w = p.incidence.weights
    plans = []
    for a in range(p.N):
        nbrs = tuple(sorted(j for (i, j) in p.incidence.row_order if i == a))
        slots = {j: s for s, j in enumerate(nbrs)}
        w_own = np.array([w[row_of[(a, j)]] for j in nbrs])
        l_own = np.array(
            [w[row_of[(a, j)]] ** 2 + w[row_of[(j, a)]] ** 2 for j in nbrs]
        )
        incident = [(pair, pair[0] == a) for pair in p.incidence.row_order if a in pair]
        merged = tuple(
            (is_own, slots[pair[1]] if is_own else -1, pair[1] if is_own else pair[0])
            for pair, is_own in incident
        )
        mu_index = (
            p.constrained_agents.index(a) if a in p.constrained_agents else None
        )
        plans.append(
            AgentPlan(
                index=a,
                neighbors=nbrs,
                w_own=w_own,
                l_own=l_own,
                merged=merged,
                mu_index=mu_index,
                global_rows=np.array([row_of[(a, j)] for j in nbrs], dtype=int),
            )
        )
    return tuple(plans)


def agent_first_order_update(
    local,
    plan: AgentPlan,
    x,
    mu_i,
    lam_own,
    inbox,
    x_step: float,
    mult_step: float,
    c: float,
    update_multipliers: bool,
):
    """One agent's synchronous update from round-k values.

    ``inbox`` maps neighbor j to (x_j, lam_ji, s_ji).  Returns the new
    (x_i, mu_i, own lam rows) plus the squared norm of the x-direction
    gradient, which for the inner penalized iteration is the agent's block
    of grad_x L_c.
    """
    lam_force = np.zeros(local.dim)
    for is_own, slot, j in plan.merged:
        if is_own:
            lam_force = lam_force + plan.w_own[slot] * lam_own[slot]
        else:
            lam_force = lam_force - inbox[j][2] * inbox[j][1]
    g = local.grad_f(x) + lam_force
    hval = None
    if local.constrained:
        hval = local.h(x)
        gh = local.grad_h(x)
        g = g + mu_i * gh
        if c != 0.0:
            g = g + (c * hval) * gh
    if c != 0.0:
        cons = np.zeros(local.dim)
        for slot, j in enumerate(plan.neighbors):
            cons = cons + plan.l_own[slot] * (x - inbox[j][0])
        g = g + c * cons
    x_new = x - x_step * g
    if update_multipliers:
        mu_new = mu_i + mult_step * hval if local.constrained else None
        lam_new = lam_own.copy()
        for slot, j in enumerate(plan.neighbors):
            lam_new[slot] = lam_own[slot] + mult_step * (
                plan.w_own[slot] * (x - inbox[j][0])
            )
    else:
        mu_new = mu_i
        lam_new = lam_own
    return x_new, mu_new, lam_new, float(g @ g)


def agent_outer_update(local, plan: AgentPlan, x, mu_i, lam_own, inbox, c: float):
    """Multiplier-only update of the outer method-of-multipliers step."""
    mu_new = mu_i + c * local.h(x) if local.constrained else None
    lam_new = lam_own.copy()
    for slot, j in enumerate(plan.neighbors):
        lam_new[slot] = lam_own[slot] + c * (plan.w_own[slot] * (x - inbox[j][0]))
    return mu_new, lam_new


# ---------------------------------------------------------------------------
# executors


class ArrayExecutor:
    """Runs rounds on global stacked arrays (production path)."""

    def __init__(self, p: LiftedProblem):
        self.p = p
        self.plans = build_agent_plans(p)
        self._row_of = {pair: r for r, pair in enumerate(p.incidence.row_order)}

    def _inbox(self, a: int, x, lam):
        w = self.p.incidence.weights
        box = {}
        for j in self.plans[a].neighbors:
            r = self._row_of[(j, a)]
            box[j] = (x[j], lam[r], w[r])
        return box

    def round(self, state: MultiplierState, x_step, mult_step, c, update_multipliers):
        p = self.p
        x, mu, lam = state.x, state.mu, state.lam
        x_new = np.empty_like(x)
        mu_new = np.empty_like(mu)
        lam_new = np.empty_like(lam)
        grad_sq = 0.0
        for a, plan in enumerate(self.plans):
            mu_i = mu[plan.mu_index] if plan.mu_index is not None else None
            xi, mi, li, gsq = agent_first_order_update(
                p.agents[a],
                plan,
                x[a],
                mu_i,
                lam[plan.global_rows],
                self._inbox(a, x, lam),
                x_step,
                mult_step,
                c,
                update_multipliers,
            )
            x_new[a] = xi
            if plan.mu_index is not None:
                mu_new[plan.mu_index] = mi if mi is not None else mu_i
            lam_new[plan.global_rows] = li if update_multipliers else lam[plan.global_rows]
            grad_sq += gsq
        if not update_multipliers:
            mu_new = mu.copy()
            lam_new = lam.copy()
        return MultiplierState(x_new, mu_new, lam_new), grad_sq

    def outer(self, state: MultiplierState, c: float) -> MultiplierState:
        p = self.p
        x, mu, lam = state.x, state.mu, state.lam
        mu_new = mu.copy()
        lam_new = np.empty_like(lam)
        for a, plan in enumerate(self.plans):
            mu_i = mu[plan.mu_index] if plan.mu_index is not None else None
            mi, li = agent_outer_update(
                p.agents[a], plan, x[a], mu_i, lam[plan.global_rows],
                self._inbox(a, x, lam), c,
            )
            if plan.mu_index is not None:
                mu_new[plan.mu_index] = mi
            lam_new[plan.global_rows] = li
        return MultiplierState(x.copy(), mu_new, lam_new)


class _AgentStore:
    """All one agent may hold in message mode: its own variables."""

    __slots__ = ("x", "mu", "lam")

    def __init__(self, x, mu, lam):
        self.x = x
        self.mu = mu
        self.lam = lam


class MessageExecutor:
    """Runs rounds through per-agent stores and explicit neighbor messages.

    The stores are populated once from the initial state; afterwards no
    global array exists in the update path, so an agent can only see its
    own variables plus the (x_j, lam_ji, s_ji) messages of its neighbors.
    """

    def __init__(self, p: LiftedProblem, init: MultiplierState):
        self.p = p
        self.plans = build_agent_plans(p)
        check_state(p, init)
        self.stores = []
        for a, plan in enumerate(self.plans):
            mu_i = init.mu[plan.mu_index] if plan.mu_index is not None else None
            self.stores.append(
                _AgentStore(init.x[a].copy(), mu_i, init.lam[plan.global_rows].copy())
            )

    def _mailboxes(self):
        boxes = [dict() for _ in range(self.p.N)]
        for a, plan in enumerate(self.plans):
            store = self.stores[a]
            for slot, j in enumerate(plan.neighbors):
                boxes[j][a] = (store.x, store.lam[slot], plan.w_own[slot])
        return boxes

    def round(self, _state_unused, x_step, mult_step, c, update_multipliers):
        boxes = self._mailboxes()
        updates = []
        grad_sq = 0.0
        for a, plan in enumerate(self.plans):
            store = self.stores[a]
            xi, mi, li, gsq = agent_first_order_update(
                self.p.agents[a], plan, store.x, store.mu, store.lam, boxes[a],
                x_step, mult_step, c, update_multipliers,
            )
            updates.append((xi, mi, li))
            grad_sq += gsq
        for store, (xi, mi, li) in zip(self.stores, updates):
            store.x = xi
            if update_multipliers:
                store.mu = mi
                store.lam = li
        return self.state(None), grad_sq

    def outer(self, _state_unused, c: float) -> MultiplierState:
        boxes = self._mailboxes()
        updates = []
        for a, plan in enumerate(self.plans):
            store = self.stores[a]
            updates.append(
                agent_outer_update(
                    self.p.agents[a], plan, store.x, store.mu, store.lam, boxes[a], c
                )
            )
        for store, (mi, li) in zip(self.stores, updates):
            store.mu = mi
            store.lam = li
        return self.state(None)

    def state(self, _unused) -> MultiplierState:
        p = self.p
        x = np.empty((p.N, p.n))
        mu = np.empty(p.m)
        lam = np.empty((p.num_pairs, p.n))
        for a, plan in enumerate(self.plans):
            store = self.stores[a]
            x[a] = store.x
            if plan.mu_index is not None:
                mu[plan.mu_index] = store.mu
            lam[plan.global_rows] = store.lam
        return MultiplierState(x, mu, lam)


def make_executor(p: LiftedProblem, init: MultiplierState, engine: str):
    if engine == "arrays":
        return ArrayExecutor(p)
    if engine == "message":
        return MessageExecutor(p, init)
    raise ValueError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# single steps (public operations)


def step_a1(p: LiftedProblem, state: MultiplierState, alpha: float) -> MultiplierState:
    """One synchronous round of the plain first-order multiplier iteration.

    x_i <- x_i - a [grad f_i + mu_i grad h_i + sum_j (s_ij lam_ij - s_ji lam_ji)],
    mu_i <- mu_i + a h_i(x_i),  lam_ij <- lam_ij + a s_ij (x_i - x_j),
    all right-hand sides at round-k values.
    """
    return step_a2(p, state, alpha, 0.0)


def step_a2(
    p: LiftedProblem, state: MultiplierState, alpha: float, c: float
) -> MultiplierState:
    """A1 round plus the augmented terms -a c h_i grad h_i and
    -a c sum_j (s_ij^2 + s_ji^2)(x_i - x_j) in the x update; c = 0 reduces
    exactly to :func:`step_a1`."""
    FirstOrderConfig(algorithm="a2", alpha=alpha, init=state, c=c)  # range checks
    check_state(p, state)
    new, _ = ArrayExecutor(p).round(state, alpha, alpha, c, True)
    return new


def stacked_step(
    p: LiftedProblem, state: MultiplierState, config: FirstOrderConfig
) -> MultiplierState:
    """The same round computed by whole-vector matrix algebra.

    Independent of the per-agent kernel; used to cross-validate it
    (agreement to 1e-12 componentwise).
    """
    from .problem import constraint_values, grad_aug_lagrangian

    check_state(p, state)
    alpha, c = config.alpha, config.effective_c
    g = grad_aug_lagrangian(p, state, c)
    x_new = state.x.ravel() - alpha * g
    mu_new = state.mu + alpha * constraint_values(p, state.x)
    lam_new = state.lam.ravel() + alpha * (p.S_lift @ state.x.ravel())
    return MultiplierState(
        x=x_new.reshape(p.N, p.n),
        mu=mu_new,
        lam=lam_new.reshape(p.num_pairs, p.n),
    )


# ---------------------------------------------------------------------------
# driver


def reference_errors(p: LiftedProblem, state: MultiplierState, point: StationaryPoint):
    """Distances of an iterate to the reference point: per-agent
    ||x_i - x*||, ||mu - mu*|| and the distance of lam to the multiplier
    set lam* + Null(S') (a set, because the lifted minimizers are not
    regular)."""
    err_x = np.linalg.norm(state.x - point.lifted_x(p.N), axis=1)
    err_mu = float(np.linalg.norm(state.mu - point.mu))
    dist_l = analysis.dist_to_multiplier_set(state.lam, point.lam, p.projector.J)
    return err_x, err_mu, dist_l


@dataclass
class Trace:
    """Per-iteration diagnostics of a1, a2 and a3.

    Row k describes the state after k rounds (a1, a2) or after inner solve
    k, before the multiplier update (a3).  The a3 columns ``c``, ``eps``
    and ``inner_iters`` are ``None`` for a1 and a2.
    """

    k: np.ndarray
    err_x: np.ndarray
    err_mu: np.ndarray
    dist_lambda: np.ndarray
    kkt: np.ndarray
    objective: np.ndarray
    c: np.ndarray | None = None
    eps: np.ndarray | None = None
    inner_iters: np.ndarray | None = None
    states: list[MultiplierState] | None = None
    problem_hash: str | None = None

    def __len__(self):
        return len(self.k)

    @property
    def csv_header(self) -> str:
        header = "k,agent,err_x,err_mu,dist_lambda,kkt_stat,kkt_h,kkt_cons,objective"
        return header + (",c_k,eps_k,inner_iters" if self.inner_iters is not None else "")

    @property
    def err_eta(self) -> np.ndarray:
        """Joint multiplier error sqrt(err_mu^2 + dist_lambda^2)."""
        return np.hypot(self.err_mu, self.dist_lambda)

    def csv_rows(self):
        num_agents = self.err_x.shape[1]
        for row in range(len(self.k)):
            outer = ()
            if self.inner_iters is not None:
                outer = (self.c[row], self.eps[row], int(self.inner_iters[row]))
            for agent in range(num_agents):
                yield (
                    int(self.k[row]),
                    agent,
                    self.err_x[row, agent],
                    self.err_mu[row],
                    self.dist_lambda[row],
                    self.kkt[row, 0],
                    self.kkt[row, 1],
                    self.kkt[row, 2],
                    self.objective[row],
                ) + outer


@dataclass
class RunResult:
    """Outcome of a solver run; ``iterations`` counts rounds for a1 and a2
    and outer iterations for a3."""

    trace: Trace
    state: MultiplierState
    status: str
    iterations: int


class TraceRecorder:
    """Collects one trace row per recorded iterate, for every algorithm."""

    def __init__(self, p: LiftedProblem, reference: StationaryPoint | None, keep_states: bool):
        self.p = p
        self.reference = reference
        self.rows = []
        self.outer = []
        self.states: list[MultiplierState] | None = [] if keep_states else None

    def record(self, k: int, state: MultiplierState, kkt, outer=None) -> None:
        """Append row k; ``outer`` is (c_k, eps_k, inner_iters) for a3."""
        p = self.p
        if self.reference is not None:
            errors = reference_errors(p, state, self.reference)
        else:
            errors = (np.full(p.N, np.nan), np.nan, np.nan)
        self.rows.append((k, *errors, kkt.as_tuple(), eval_lifted_objective(p, state.x)))
        if outer is not None:
            self.outer.append(outer)
        if self.states is not None:
            self.states.append(state.copy())

    def build(self, problem_hash=None) -> Trace:
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
            states=self.states,
            problem_hash=problem_hash,
            **outer,
        )


def _state_norm(state: MultiplierState) -> float:
    return max(
        float(np.linalg.norm(state.x)),
        float(np.linalg.norm(state.mu)) if state.mu.size else 0.0,
        float(np.linalg.norm(state.lam)),
    )


def run_first_order(
    p: LiftedProblem,
    config: FirstOrderConfig,
    reference: StationaryPoint | None = None,
    engine: str = "arrays",
    keep_states: bool = False,
    problem_hash: str | None = None,
) -> RunResult:
    """Iterate a1/a2 until the KKT residual drops below tol.

    Terminates with status ``converged``, ``iteration-cap``, or
    ``diverged`` (iterate norm above 1e8 or non-finite); divergence is a
    status, not an exception.
    """
    check_state(p, config.init)
    executor = make_executor(p, config.init, engine)
    state = config.init.copy() if engine == "arrays" else executor.state(None)
    c = config.effective_c
    recorder = TraceRecorder(p, reference, keep_states)
    status = STATUS_ITERATION_CAP
    iterations = config.max_iter
    for k in range(config.max_iter + 1):
        res = kkt_residual(p, state)
        recorder.record(k, state, res)
        if res.total <= config.tol:
            status = STATUS_CONVERGED
            iterations = k
            break
        if not np.isfinite(res.total) or _state_norm(state) > DIVERGENCE_NORM:
            status = STATUS_DIVERGED
            iterations = k
            break
        if k == config.max_iter:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            state, _ = executor.round(state, config.alpha, config.alpha, c, True)
    return RunResult(
        trace=recorder.build(problem_hash), state=state, status=status, iterations=iterations
    )
