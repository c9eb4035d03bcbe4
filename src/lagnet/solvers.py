"""First-order distributed solvers over the lifted problem.

Two synchronous executors compute the same iterates.  Each takes the two
halves of a Lagrangian method: ``descend``, the primal step
x <- x - a grad_x L_c(x, mu, lam), which also returns the gradient rows,
and ``ascend``, the dual step mu <- mu + a h(x), lam <- lam + a S x.  An
a1/a2 ``round`` takes both halves from the round-k state; a3
(``multipliers``) runs descents, then one ascent.

* the **array executor** is the production path: whole-network array
  algebra over the incidence rows (an edge list), with each row sum a
  bincount in incidence-row order and the constrained agents' rows
  gathered and written back once per gradient; the agents' gradients and
  constraints come from one pass over the lifted problem's stacked
  polynomial table (for a problem without tables, from each agent's
  callables in turn);
* the **message executor** keeps one store per agent and routes neighbor
  values (x_j, lam_ji, s_ji) through explicit inboxes to the per-agent
  kernels ``agent_gradient`` and ``agent_ascent``, so an agent's update can
  only read its own state and its neighbors' messages.  It is the locality
  witness.

The kernels add an agent's incident rows in incidence-row order too, so
the two executors' iterates (and hence traces) are bitwise equal; the
tests also check the array executor against an independent whole-vector
reference to 1e-12.

All updates read round-k values and write round-(k+1) values (double
buffering).  :func:`run_first_order` checks the state shapes once and
makes one evaluation per iterate, one stacked table pass for polynomial
agents, whose grad F, h and grad h serve the round.  Rounds run ahead in
blocks of up to ``BLOCK`` iterates, and one batched pass per block gives
the KKT rows, the divergence test and the trace rows (the per-agent f is
the objective); a run discards at most BLOCK - 1 rounds past its stop.
The a3 inner loop holds mu_k and lam_k fixed, so it passes S'lam_k,
computed once per inner solve, to every descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import (
    Evaluation,
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_state,
    constraint_values,
    evaluate,
    kkt_norms,
    row_norms,
)

DIVERGENCE_NORM = 1e8
BLOCK = 32  # a1/a2 iterates per batched check (run_first_order)

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
# per-agent kernel and its static plan (message executor)


@dataclass(frozen=True)
class AgentPlan:
    """Static, purely local bookkeeping for one agent's update.

    ``merged`` lists the rows incident to the agent in the global
    (lexicographic) incidence row order: ``(is_own, slot, j)`` where own
    rows (a, j) index the agent's multiplier slots and foreign rows (j, a)
    name the neighbor whose message carries lam_ji and s_ji.
    """

    neighbors: tuple[int, ...]
    w_own: np.ndarray
    l_own: np.ndarray
    merged: tuple[tuple[bool, int, int], ...]
    mu_index: int | None
    global_rows: np.ndarray


def build_agent_plans(p: LiftedProblem) -> tuple[AgentPlan, ...]:
    inc = p.incidence
    incident = [[] for _ in range(p.N)]  # (is_own, row, other end) in row order
    for r, (i, j) in enumerate(inc.row_order):
        incident[i].append((True, r, j))
        incident[j].append((False, r, i))
    mu_of = {a: k for k, a in enumerate(p.constrained_agents)}
    plans = []
    for a, rows in enumerate(incident):
        own = [r for is_own, r, _ in rows if is_own]
        slot = {r: s for s, r in enumerate(own)}
        global_rows = np.array(own, dtype=int)
        plans.append(AgentPlan(
            neighbors=tuple(j for is_own, _, j in rows if is_own),
            w_own=inc.weights[global_rows],
            l_own=inc.laplacian_weights[global_rows],
            merged=tuple((is_own, slot.get(r, -1), j) for is_own, r, j in rows),
            mu_index=mu_of.get(a),
            global_rows=global_rows,
        ))
    return tuple(plans)


def agent_gradient(local, plan: AgentPlan, x, mu_i, lam_own, inbox, c: float):
    """The agent's block of grad_x L_c at round-k values; ``inbox`` maps
    neighbor j to (x_j, lam_ji, s_ji)."""
    lam_force = np.zeros(local.dim)
    for is_own, slot, j in plan.merged:
        if is_own:
            lam_force = lam_force + plan.w_own[slot] * lam_own[slot]
        else:
            lam_force = lam_force - inbox[j][2] * inbox[j][1]
    g = local.grad_f(x) + lam_force
    if local.constrained:
        gh = local.grad_h(x)
        g = g + mu_i * gh
        if c != 0.0:
            g = g + (c * local.h(x)) * gh
    if c != 0.0:
        cons = np.zeros(local.dim)
        for slot, j in enumerate(plan.neighbors):
            cons = cons + plan.l_own[slot] * (x - inbox[j][0])
        g = g + c * cons
    return g


def agent_ascent(local, plan: AgentPlan, x, mu_i, lam_own, inbox, step: float):
    """The agent's multiplier ascent at round-k values: mu_i + step h_i(x_i)
    and lam_ij + step s_ij (x_i - x_j) on its own rows."""
    mu_new = mu_i + step * local.h(x) if local.constrained else None
    lam_new = lam_own.copy()
    for slot, j in enumerate(plan.neighbors):
        lam_new[slot] = lam_own[slot] + step * (plan.w_own[slot] * (x - inbox[j][0]))
    return mu_new, lam_new


# ---------------------------------------------------------------------------
# executors


class ArrayExecutor:
    """Runs rounds as whole-network array algebra (production path).

    Descent x <- x - a (grad F + grad h mu + S'lam [+ c grad h h + c L x])
    and ascent mu <- mu + a h, lam <- lam + a S x, evaluated on the edge
    list of the incidence rows.  The two row sums (S'lam and the consensus
    term) are ``np.bincount`` scatters, which add in input order: in
    incidence-row order, the order in which the per-agent kernel adds an
    agent's incident rows, so every iterate equals the message executor's
    bit for bit.  A round takes x_i - x_j once for both of its halves.
    Rows are gathered with ``take`` and written back with ``put`` at flat
    indices built once: on arrays of a few rows, fancy indexing costs
    several times as much.
    """

    def __init__(self, p: LiftedProblem):
        self.p, inc = p, p.incidence
        self.tail, self.head = inc.tail, inc.head
        self.w, self.lap_w = inc.weights[:, None], inc.laplacian_weights[:, None]
        self.constrained = np.array(p.constrained_agents, dtype=int)
        rows = (inc.tail, np.column_stack([inc.tail, inc.head]).ravel(),  # ends: tail, head
                self.constrained)
        self.tail_at, self.ends_at, self.constrained_at = (
            (r[:, None] * p.n + np.arange(p.n)).ravel() for r in rows)
        self.size, self.shape = p.N * p.n, (p.N, p.n)

    def _row_sum(self, at, values):
        """Row r of ``values`` added at the flat (agent, coordinate) indices ``at``."""
        return np.bincount(at, weights=values.ravel(), minlength=self.size).reshape(self.shape)

    def _diff(self, x):
        """x_i - x_j on every incidence row (i, j)."""
        return x.take(self.tail, axis=0) - x.take(self.head, axis=0)

    def lam_force(self, lam):
        """S'lam: +s_ij lam_ij at the tail i, -s_ij lam_ij at the head j."""
        wlam = self.w * lam
        return self._row_sum(self.ends_at, np.concatenate([wlam, -wlam], axis=1))

    def _gradient(self, mu, c, ev: Evaluation, lam_force, diff):
        """grad_x L_c rows (N, n); ``diff`` holds x_i - x_j, read when c != 0.
        The constrained rows are gathered once and written back once."""
        gh = ev.grad_h
        g = ev.grad_f + lam_force
        gc = g.take(self.constrained, axis=0) + mu[:, None] * gh
        if c != 0.0:
            gc = gc + (c * ev.h)[:, None] * gh
        g.put(self.constrained_at, gc)
        return g + c * self._row_sum(self.tail_at, self.lap_w * diff) if c != 0.0 else g

    def descend(self, state: MultiplierState, step, c, ev: Evaluation | None = None,
                lam_force=None):
        """x - step grad_x L_c with mu and lam shared, and the gradient rows
        (N, n); ``ev`` is the evaluation at state.x and ``lam_force`` is
        S'state.lam when the caller already has them."""
        x = state.x
        if ev is None:
            ev = evaluate(self.p, x)
        if lam_force is None:
            lam_force = self.lam_force(state.lam)
        g = self._gradient(state.mu, c, ev, lam_force, self._diff(x) if c != 0.0 else None)
        return MultiplierState(x - step * g, state.mu, state.lam), g

    def ascend(self, state: MultiplierState, step, h=None) -> MultiplierState:
        """mu + step h(x) and lam + step S x with x shared; ``h`` is h(state.x)
        when the caller already has it."""
        x = state.x
        h = constraint_values(self.p, x) if h is None else h
        return MultiplierState(x, state.mu + step * h,
                               state.lam + step * (self.w * self._diff(x)))

    def round(self, state: MultiplierState, alpha, c, ev: Evaluation | None = None):
        """One a1/a2 round: descent and ascent both from ``state``."""
        x = state.x
        ev = evaluate(self.p, x) if ev is None else ev
        diff = self._diff(x)
        g = self._gradient(state.mu, c, ev, self.lam_force(state.lam), diff)
        return MultiplierState(x - alpha * g, state.mu + alpha * ev.h,
                               state.lam + alpha * (self.w * diff))


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

    def _each_agent(self, kernel, boxes, *args):
        return [kernel(self.p.agents[a], plan, store.x, store.mu, store.lam, boxes[a], *args)
                for a, (plan, store) in enumerate(zip(self.plans, self.stores))]

    def lam_force(self, _lam_unused):
        """None: each agent reads its lam rows from its own store."""
        return None

    def descend(self, _state_unused, step, c, _ev_unused=None, lam_force=None):
        grads = self._each_agent(agent_gradient, self._mailboxes(), c)
        for store, g in zip(self.stores, grads):
            store.x = store.x - step * g
        return self._state(), np.array(grads)

    def ascend(self, _state_unused, step, _h_unused=None) -> MultiplierState:
        for store, (mi, li) in zip(self.stores,
                                   self._each_agent(agent_ascent, self._mailboxes(), step)):
            store.mu, store.lam = mi, li
        return self._state()

    def round(self, _state_unused, alpha, c, _ev_unused=None) -> MultiplierState:
        boxes = self._mailboxes()  # both halves read round-k messages
        grads = self._each_agent(agent_gradient, boxes, c)
        ascents = self._each_agent(agent_ascent, boxes, alpha)
        for store, g, (mi, li) in zip(self.stores, grads, ascents):
            store.x, store.mu, store.lam = store.x - alpha * g, mi, li
        return self._state()

    def _state(self) -> MultiplierState:
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
    return ArrayExecutor(p).round(state, alpha, c)


# ---------------------------------------------------------------------------
# driver


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


@dataclass
class RunResult:
    """Outcome of a solver run; ``iterations`` counts rounds for a1 and a2
    and outer iterations for a3."""

    trace: Trace
    state: MultiplierState
    status: str
    iterations: int


class TraceRecorder:
    """Collects the trace rows of every algorithm as arrays, a block of
    iterates at a time."""

    def __init__(self, p: LiftedProblem, reference: StationaryPoint | None, keep_states: bool):
        self.p = p
        self.reference = reference
        self.x_star = None if reference is None else reference.lifted_x(p.N)
        # (k, err_x, err_mu, dist_lambda, kkt, objective) of each block, from
        # an empty one, so that a trace without rows concatenates too
        self.blocks = [(np.zeros(0, dtype=int), np.zeros((0, p.N)), *np.zeros((2, 0)),
                        np.zeros((0, 3)), np.zeros(0))]
        self.outer = []
        self.states: list[MultiplierState] | None = [] if keep_states else None

    def record(self, k0: int, states, evaluations, outer=None):
        """Append rows k0, k0 + 1, ... of ``states`` and their evaluations
        (:func:`evaluate`) in one batched pass, every row with the bits of
        that state alone; ``outer`` is (c_k, eps_k, inner_iters) of an a3
        row.  Returns the rows' KKT totals (:attr:`KKTResidual.total`) and
        state norms max(||x||, ||mu||, ||lam||).  dist_lambda is
        ||R'(lam - lam*)||, the distance of lam to the multiplier set
        lam* + Null(S') (a set: the lifted minimizers are not regular).  The
        objective adds the f_i in agent order from 0.0; the accumulate
        starts from f_0, and + 0.0 mends an all -0.0 row."""
        p, B = self.p, len(states)
        x, mu, lam = (np.array([getattr(s, name) for s in states]) for name in ("x", "mu", "lam"))
        ev = Evaluation(*map(np.array, zip(*evaluations)))
        kkt = kkt_norms(p, x, mu, lam, ev)
        point = self.reference
        if point is None:
            err_x, err_mu, dist = np.full((B, p.N), np.nan), *np.full((2, B), np.nan)
        else:
            err_x = np.linalg.norm((x - self.x_star).reshape(-1, p.n), axis=1).reshape(B, p.N)
            err_mu = row_norms(mu - point.mu)
            dist = row_norms(np.matmul(p.range_basis.R.T, lam - point.lam).reshape(B, -1))
        objective = np.add.accumulate(ev.f, axis=1)[:, -1] + 0.0
        self.blocks.append((np.arange(k0, k0 + B), err_x, err_mu, dist, kkt, objective))
        if outer is not None:
            self.outer.append(outer)
        if self.states is not None:
            self.states += [state.copy() for state in states]
        norm = row_norms(x.reshape(B, -1))
        for w in (row_norms(mu), row_norms(lam.reshape(B, -1))):
            norm = np.where(w > norm, w, norm)  # as max(): a later nan never wins
        return [math.sqrt(s**2 + h**2 + q**2) for s, h, q in kkt.tolist()], norm.tolist()

    def build(self, rows: int | None = None) -> Trace:
        """The trace of the first ``rows`` recorded rows (all by default)."""
        k, err_x, err_mu, dist, kkt, objective = (np.concatenate(column)[:rows]
                                                  for column in zip(*self.blocks))
        outer = {}
        if self.outer or not len(k):  # a1 and a2 always record their start
            c, eps, inner = np.array(self.outer, dtype=float).reshape(-1, 3).T
            outer = dict(c=c, eps=eps, inner_iters=inner.astype(int))
        states = None if self.states is None else self.states[:rows]
        return Trace(k=k, err_x=err_x, err_mu=err_mu, dist_lambda=dist, kkt=kkt,
                     objective=objective, states=states, **outer)


def run_first_order(
    p: LiftedProblem,
    config: FirstOrderConfig,
    reference: StationaryPoint | None = None,
    engine: str = "arrays",
    keep_states: bool = False,
) -> RunResult:
    """Iterate a1/a2 until the KKT residual drops below tol.

    Terminates with status ``converged``, ``iteration-cap``, or
    ``diverged`` (iterate norm above 1e8 or non-finite); divergence is a
    status, not an exception, and raises no floating-point warning.  Each
    iterate gets one evaluation (:func:`evaluate`), which serves the round
    from it.  Rounds run ahead, unchecked, in blocks of up to ``BLOCK``
    iterates; one batched pass (:meth:`TraceRecorder.record`) then gives
    the block's KKT totals, state norms and trace rows, and the run keeps
    the rows up to the first that would stop a row-by-row loop.  So it
    discards at most BLOCK - 1 rounds past its stop and runs none past
    max_iter; an exception raised ahead is raised only when that loop
    would have reached the call.
    """
    check_state(p, config.init)
    executor = make_executor(p, config.init, engine)
    state = config.init.copy()
    c = config.effective_c
    recorder = TraceRecorder(p, reference, keep_states)
    with np.errstate(over="ignore", invalid="ignore"):
        # the last block ends at row max_iter, which always stops the run
        for k0 in range(0, config.max_iter + 1, BLOCK):
            states, evaluations, error = [], [], None
            try:
                for k in range(k0, min(k0 + BLOCK, config.max_iter + 1)):
                    if k:  # the round from row k - 1
                        state = executor.round(state, config.alpha, c, ev)
                    ev = evaluate(p, state.x)
                    states.append(state)
                    evaluations.append(ev)
            except Exception as exc:  # raised below unless an earlier row stops the run
                if not states:
                    raise
                error = exc
            totals, norms = recorder.record(k0, states, evaluations)
            for k, (total, norm) in enumerate(zip(totals, norms), k0):
                if total <= config.tol:
                    status = STATUS_CONVERGED
                elif not math.isfinite(total) or norm > DIVERGENCE_NORM:
                    status = STATUS_DIVERGED
                elif k == config.max_iter:
                    status = STATUS_ITERATION_CAP
                else:
                    continue
                return RunResult(trace=recorder.build(k + 1), state=states[k - k0],
                                 status=status, iterations=k)
            if error is not None:
                raise error
