"""First-order distributed solvers over the lifted problem.

Two synchronous executors compute the same iterates through one contract
on :class:`StateBlock` rows, each read from row src, whose evaluation E[src]
the caller makes first: ``descend_into(blk, src, dst, step, c, lam_force)``
writes x - step grad_x L_c(x, mu, lam) into row dst and the gradient rows
into D[src]; ``round_into(blk, src, dst, alpha, c)``, an a1/a2 round, also
the ascent mu + alpha h(x), lam + alpha S x; ``ascend`` is a3's outer step.

* the **array executor** is the production path: whole-network array
  algebra over the incidence rows (an edge list), on flat state rows, with
  one bincount scatter per round for both row sums (S'lam and the
  consensus term, each bin added in incidence-row order) and the
  constrained agents' entries gathered and written back once per
  gradient; the agents' gradients and constraints come from E[src];
* the **message executor** keeps one store per agent and routes neighbor
  values (x_j, lam_ji, s_ji) through explicit inboxes to the per-agent
  kernels ``agent_gradient`` and ``agent_ascent``, so an agent's update
  reads only its own state, its own one-row tables and its neighbors'
  messages, never Z or E.  It is the locality witness, and copies its
  stores into row dst.

The kernels add an agent's incident rows in incidence-row order too, so
the two executors' iterates (and hence traces) are bitwise equal; the
tests also check the array executor against an independent whole-vector
reference to 1e-12.

Iterates live in a :class:`StateBlock`: a flat state buffer Z whose row
packs [x.ravel(), mu, lam.ravel()], a direction buffer D and an
evaluation buffer E, all preallocated.  Every update reads row-k values
and writes row k + 1 in place, Z[k + 1] = Z[k] - step D[k]; an a1/a2
round writes its ascent into D as -h and -w (x_i - x_j), bit for bit the
same update.  :func:`run_first_order` checks the state shapes once and
makes one evaluation per iterate, the stacked table's pass written into
E, whose grad F, h and grad h serve the round.  Rounds run ahead in
blocks of up to ``BLOCK`` iterates, and one batched pass per block over
views of the buffers gives the KKT rows, the divergence test and the
trace rows (the per-agent f is the objective); a run discards at most
BLOCK - 1 rounds past its stop.  The a3 inner solve
(``multipliers.inner_minimize``) runs its descents ahead in the same
blocks.  A table pass raises nothing (its exponents are >= 0, and both
loops run under ``np.errstate``), so a block is filled by a plain loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problem import (
    Evaluation,
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_state,
    constraint_values,
    evaluate_into,
    evaluation_size,
    evaluation_views,
    kkt_norms,
    row_norms,
)

DIVERGENCE_NORM = 1e8
BLOCK = 32  # iterates per batched check (a1/a2 rounds, a3 inner descents)

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


class StateBlock:
    """Preallocated iterates of one block, written in place.

    Row r of the state buffer ``Z`` packs [x.ravel(), mu, lam.ravel()] (the
    layout of ``tests/reference.pack_state``) and one trailing 0.0, a slot
    the update kernel gathers where it needs a zero and never writes.  Row r
    of ``D`` holds the direction taken from row r, so that the next row is
    Z[r] - step D[r]; row r of ``E`` holds the evaluation at its x in the
    stacked table's layout (:func:`evaluation_views`).  ``x``, ``mu``,
    ``lam``, ``g`` (the x part of D) and ``ev`` view the buffers with a
    leading row axis; ``rows[r]`` holds the views the kernel reads and
    writes of row r.
    """

    @staticmethod
    def offsets(p: LiftedProblem) -> tuple[int, int, int]:
        """Where mu, lam and the zero slot start in a row; x starts at 0."""
        mu_at = p.N * p.n
        return mu_at, mu_at + p.m, mu_at + p.m + p.num_pairs * p.n

    def __init__(self, p: LiftedProblem, size: int):
        self.p, (N, n, m, P) = p, (p.N, p.n, p.m, p.num_pairs)
        nN, lam_at, zero = self.offsets(p)
        self.Z, self.D = np.zeros((size, zero + 1)), np.zeros((size, zero + 1))
        self.E = np.zeros((size, evaluation_size(p)))
        self.x = self.Z[:, :nN].reshape(size, N, n)
        self.mu = self.Z[:, nN:lam_at]
        self.lam = self.Z[:, lam_at:zero].reshape(size, P, n)
        self.g = self.D[:, :nN].reshape(size, N, n)
        self.ev = evaluation_views(p, self.E)
        grad_f, h, grad_h = self.ev[:3]
        grad_h = grad_h.reshape(size, m * n) if m else [None] * size  # flat rows
        self.rows = list(zip(self.Z, self.Z[:, :zero], self.D[:, :zero], self.g,
                             self.D[:, nN:lam_at], self.D[:, lam_at:zero], grad_f, h, grad_h))

    def put(self, r: int, state: MultiplierState) -> None:
        np.concatenate([state.x.ravel(), state.mu, state.lam.ravel()], out=self.rows[r][1])

    def put_evaluation(self, r: int, ev: Evaluation) -> None:
        for view, value in zip(self.ev, ev):
            view[r] = value

    def state(self, r: int) -> MultiplierState:
        """A copy of the state in row r."""
        return MultiplierState(self.x[r].copy(), self.mu[r].copy(), self.lam[r].copy())

    def evaluation(self, r: int) -> Evaluation:
        """A copy of the evaluation in row r."""
        return evaluation_views(self.p, self.E[r].copy())

    def head(self, rows: int):
        """x, mu, lam and the evaluations of the first ``rows`` rows (views)."""
        return (self.x[:rows], self.mu[:rows], self.lam[:rows],
                Evaluation(*(v[:rows] for v in self.ev)))


class ArrayExecutor:
    """Runs rounds as whole-network array algebra (production path).

    Descent x <- x - a (grad F + grad h mu + S'lam [+ c grad h h + c L x])
    and ascent mu <- mu + a h, lam <- lam + a S x, evaluated on the edge
    list of the incidence rows.  The row sums (S'lam and the consensus
    term) are ``np.bincount`` scatters, which add in input order: in
    incidence-row order, the order in which the per-agent kernel adds an
    agent's incident rows, so every iterate equals the message executor's
    bit for bit.  One kernel, :meth:`_advance`, updates a row of a
    :class:`StateBlock` in place (``round_into`` and ``descend_into``).  It
    works on flat rows, gathered with ``take`` and written back with ``put``
    at flat indices built once: on arrays of a few entries, fancy indexing
    and broadcasting cost several times as much.
    """

    def __init__(self, p: LiftedProblem):
        self.p, inc, n = p, p.incidence, p.n
        self.tail, self.head = inc.tail, inc.head
        self.w = inc.weights[:, None]
        rows = (inc.tail, np.column_stack([inc.tail, inc.head]).ravel(),  # ends: tail, head
                np.array(p.constrained_agents, dtype=int), inc.head)
        self.tail_at, self.ends_at, self.constrained_at, self.head_at = (
            (r[:, None] * n + np.arange(n)).ravel() for r in rows)
        self.size, self.shape = p.N * n, (p.N, n)
        mu_at, self.lam_at, self.zero = StateBlock.offsets(p)
        self.mu_at = np.repeat(np.arange(mu_at, self.lam_at), n)  # mu_i at grad h_i
        self.h_at = np.repeat(np.arange(p.m), n)
        self.lap_w = np.repeat(inc.laplacian_weights, n)
        self.descent_plan = (self.tail_at, self.head_at, self.lap_w, self.tail_at, self.size)

    @cached_property
    def round_plan(self):
        """(take, subtract, scale, at, bins) of a round: per incidence row, it
        gathers lam - 0 twice (from the StateBlock's zero slot) for w lam at
        the tail and -w lam at the head, in row order, then x_i - x_j for the
        consensus bins (offset by N n), and last x_i - x_j for the ascent,
        -w (x_i - x_j), which the scatter does not read."""
        nN, n, P = self.size, self.p.n, len(self.tail)
        lam_at = np.arange(self.lam_at, self.zero).reshape(P, 1, n)
        w = np.repeat(self.w, n, axis=1)
        return (np.concatenate([np.repeat(lam_at, 2, axis=1).ravel(), self.tail_at, self.tail_at]),
                np.concatenate([np.full(2 * P * n, self.zero), self.head_at, self.head_at]),
                np.concatenate([np.stack([w, -w], axis=1).ravel(), self.lap_w, -w.ravel()]),
                np.concatenate([self.ends_at, self.tail_at + nN]), 2 * nN)

    def _row_sum(self, at, values):
        """Row r of ``values`` added at the flat (agent, coordinate) indices ``at``."""
        return np.bincount(at, weights=values.ravel(), minlength=self.size).reshape(self.shape)

    def lam_force(self, lam):
        """S'lam: +s_ij lam_ij at the tail i, -s_ij lam_ij at the head j."""
        wlam = self.w * lam
        return self._row_sum(self.ends_at, np.concatenate([wlam, -wlam], axis=1))

    def _advance(self, blk: StateBlock, src: int, dst: int, step, c, lam_force=None):
        """The update kernel: D[src] <- the direction at row src, whose
        evaluation is E[src], then Z[dst] <- Z[src] - step D[src].  Without
        ``lam_force`` it is an a1/a2 round: one scatter gives S'lam and the
        consensus sum, and the ascent is folded in as -h and -w (x_i - x_j),
        since a - step (-b) is a + step b bit for bit.  With ``lam_force``
        (S'lam) it is a descent, and mu and lam keep their bits (D's entries
        for them stay 0).  The constrained entries are gathered once and
        written back once."""
        z, state, d, g, d_mu, d_lam, grad_f, h, grad_h = blk.rows[src]
        take, subtract, scale, at, bins = self.round_plan if lam_force is None else self.descent_plan
        if lam_force is None or c != 0.0:
            weights = (z.take(take) - z.take(subtract)) * scale
            sums = np.bincount(at, weights[:len(at)], minlength=bins).reshape(-1, *self.shape)
        if lam_force is None:
            lam_force = sums[0]
            np.negative(h, out=d_mu)
            np.copyto(d_lam, weights[len(at):])
        np.add(grad_f, lam_force, out=g)
        if grad_h is not None:
            gc = g.take(self.constrained_at) + z.take(self.mu_at) * grad_h
            if c != 0.0:
                gc = gc + (c * h).take(self.h_at) * grad_h
            g.put(self.constrained_at, gc)
        if c != 0.0:
            np.add(g, c * sums[-1], out=g)
        np.subtract(state, step * d, out=blk.rows[dst][1])

    round_into = descend_into = _advance

    def ascend(self, state: MultiplierState, step, h=None) -> MultiplierState:
        """mu + step h(x) and lam + step S x with x shared; ``h`` is h(state.x)
        when the caller already has it."""
        x = state.x
        h = constraint_values(self.p, x) if h is None else h
        diff = x.take(self.tail, axis=0) - x.take(self.head, axis=0)
        return MultiplierState(x, state.mu + step * h, state.lam + step * (self.w * diff))


class _AgentStore:
    """All one agent may hold in message mode: its own variables."""

    __slots__ = ("x", "mu", "lam")

    def __init__(self, x, mu, lam):
        self.x, self.mu, self.lam = x, mu, lam


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
        self.stores = [_AgentStore(init.x[a].copy(),
                                   None if plan.mu_index is None else init.mu[plan.mu_index],
                                   init.lam[plan.global_rows].copy())
                       for a, plan in enumerate(self.plans)]

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

    def ascend(self, _state_unused, step, _h_unused=None) -> MultiplierState:
        for store, (mi, li) in zip(self.stores,
                                   self._each_agent(agent_ascent, self._mailboxes(), step)):
            store.mu, store.lam = mi, li
        return self._state()

    def round_into(self, blk: StateBlock, _src_unused, dst: int, alpha, c):
        """Row dst of ``blk`` <- a copy of the stores after one round, whose
        two halves both read the round-k messages."""
        boxes = self._mailboxes()
        grads = self._each_agent(agent_gradient, boxes, c)
        ascents = self._each_agent(agent_ascent, boxes, alpha)
        for store, g, (mi, li) in zip(self.stores, grads, ascents):
            store.x, store.mu, store.lam = store.x - alpha * g, mi, li
        blk.put(dst, self._state())

    def descend_into(self, blk: StateBlock, src: int, dst: int, step, c, _lam_force_unused):
        """Row dst of ``blk`` <- a copy of the stores after one descent, its
        gradient rows in D[src]."""
        blk.g[src] = grads = self._each_agent(agent_gradient, self._mailboxes(), c)
        for store, g in zip(self.stores, grads):
            store.x = store.x - step * g
        blk.put(dst, self._state())

    def _state(self) -> MultiplierState:
        p = self.p
        x, mu, lam = np.empty((p.N, p.n)), np.empty(p.m), np.empty((p.num_pairs, p.n))
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

    def record(self, k0: int, x, mu, lam, ev: Evaluation, outer=None):
        """Append rows k0, k0 + 1, ... of the states (x, mu, lam) stacked on a
        leading axis and their stacked evaluations (:func:`evaluate`) in one
        batched pass, every row with the bits of that state alone; ``outer``
        is (c_k, eps_k, inner_iters) of an a3 row.  Returns the rows' KKT
        totals (:attr:`KKTResidual.total`) and state norms max(||x||, ||mu||,
        ||lam||).  dist_lambda is ||R'(lam - lam*)||, the distance of lam to
        the multiplier set lam* + Null(S') (a set: the lifted minimizers are
        not regular).  The objective adds the f_i in agent order from 0.0;
        the accumulate starts from f_0, and + 0.0 mends an all -0.0 row."""
        p, B = self.p, len(x)
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
            self.states += [MultiplierState(*(v[b].copy() for v in (x, mu, lam)))
                            for b in range(B)]
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
    max_iter.
    """
    check_state(p, config.init)
    executor = make_executor(p, config.init, engine)
    c = config.effective_c
    recorder = TraceRecorder(p, reference, keep_states)
    blk = StateBlock(p, BLOCK)
    blk.put(0, config.init)
    with np.errstate(over="ignore", invalid="ignore"):
        # the last block ends at row max_iter, which always stops the run
        for k0 in range(0, config.max_iter + 1, BLOCK):
            rows = min(BLOCK, config.max_iter + 1 - k0)
            for b in range(rows):
                if k0 + b:  # the round from row k - 1, at b = 0 the last of a block
                    executor.round_into(blk, b - 1, b, config.alpha, c)
                evaluate_into(p, blk.x[b], blk.E[b])
            totals, norms = recorder.record(k0, *blk.head(rows))
            for k, (total, norm) in enumerate(zip(totals, norms), k0):
                if total <= config.tol:
                    status = STATUS_CONVERGED
                elif not math.isfinite(total) or norm > DIVERGENCE_NORM:
                    status = STATUS_DIVERGED
                elif k == config.max_iter:
                    status = STATUS_ITERATION_CAP
                else:
                    continue
                return RunResult(trace=recorder.build(k + 1), state=blk.state(k - k0),
                                 status=status, iterations=k)
