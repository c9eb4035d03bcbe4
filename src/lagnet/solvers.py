"""First-order distributed solvers over the lifted problem.

Iterates live in a :class:`StateBlock`, one flat row per iterate,
[x | mu | lam | 0.0 | 1.0 | evaluation | power slots], all preallocated:
step b reads row b and writes row b + 1.  Two synchronous executors
compute the same iterates through one contract, one call per block:
``advance(blk, count, steps, c, descent)`` runs rows 0..count - 1 in turn,
each writing the stacked table's pass at x[b] (grad F, h, grad h, the
per-agent f) into E[b], x - steps[b] grad_x L_c(x, mu, lam) into row b + 1,
and the gradient rows into D[b] (a descent) or the ascent mu + steps[b] h,
lam + steps[b] S x (an a1/a2 round).  ``ascend`` is a3's outer step.

* the **array executor** is the production path: one fixed
  :class:`TwoStageProgram` per penalty c, compiled once per problem, read
  once per block, runs a round or a descent, table pass included, as two
  gather-scale-scatter stages over the row, whose bincounts add the table's
  terms and the row sums (S'lam, mu and the consensus term), and then the
  gradient's terms bin by bin in incidence-row order;
* the **message executor** keeps one store per agent and routes neighbor
  values (x_j, lam_ji, s_ji) through explicit inboxes to the per-agent
  kernels ``agent_gradient`` and ``agent_ascent``, so an agent's update
  reads only its own state, its own one-row table and its neighbors'
  messages, never a row.  It is the locality witness; it makes E[b] with
  the table's own pass (:meth:`StateBlock.evaluate`) and copies its stores
  into row b + 1.

The kernels add in the same order, so the two executors' iterates (and
hence traces) are bitwise equal.  :func:`blocks` is the one loop of
:func:`run_first_order` and the a3 inner solve
(``multipliers.inner_minimize``): it runs rounds or descents ahead in blocks
of up to ``BLOCK`` iterates, one ``advance`` each, the row at the cap with
a lone table pass, and
its caller's one batched pass per block over views of the rows keeps the
rows up to the first a row-by-row loop would stop at, so it discards at
most BLOCK - 1 steps.  A table pass raises nothing (the callers and a3's
outer loop run under ``np.errstate``).
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .problem import (
    Evaluation,
    LiftedProblem,
    MultiplierState,
    StationaryPoint,
    check_state,
    evaluate,
    evaluation_size,
    evaluation_views,
    kkt_norms,
    objective_total,
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
        if not self.tol >= 0:
            raise SettingError("tol", "must be >= 0")
        if self.algorithm == "a1" and self.c != 0.0:
            raise SettingError("c", "must be 0 under a1, which uses no penalty")


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
    s_lam = np.zeros(local.dim)
    for is_own, slot, j in plan.merged:
        if is_own:
            s_lam = s_lam + plan.w_own[slot] * lam_own[slot]
        else:
            s_lam = s_lam - inbox[j][2] * inbox[j][1]
    _, grad_f, h, gh = local.values(x)
    g = grad_f + s_lam
    if local.constrained:
        g = g + mu_i * gh
        if c != 0.0:
            g = g + (c * h) * gh
    if c != 0.0:
        cons = np.zeros(local.dim)
        for slot, j in enumerate(plan.neighbors):
            cons = cons + plan.l_own[slot] * (x - inbox[j][0])
        g = g + c * cons
    return g


def agent_ascent(local, plan: AgentPlan, x, mu_i, lam_own, inbox, step: float):
    """The agent's multiplier ascent at round-k values: mu_i + step h_i(x_i)
    and lam_ij + step s_ij (x_i - x_j) on its own rows."""
    mu_new = mu_i + step * local.values(x)[2] if local.constrained else None
    lam_new = lam_own.copy()
    for slot, j in enumerate(plan.neighbors):
        lam_new[slot] = lam_own[slot] + step * (plan.w_own[slot] * (x - inbox[j][0]))
    return mu_new, lam_new


# ---------------------------------------------------------------------------
# executors


class StateBlock:
    """Preallocated iterates of one block, written in place.

    Row r of ``Z`` is the flat row of one iterate: its state (the layout of
    ``tests/reference.pack_state``), a 0.0 and a 1.0 that row programs
    gather, and a tail [evaluation, power slots] that a table pass at x[r]
    writes, the evaluation in the layout of :func:`evaluation_views`.  Row r
    of ``D`` holds the direction a descent takes from row r, [grad_x L_c, 0,
    0].  ``x``, ``mu``, ``lam``, ``E``, ``ev`` and ``g`` (the x part of D)
    are views with a leading row axis; ``rows[r]`` holds the views of row r
    that a row program and a table pass use.
    """

    @staticmethod
    def offsets(p: LiftedProblem) -> tuple[int, int, int]:
        """Where mu, lam and the zero slot start in a row (x starts at 0)."""
        mu_at = p.N * p.n
        return mu_at, mu_at + p.m, mu_at + p.m + p.num_pairs * p.n

    def __init__(self, p: LiftedProblem, size: int):
        (N, n, P), (nN, lam_at, zero) = (p.N, p.n, p.num_pairs), self.offsets(p)
        self.table, ev_at, K = p.tables["stacked"], zero + 2, evaluation_size(p)
        self.Z, self.D = np.zeros((size, ev_at + K + self.table.pexp.size)), np.zeros((size, zero))
        self.Z[:, zero + 1] = 1.0
        self.E = self.Z[:, ev_at:ev_at + K]
        self.x, self.mu = self.Z[:, :nN].reshape(size, N, n), self.Z[:, nN:lam_at]
        self.lam = self.Z[:, lam_at:zero].reshape(size, P, n)
        self.g = self.D[:, :nN].reshape(size, N, n)
        self.ev = evaluation_views(p, self.E)
        self.rows = list(zip(self.Z, self.Z[:, :zero], self.D, self.D[:, :nN], self.E,
                             self.Z[:, ev_at + K:]))

    def evaluate(self, r: int) -> None:
        """E[r] <- the stacked table's pass at x[r]."""
        row, _, _, _, values, powers = self.rows[r]
        self.table.into(row, values, powers)

    def put(self, r: int, state: MultiplierState) -> None:
        """Row r <- ``state``."""
        np.concatenate([state.x.ravel(), state.mu, state.lam.ravel()], out=self.rows[r][1])

    def state(self, r: int) -> MultiplierState:
        """A copy of the state in row r."""
        return MultiplierState(self.x[r].copy(), self.mu[r].copy(), self.lam[r].copy())

    def evaluation(self, r: int) -> Evaluation:
        """A copy of the evaluation in row r."""
        return Evaluation(*(v[r].copy() for v in self.ev))

    def head(self, rows: int):
        """x, mu, lam and the evaluations of the first ``rows`` rows (views)."""
        return (self.x[:rows], self.mu[:rows], self.lam[:rows],
                Evaluation(*(v[:rows] for v in self.ev)))


class TwoStageProgram:
    """The fixed program, compiled from the problem alone, of one step at
    penalty c from a :class:`StateBlock` row, table pass included: an a1/a2
    round or an a3 descent, which is a round's primal step.

    Stage 1 takes the table's distinct powers into the row's power slots,
    then gathers F rows of L row entries and the x_j that the first
    columns take away; column l is the product of its F entries (- x_j) *
    scale: a term's factors times its coefficient or, before F - 1 entries
    of 1.0, -w (x_i - x_j) (the lam direction, not added), l (x_i - x_j)
    for c L x, +-w lam and 1 mu.  One bincount adds them into the bins
    [E | c L x | S'lam | mu | 1.0] (the c segment exists if c != 0), and E
    is copied into the row.  Stage 2 gathers two rows V0, V1 of the bins
    into W = (V0 * scale) * V1: [grad F | S'lam | mu grad h | (h c) grad h
    | c L x] and -h (not added), a lone factor against the 1.0 bin.  One
    bincount adds W bin by bin in that order into G, which is copied over
    the last N n added entries of W: in the buffer [W | stage 1's columns |
    ...] a round's direction [G | -h | -w (x_i - x_j)] is one slice.
    """

    def __init__(self, p: LiftedProblem, c: float):
        inc, n, table = p.incidence, p.n, p.tables["stacked"]
        m, K, F = p.m, evaluation_size(p), len(table.factors)
        (nN, lam_at, zero), ev = StateBlock.offsets(p), evaluation_views(p, np.arange(K))
        x_at = np.arange(nN).reshape(-1, n)  # the row indices of each x_i
        tail_at, head_at = x_at[inc.tail].ravel(), x_at[inc.head].ravel()
        ends_at = x_at[np.column_stack([inc.tail, inc.head])].ravel()  # tail, head
        con = x_at[list(p.constrained_agents)].ravel()
        k = int(c != 0.0)  # the c segments
        self.gather, self.pexp, self.K, self.size = table.gather, table.pexp, K, nN
        lam_bin, mu_bin = K + nN * k, K + nN * (k + 1)
        unit = mu_bin + m  # the bin of 1.0
        self.bins = unit + 1
        # the 1.0 slot in place of the last F - 1 factors
        padded = lambda first: np.vstack([[first], np.full((F - 1, len(first)), zero + 1)])
        w = np.repeat(inc.weights[:, None], n, axis=1)
        lam = np.repeat(np.arange(lam_at, zero).reshape(-1, 1, n), 2, axis=1).ravel()
        # (F factor rows, scale, bin or None if not added) per segment; the
        # first two take x_j away
        stage1 = [(padded(tail_at), -w.ravel(), None, 1),
                  (padded(tail_at), np.repeat(inc.laplacian_weights, n), K + tail_at, k),
                  (table.factors, table.coeffs, table.entry, 1),
                  (padded(lam), np.stack([w, -w], axis=1).ravel(), lam_bin + ends_at, 1),
                  (padded(np.arange(nN, lam_at)), 1.0, mu_bin + np.arange(m), 1),
                  (padded([zero + 1]), 1.0, [unit], 1)]
        stage1 = [(first, np.broadcast_to(scale, first.shape[1]), at)
                  for first, scale, at, keep in stage1 if keep]
        # (V0 bin, scale, V1 bin, bin of G or None if not added) per segment
        every, h, grad_f, grad_h = np.arange(nN), ev.h, ev.grad_f.ravel(), ev.grad_h.ravel()
        stage2 = [(grad_f, 1.0, unit, every, 1), (lam_bin + every, 1.0, unit, every, 1),
                  (np.repeat(mu_bin + np.arange(m), n), 1.0, grad_h, con, 1),
                  (np.repeat(h, n), c, grad_h, con, k), (K + every, c, unit, every, k),
                  (h, -1.0, unit, None, 1)]
        stage2 = [(*np.broadcast_arrays(first, scale, second, h if at is None else at), at)
                  for first, scale, second, at, keep in stage2 if keep]
        columns = np.hstack([s[0] for s in stage1])  # (F, L)
        L1, lead = columns.shape[1], len(tail_at)
        self.take1 = np.append(columns, np.tile(head_at, 1 + k)).astype(np.int64)
        self.take2 = np.array([np.hstack([s[0] for s in stage2]),
                               np.hstack([s[2] for s in stage2])], dtype=np.int64)
        self.scale1, self.scale2 = (np.hstack([s[1] for s in stage]).astype(float)
                                    for stage in (stage1, stage2))
        self.at1, self.at2 = (np.hstack([s[-1] for s in stage if s[-1] is not None])
                              .astype(np.int64) for stage in (stage1, stage2))
        # [W | stage 1's take: its columns (w1), the other factor rows, x_j]
        L2, added = self.take2.shape[1], len(self.at2)
        buffer = np.zeros(L2 + self.take1.size)
        self.W, self.taken1, self.w1 = buffer[:L2], buffer[L2:], buffer[L2:L2 + L1]
        self.factors = tuple(self.taken1[L1 * i:L1 * (i + 1)] for i in range(1, F))
        self.diff, self.x_j = self.w1[:lead * (1 + k)], self.taken1[F * L1:]
        self.added1, self.added2 = self.w1[lead:], self.W[:added]
        self.g, self.d = buffer[added - nN:added], buffer[added - nN:added + m + lead]
        self.powers, self.V = np.zeros(self.gather.shape), np.zeros(self.take2.shape)
        self.scaled = np.zeros(zero)  # step * direction
        self.V0, self.V1 = self.V


class ArrayExecutor:
    """Runs rounds as whole-network array algebra (production path).

    Descent x <- x - a (grad F + grad h mu + S'lam [+ c grad h h + c L x])
    and ascent mu <- mu + a h, lam <- lam + a S x on the edge list of the
    incidence rows.  Its row sums are ``np.bincount`` scatters, which add in
    input order: in incidence-row order, as the per-agent kernel adds an
    agent's incident rows, so every iterate equals the message executor's
    bit for bit.  It is its per-penalty ``programs`` (:class:`TwoStageProgram`),
    one kernel, :meth:`advance`, for blocks of rounds and descents, and :meth:`ascend`.
    """

    def __init__(self, p: LiftedProblem):
        self.p, inc = weakref.proxy(p), p.incidence  # weak: make_executor keeps self with p
        self.tail, self.head, self.w = inc.tail, inc.head, inc.weights[:, None]
        self.programs: dict[float, TwoStageProgram] = {}

    def advance(self, blk: StateBlock, count: int, steps, c, descent: bool):
        """Rows 0..count - 1 in turn: E[b] and the direction at row b, then
        Z[b + 1] <- Z[b] - steps[b] direction.  A round steps with the
        program's [G, -h, -w (x_i - x_j)], which folds in the ascent (a -
        step (-b) is a + step b bit for bit); a descent writes G into D[b]
        and steps with D[b], whose mu and lam entries are 0.0, so it keeps
        mu and lam (a - step 0.0 is a bit for bit).  The second bincount
        adds the terms bin by bin from +0.0 and keeps every bit of the plain
        sums, as grad F, out of the first, is never -0.0 (see the README).
        Every product keeps its operands and their order.

        numpy's per-call cost is most of a row's time, so the program's
        arrays and the numpy functions are read once per call, a constant
        step is a 0-d float64 array (319 ns per call on 23 entries; a
        Python float, which numpy converts each time, 507 ns), a copy a
        slice assignment (216 ns; ``np.copyto``'s Python-level dispatch,
        410 ns), and ``out`` positional (24 ns less than by keyword)."""
        prog = self.programs.get(c) or self.programs.setdefault(c, TwoStageProgram(self.p, c))
        gather, pexp, taken0, take1, taken1, factors, diff, x_j, w1, scale1, at1, added1 = (
            prog.gather, prog.pexp, prog.powers, prog.take1, prog.taken1, prog.factors,
            prog.diff, prog.x_j, prog.w1, prog.scale1, prog.at1, prog.added1)
        bins, K, take2, V, V0, V1, scale2, W, at2, added2, size, round_d, round_g, scaled = (
            prog.bins, prog.K, prog.take2, prog.V, prog.V0, prog.V1, prog.scale2, prog.W,
            prog.at2, prog.added2, prog.size, prog.d, prog.g, prog.scaled)
        power, multiply, subtract, bincount, rows = (
            np.power, np.multiply, np.subtract, np.bincount, blk.rows)
        for b in range(count):
            row, state, d, g, values, powers = rows[b]
            if not descent:
                d, g = round_d, round_g
            # mode "wrap" takes negative indices as Python does, and writes
            # into ``out`` without a buffer
            power(row.take(gather, None, taken0, "wrap"), pexp, powers)
            row.take(take1, None, taken1, "wrap")
            for factor in factors:
                multiply(w1, factor, w1)
            subtract(diff, x_j, diff)
            multiply(w1, scale1, w1)
            out = bincount(at1, added1, minlength=bins)
            values[...] = out[:K]
            out.take(take2, None, V, "wrap")
            multiply(V0, scale2, W)
            multiply(W, V1, W)
            g[...] = bincount(at2, added2, minlength=size)
            multiply(steps[b], d, scaled)
            subtract(state, scaled, rows[b + 1][1])

    def ascend(self, state: MultiplierState, step, h=None) -> MultiplierState:
        """mu + step h(x) and lam + step S x with x shared; ``h`` is h(state.x)
        when the caller already has it."""
        x = state.x
        h = evaluate(self.p, x).h if h is None else h
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

    def ascend(self, _state_unused, step, _h_unused=None) -> MultiplierState:
        for store, (mi, li) in zip(self.stores,
                                   self._each_agent(agent_ascent, self._mailboxes(), step)):
            store.mu, store.lam = mi, li
        return self._state()

    def advance(self, blk: StateBlock, count: int, steps, c, descent: bool):
        """Rows 0..count - 1 in turn: E[b] <- the pass at x[b], which the
        stores hold, and row b + 1 <- a copy of the stores after one round,
        whose two halves both read the round-k messages, or after one
        descent, its gradient rows in D[b]."""
        for b, step in zip(range(count), steps):
            blk.evaluate(b)
            boxes = self._mailboxes()
            grads = self._each_agent(agent_gradient, boxes, c)
            if descent:
                blk.g[b] = grads
            ascents = ([(store.mu, store.lam) for store in self.stores] if descent
                       else self._each_agent(agent_ascent, boxes, step))
            for store, g, (mi, li) in zip(self.stores, grads, ascents):
                store.x, store.mu, store.lam = store.x - step * g, mi, li
            blk.put(b + 1, self._state())

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


def state_block(p: LiftedProblem) -> StateBlock:
    """The one :class:`StateBlock` (``BLOCK + 1`` rows) kept with ``p``
    (``p.engines``); it refers to no problem, so that makes no cycle."""
    kept = p.engines
    return kept["block"] if "block" in kept else kept.setdefault("block", StateBlock(p, BLOCK + 1))


def make_executor(p: LiftedProblem, init: MultiplierState, engine: str):
    """The executor of ``engine``: the array executor, with its row
    programs, is built once per problem and kept with it (``p.engines``); a
    message executor starts its stores from ``init``."""
    if engine == "arrays":
        kept = p.engines
        return kept["arrays"] if "arrays" in kept else kept.setdefault("arrays", ArrayExecutor(p))
    if engine == "message":
        return MessageExecutor(p, init)
    raise ValueError(f"unknown engine {engine!r}")


def blocks(p: LiftedProblem, init: MultiplierState, engine: str, count: int, sizes, c, descent):
    """The one blocked loop of a1/a2 and the a3 inner solve: rows 0..count
    from ``init``, up to ``BLOCK`` at a time, in the kept block
    (:func:`state_block`).  One ``advance`` per block steps each row b into
    row b + 1, a round or a ``descent`` at penalty c by the next step size
    ``sizes`` yields, and writes E[b]; row ``count`` gets a lone table pass.
    Yields each block as ``(blk, k0, rows)`` before row ``rows``, the first
    of the next block, is carried into row 0."""
    check_state(p, init)
    executor, blk = make_executor(p, init, engine), state_block(p)
    blk.put(0, init)
    for k0 in range(0, count + 1, BLOCK):
        rows = min(BLOCK, count + 1 - k0)
        steps = min(rows, count - k0)
        executor.advance(blk, steps, list(itertools.islice(sizes, steps)), c, descent)
        if k0 + rows > count:
            blk.evaluate(rows - 1)
        yield blk, k0, rows
        blk.Z[0] = blk.Z[rows]


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

    def __len__(self):
        return len(self.k)

    @property
    def err_eta(self) -> np.ndarray:
        """Joint multiplier error sqrt(err_mu^2 + dist_lambda^2)."""
        return np.hypot(self.err_mu, self.dist_lambda)


@dataclass
class RunResult:
    """Outcome of a solver run; ``iterations`` counts rounds for a1 and a2,
    and for a3 the outer iterations, one per trace row."""

    trace: Trace
    state: MultiplierState
    status: str
    iterations: int


class TraceRecorder:
    """Collects the trace rows of every algorithm as arrays, a block of
    iterates at a time."""

    def __init__(self, p: LiftedProblem, reference: StationaryPoint | None):
        self.p = p
        self.reference = reference
        self.x_star = None if reference is None else reference.lifted_x(p.N)
        # (k, err_x, err_mu, dist_lambda, kkt, objective) of each block, from
        # an empty one, so that a trace without rows concatenates too
        self.blocks = [(np.zeros(0, dtype=int), np.zeros((0, p.N)), *np.zeros((2, 0)),
                        np.zeros((0, 3)), np.zeros(0))]
        self.outer = []

    def record(self, k0: int, x, mu, lam, ev: Evaluation, outer=None):
        """Append rows k0, k0 + 1, ... of the states (x, mu, lam) stacked on a
        leading axis and their stacked evaluations (:func:`evaluate`) in one
        batched pass, every row with the bits of that state alone; ``outer``
        is (c_k, eps_k, inner_iters) of an a3 row.  Returns the rows' KKT
        totals (:attr:`KKTResidual.total`) and state norms max(||x||, ||mu||,
        ||lam||).  dist_lambda is ||R'(lam - lam*)||, the distance of lam to
        the multiplier set lam* + Null(S') (a set: the lifted minimizers are
        not regular), and the objective :func:`objective_total`."""
        p, B, point = self.p, len(x), self.reference
        kkt = kkt_norms(p, x, mu, lam, ev)
        if point is None:
            err_x, err_mu, dist = np.full((B, p.N), np.nan), *np.full((2, B), np.nan)
        else:
            err_x = np.sqrt(np.add.reduce(np.square(x - self.x_star), axis=2))  # as linalg.norm
            err_mu = row_norms(mu - point.mu)
            dist = row_norms(np.matmul(p.range_basis.R.T, lam - point.lam).reshape(B, -1))
        objective = objective_total(ev.f)
        self.blocks.append((np.arange(k0, k0 + B), err_x, err_mu, dist, kkt, objective))
        if outer is not None:
            self.outer.append(outer)
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
        return Trace(k=k, err_x=err_x, err_mu=err_mu, dist_lambda=dist, kkt=kkt,
                     objective=objective, **outer)


def run_first_order(
    p: LiftedProblem,
    config: FirstOrderConfig,
    reference: StationaryPoint | None = None,
    engine: str = "arrays",
) -> RunResult:
    """Iterate a1/a2 until the KKT residual drops below tol.

    Terminates with status ``converged``, ``iteration-cap``, or
    ``diverged`` (iterate norm above 1e8 or non-finite); divergence is a
    status, not an exception, and raises no floating-point warning.  Rounds
    run ahead in :func:`blocks`; one batched pass per block
    (:meth:`TraceRecorder.record`) gives its KKT totals, state norms and
    trace rows, and the run keeps the rows up to the first that would stop a
    row-by-row loop.
    """
    recorder, alpha = TraceRecorder(p, reference), np.array(config.alpha, float)
    with np.errstate(over="ignore", invalid="ignore"):
        # the last block ends at row max_iter, which always stops the run
        for blk, k0, rows in blocks(p, config.init, engine, config.max_iter,
                                    itertools.repeat(alpha), config.c, False):
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
