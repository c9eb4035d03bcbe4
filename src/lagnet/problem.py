"""Agent-local problems, the consensus-lifted problem, and its Lagrangians.

An agent holds a polynomial objective f_i : R^n -> R and optionally one
scalar polynomial equality constraint h_i.  Stacking N agent copies over a
connected graph gives the lifted problem

    min  sum_i f_i(x_i)   s.t.   h_i(x_i) = 0 (constrained agents),  S x = 0,

whose objective, (augmented) Lagrangian gradient and Hessian, and
first-order residuals are evaluated here.  Stacked vectors are stored
agent-major: ``x`` has shape (N, n) and the consensus multiplier ``lam``
has shape (num_pairs, n) in the incidence row order.  The unlifted S and L
act on these arrays directly: (S (x) I_n) x.ravel() is (S x).ravel().
The agents are evaluated through tables of scalar polynomials; a
derivative of a term list (:func:`derivative`) is another term list, so it
is one more table entry.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .netgraph import (
    DisconnectedGraphError,
    GraphSpec,
    IncidenceMatrix,
    RangeBasis,
    build_incidence,
    check_connected,
    laplacian,
    range_basis,
)

Array = np.ndarray


class DimensionError(ValueError):
    """State dimensions inconsistent with the lifted problem."""


Terms = tuple[tuple[float, tuple[int, ...]], ...]


@dataclass(frozen=True)
class LocalProblem:
    """One agent: a polynomial objective and an optional polynomial
    equality constraint, as ``[coefficient, [e_1, ..., e_n]]`` term lists
    (see :func:`polynomial_agent`), checked and normalized on construction.

    :func:`lift_problem` compiles the terms of all agents into
    whole-network tables.  ``f``, ``grad_f``, ``h`` and ``grad_h`` evaluate
    the agent alone at one point through its own one-row ``tables``, built
    on first use: the message engine and :func:`check_gradients` read them,
    the array engine never does.
    """

    dim: int
    f_terms: Terms
    h_terms: Terms | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("agent dimension must be positive")
        for name in ("f_terms", "h_terms"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _parse_terms(getattr(self, name), self.dim))

    @property
    def constrained(self) -> bool:
        return self.h_terms is not None

    @cached_property
    def tables(self) -> dict[str, PolynomialTable]:
        """One-row tables of f, grad_f and, if constrained, h and grad_h."""
        polynomials = {"f": [self.f_terms], "grad_f": _gradient(self.f_terms, self.dim)}
        if self.constrained:
            polynomials.update(h=[self.h_terms], grad_h=_gradient(self.h_terms, self.dim))
        return {kind: PolynomialTable.from_terms(terms, [0] * len(terms), self.dim)
                for kind, terms in polynomials.items()}

    def f(self, x: Array) -> float:
        return float(self.tables["f"](np.reshape(x, (1, self.dim)))[0])

    def grad_f(self, x: Array) -> Array:
        return self.tables["grad_f"](np.reshape(x, (1, self.dim)))

    def h(self, x: Array) -> float:
        return float(self.tables["h"](np.reshape(x, (1, self.dim)))[0])

    def grad_h(self, x: Array) -> Array:
        return self.tables["grad_h"](np.reshape(x, (1, self.dim)))


def derivative(terms: Terms, j: int) -> Terms:
    """d/dx_j of a polynomial: a term without x_j drops out, and every other
    term c x^e becomes (c e_j) x^(e - 1 in coordinate j), in term order."""
    return tuple((coeff * exp[j], exp[:j] + (exp[j] - 1,) + exp[j + 1:])
                 for coeff, exp in terms if exp[j])


def _gradient(terms: Terms, n: int) -> list[Terms]:
    return [derivative(terms, j) for j in range(n)]


def _hessian(terms: Terms, n: int) -> list[Terms]:
    """Row-major: entry (j, k) is d/dx_k d/dx_j."""
    return [derivative(d, k) for d in _gradient(terms, n) for k in range(n)]


@dataclass(frozen=True)
class PolynomialTable:
    """K scalar polynomials in n variables: entry k is the sum over its terms
    of coeff * prod_l x[row, l] ** e_l at its row of x.  Compiled to the work
    it needs: a pass takes each distinct power with e >= 2 once, gathers each
    term's factors with e >= 1 in coordinate order from
    v = [powers, x.ravel(), 1.0], and multiplies them.  Through numpy's array
    loop x ** 1.0 is x and x ** 0.0 is 1.0, and 1.0 * a is a, bit for bit
    (inf and NaN included), so the factors left out change no bit."""

    gather: Array  # (P,) flat index into x of each distinct power
    pexp: Array  # (P,) its exponent, >= 2, float64 (numpy's pow loop takes float exponents)
    factors: Array  # (F, M) index into v of each factor of each term; -1 is the 1.0
    coeffs: Array  # (M,)
    entry: Array  # (M,) the entry each term adds into, int64
    size: int  # K

    @classmethod
    def from_terms(cls, polynomials: Sequence[Terms], rows: Sequence[int],
                   n: int) -> "PolynomialTable":
        """Entry k is ``polynomials[k]`` at row ``rows[k]`` of x.  A scalar or
        broadcast exponent leaves numpy's array loop for ``square`` or the
        scalar pow, whose last bit differs for about 3 % of x (0.1 ** 2 on
        AVX-512 machines), and so may a loop over one element: ``pexp`` is an
        array, and a lone distinct power is the first of two equal ones."""
        powers, terms, coeffs, entry = {}, [], [], []  # powers: (flat x index, e) -> slot
        for k, (polynomial, row) in enumerate(zip(polynomials, rows)):
            for coeff, exp in polynomial:
                terms.append([(row * n + l, e) for l, e in enumerate(exp) if e])
                for power in terms[-1]:
                    if power[1] > 1:
                        powers.setdefault(power, len(powers))
                coeffs.append(coeff)
                entry.append(k)
        gather = list(powers) * (2 if len(powers) == 1 else 1)
        factors = np.full((max([1, *map(len, terms)]), len(terms)), -1, dtype=np.int64)
        for t, term in enumerate(terms):
            factors[:len(term), t] = [powers[f] if f[1] > 1 else len(gather) + f[0] for f in term]
        return cls(np.array([g for g, _ in gather], dtype=np.int64),
                   np.array([e for _, e in gather], dtype=float), factors,
                   np.array(coeffs, dtype=float), np.array(entry, dtype=np.int64),
                   len(polynomials))

    def __call__(self, x: Array, out: Array | None = None) -> Array:
        """Every entry at its row of x, shape (N, n); returns shape (K,),
        written into ``out`` when given.  Bitwise the arithmetic of one term
        at a time: powers multiplied in coordinate order, terms added in term
        order from +0.0, as bincount adds each bin's weights in input order;
        adding + 0.0 changes no such sum."""
        flat = np.asarray(x, dtype=float).ravel()
        v = np.concatenate([flat.take(self.gather) ** self.pexp, flat, _ONE])
        factors = v.take(self.factors)
        prod = factors[0]
        for factor in factors[1:]:
            prod = prod * factor
        return np.add(np.bincount(self.entry, self.coeffs * prod, minlength=self.size), 0.0,
                      out=out)


_ONE = np.ones(1)


def compile_tables(agents: Sequence[LocalProblem]) -> dict[str, PolynomialTable]:
    """Whole-network tables of the agents: ``stacked``, the entries of f,
    grad_f (one row per agent), h and grad_h (one row per constrained
    agent) in that order (see :func:`evaluate`), and ``hess_f`` and
    ``hess_h``, n * n entries per agent in row-major order; each entry
    reads its agent's row of x, and each table takes only the powers it needs."""
    n = agents[0].dim
    stacked, rows, tables = [], [], {}
    for name, owners in (("f", range(len(agents))),
                         ("h", [i for i, a in enumerate(agents) if a.constrained])):
        terms = [getattr(agents[i], f"{name}_terms") for i in owners]
        stacked += terms + [d for t in terms for d in _gradient(t, n)]
        rows += [*owners, *(i for i in owners for _ in range(n))]
        tables[f"hess_{name}"] = PolynomialTable.from_terms(
            [d for t in terms for d in _hessian(t, n)],
            [i for i in owners for _ in range(n * n)], n)
    tables["stacked"] = PolynomialTable.from_terms(stacked, rows, n)
    return tables


@dataclass(frozen=True)
class LiftedProblem:
    """N agent copies over a connected graph, with derived graph algebra.

    Use :func:`lift_problem` to construct.  The graph algebra is unlifted:
    the incidence matrix S, the Laplacian L and one thin SVD S = R Sigma V'
    (``range_basis``), from which every Range(S) and Null(S') quantity
    follows; no Kronecker lift is stored.  ``tables`` holds the compiled
    polynomial tables (see :func:`compile_tables`): :func:`evaluate` gives
    grad F, h, grad h and the per-agent f in one pass over the stacked
    table, and every other reader of those values takes them from such a
    pass.
    """

    agents: tuple[LocalProblem, ...]
    graph: GraphSpec
    incidence: IncidenceMatrix
    L: Array
    range_basis: RangeBasis
    constrained_agents: tuple[int, ...]
    tables: dict[str, PolynomialTable]

    @property
    def N(self) -> int:
        return len(self.agents)

    @property
    def n(self) -> int:
        return self.agents[0].dim

    @property
    def m(self) -> int:
        return len(self.constrained_agents)

    @property
    def num_pairs(self) -> int:
        return self.incidence.num_pairs

    def zero_state(self) -> "MultiplierState":
        return MultiplierState(
            x=np.zeros((self.N, self.n)),
            mu=np.zeros(self.m),
            lam=np.zeros((self.num_pairs, self.n)),
        )


def lift_problem(agents: Sequence[LocalProblem], graph: GraphSpec) -> LiftedProblem:
    """Assemble the lifted problem; validates dimensions and connectivity."""
    agents = tuple(agents)
    if len(agents) != graph.num_agents:
        raise DimensionError(
            f"{len(agents)} agents but graph declares {graph.num_agents}"
        )
    n = agents[0].dim
    if any(a.dim != n for a in agents):
        raise DimensionError("all agents must share the same dimension n")
    if not check_connected(graph):
        raise DisconnectedGraphError("communication graph must be connected")
    constrained = tuple(i for i, a in enumerate(agents) if a.constrained)
    if len(constrained) > n:
        raise DimensionError(
            f"m = {len(constrained)} constraints exceed the agent dimension n = {n}"
        )
    inc = build_incidence(graph)
    return LiftedProblem(
        agents=agents,
        graph=graph,
        incidence=inc,
        L=laplacian(inc),
        range_basis=range_basis(inc),
        constrained_agents=constrained,
        tables=compile_tables(agents),
    )


@dataclass(frozen=True)
class MultiplierState:
    """Full iterate (x, mu, lam); lam rows follow the incidence row order."""

    x: Array
    mu: Array
    lam: Array

    def copy(self) -> "MultiplierState":
        return MultiplierState(self.x.copy(), self.mu.copy(), self.lam.copy())

    def with_x(self, x: Array) -> "MultiplierState":
        return replace(self, x=x)


@dataclass(frozen=True)
class StationaryPoint:
    """A lifted KKT point: shared minimizer x in R^n plus multipliers.

    ``lam`` is the canonical consensus multiplier in Range(S (x) I); the
    full solution set is lam + Null(S' (x) I).
    """

    x: Array
    mu: Array
    lam: Array

    def lifted_x(self, N: int) -> Array:
        return np.tile(self.x, (N, 1))

    def as_state(self, p: LiftedProblem) -> MultiplierState:
        return MultiplierState(x=self.lifted_x(p.N), mu=self.mu.copy(), lam=self.lam.copy())


def check_state(p: LiftedProblem, state: MultiplierState) -> None:
    if state.x.shape != (p.N, p.n):
        raise DimensionError(f"x has shape {state.x.shape}, expected {(p.N, p.n)}")
    if state.mu.shape != (p.m,):
        raise DimensionError(f"mu has shape {state.mu.shape}, expected {(p.m,)}")
    if state.lam.shape != (p.num_pairs, p.n):
        raise DimensionError(
            f"lam has shape {state.lam.shape}, expected {(p.num_pairs, p.n)}"
        )


# ---------------------------------------------------------------------------
# evaluations


def agent_values(p: LiftedProblem, kind: str, x: Array) -> Array:
    """``kind`` (f, grad_f, hess_f, h, grad_h or hess_h) of every agent that
    has it, each at its own row of x: shape (N, *d) for the f kinds and
    (m, *d) for the h kinds, d = (), (n,) or (n, n).  A Hessian kind is one
    pass over its table; every other kind is sliced from :func:`evaluate`."""
    if kind in ("hess_f", "hess_h"):
        return p.tables[kind](x).reshape(-1, p.n, p.n)
    return getattr(evaluate(p, x), kind)


class Evaluation(NamedTuple):
    """grad F, h, grad h and the per-agent objectives f_i(x_i) at one x.

    One evaluation per iterate serves its round and, stacked with the rest
    of its block on a leading axis (:func:`kkt_norms`), its KKT row and
    trace objective: one pass over the stacked table.  Rounds and descents
    write those passes into the evaluation rows of their block, and an
    Evaluation holds views of them (:func:`evaluation_views`).  A named
    tuple: readers iterate over its fields."""

    grad_f: Array  # (N, n)
    h: Array  # (m,)
    grad_h: Array  # (m, n)
    f: Array  # (N,)


def evaluate(p: LiftedProblem, x: Array) -> Evaluation:
    """One pass over ``p.tables["stacked"]``.  Each entry has the bits of
    the agent's own one-row table, so the message engine, which evaluates
    those, sees the same values."""
    return evaluation_views(p, p.tables["stacked"](x))


def evaluation_size(p: LiftedProblem) -> int:
    """Entries of one evaluation laid out flat: N f, N n grad f, m h, m n grad h."""
    return (p.N + p.m) * (p.n + 1)


def evaluation_views(p: LiftedProblem, flat: Array) -> Evaluation:
    """The evaluations held in ``flat`` (..., :func:`evaluation_size`), in the
    layout of the stacked table's pass, as views with the same leading axes."""
    N, n, m, lead = p.N, p.n, p.m, flat.shape[:-1]
    a, b = N * (n + 1), N * (n + 1) + m  # f, grad_f | h | grad_h
    return Evaluation(flat[..., N:a].reshape(*lead, N, n), flat[..., a:b],
                      flat[..., b:].reshape(*lead, m, n), flat[..., :N])


def evaluate_into(p: LiftedProblem, x: Array, out: Array) -> None:
    """:func:`evaluate` at x written into the flat row ``out``: the stacked
    table's pass itself."""
    p.tables["stacked"](x, out=out)


def objective_total(f: Array) -> float:
    """F = sum of the per-agent objective values, added one at a time in
    agent order from 0.0.  Not the builtin ``sum``, which compensates its
    float sums from Python 3.12 on."""
    total = 0.0
    for value in f.tolist():
        total += value
    return total


def eval_lifted_objective(p: LiftedProblem, x: Array) -> float:
    """Sum of the agent objectives at their own copies, F(x) = sum f_i(x_i),
    added in agent order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.N, p.n):
        raise DimensionError(f"x has shape {x.shape}, expected {(p.N, p.n)}")
    return objective_total(agent_values(p, "f", x))


def constraint_values(p: LiftedProblem, x: Array) -> Array:
    """h(x) stacked over constrained agents, shape (m,)."""
    return agent_values(p, "h", x)


def constraint_jacobian(p: LiftedProblem, x: Array, grad_h: Array | None = None) -> Array:
    """Gradient matrix of the lifted constraints, shape (nN, m).

    Column k holds grad h_i(x_i) in agent i's block, i the k-th
    constrained agent; ``grad_h`` gives those rows when they are at hand.
    """
    rows = agent_values(p, "grad_h", x) if grad_h is None else grad_h
    G = np.zeros((p.N * p.n, p.m))
    for col, i in enumerate(p.constrained_agents):
        G[i * p.n : (i + 1) * p.n, col] = rows[col]
    return G


def objective_gradient(p: LiftedProblem, x: Array) -> Array:
    """Stacked gradient of F, shape (nN,)."""
    return agent_values(p, "grad_f", x).ravel()


def grad_aug_lagrangian(
    p: LiftedProblem, state: MultiplierState, c: float, ev: Evaluation | None = None
) -> Array:
    """Gradient in x of L_c, stacked shape (nN,).

    grad F + grad h mu + S'lam + c grad h h + c L x; ``ev`` is the
    evaluation at state.x when it is at hand.
    """
    if c < 0:
        raise ValueError("penalty parameter c must be >= 0")
    check_state(p, state)
    ev = evaluate(p, state.x) if ev is None else ev
    return _grad_x(p, state.x, state.mu, state.lam, c, ev)


def _grad_x(p: LiftedProblem, x: Array, mu: Array, lam: Array, c: float, ev: Evaluation):
    """:func:`grad_aug_lagrangian` of shape-checked arrays.  The dense products
    fix its bits, and ``G @ mu`` turns 0 * inf into nan on a diverging row."""
    g = ev.grad_f.ravel() + (p.incidence.S.T @ lam).ravel()
    if p.m:
        g = g + constraint_jacobian(p, x, ev.grad_h) @ (mu + c * ev.h if c else mu)
    return g + c * (p.L @ x).ravel() if c else g


def hess_aug_lagrangian(
    p: LiftedProblem, state: MultiplierState, c: float, ev: Evaluation | None = None
) -> Array:
    """Hessian in x of L_c, shape (nN, nN).

    Block-diagonal part: hess f_i + mu_i hess h_i (+ c h_i hess h_i
    + c grad h_i grad h_i'); penalty coupling: c L (x) I_n, lifted here
    because the result is a dense matrix.  ``ev`` is the evaluation at
    state.x when it is at hand.
    """
    if c < 0:
        raise ValueError("penalty parameter c must be >= 0")
    check_state(p, state)
    n, N, x = p.n, p.N, state.x
    blocks = agent_values(p, "hess_f", x)
    if p.m:
        ca = list(p.constrained_agents)
        hh = agent_values(p, "hess_h", x)
        con = blocks[ca] + state.mu[:, None, None] * hh
        if c:
            ev = evaluate(p, x) if ev is None else ev
            gh = ev.grad_h
            con = con + c * (ev.h[:, None, None] * hh + gh[:, :, None] * gh[:, None, :])
        blocks[ca] = con
    H = np.zeros((N * n, N * n))
    H.reshape(N, n, N, n)[range(N), :, range(N), :] = blocks  # block i at (i, i)
    if c:
        H = H + c * np.kron(p.L, np.eye(n))
    return H


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    constraint: float
    consensus: float

    @property
    def total(self) -> float:
        return math.sqrt(self.stationarity**2 + self.constraint**2 + self.consensus**2)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.stationarity, self.constraint, self.consensus)


def kkt_residual(p: LiftedProblem, state: MultiplierState) -> KKTResidual:
    """Norms of the three first-order conditions of the lifted problem.

    Returns (||grad F + grad h mu + S'lam||, ||h(x)||, ||Sx||); invariant
    under shifting lam by any vector in Null(S').  The one-state case of
    :func:`kkt_norms`.
    """
    check_state(p, state)
    ev = Evaluation(*(v[None] for v in evaluate(p, state.x)))
    one = (v[None] for v in (state.x, state.mu, state.lam))
    return KKTResidual(*kkt_norms(p, *one, ev)[0].tolist())


def kkt_norms(p: LiftedProblem, x: Array, mu: Array, lam: Array, ev: Evaluation) -> Array:
    """The :func:`kkt_residual` norms, shape (B, 3), of B shape-checked
    states stacked on a leading axis, ``ev`` their stacked evaluations.  Row
    b has the bits of state b alone: each product is a matmul of its 2-d
    operands, and ``G @ mu`` turns 0 * inf into nan on a diverging row."""
    B, N, n, m = len(x), p.N, p.n, p.m
    stat = ev.grad_f.reshape(B, -1) + np.matmul(p.incidence.S.T, lam).reshape(B, -1)
    if m:
        G = np.zeros((B, N, n, m))  # constraint_jacobian of each state
        G[:, p.constrained_agents, :, range(m)] = ev.grad_h.transpose(1, 0, 2)
        stat = stat + np.matmul(G.reshape(B, N * n, m), mu[..., None]).reshape(B, -1)
    Sx = np.matmul(p.incidence.S, x).reshape(B, -1)
    return np.stack([row_norms(stat), row_norms(ev.h), row_norms(Sx)], axis=1)


def _norm(v: Array) -> float:
    """``float(np.linalg.norm(v))`` bit for bit (numpy's formula for the
    flattened array) without its call overhead."""
    w = v.ravel(order="K")
    return math.sqrt(float(w.dot(w)))


def row_norms(a: Array) -> Array:
    """:func:`_norm` of every row of ``a`` (B, k), bit for bit: each row's
    dot is one (1, k) @ (k, 1) product of the batched matmul."""
    return np.sqrt((a[:, None, :] @ a[:, :, None]).ravel())


# ---------------------------------------------------------------------------
# derivative hygiene


def central_difference_gradient(func: Callable[[Array], float], x: Array) -> Array:
    """Central finite differences of a scalar function."""
    return central_difference_jacobian(func, x)[0]


def central_difference_jacobian(func: Callable[[Array], Array], x: Array) -> Array:
    """Central-difference Jacobian of a vector map, column per coordinate,
    with per-coordinate step 1e-6 (1 + |x_k|)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    Jac = np.zeros((f0.size, x.size))
    for k in range(x.size):
        step = 1e-6 * (1.0 + abs(x[k]))
        e = np.zeros_like(x)
        e[k] = step
        Jac[:, k] = (np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2.0 * step)
    return Jac


def _relative_error(analytic: Array, reference: Array) -> float:
    diff = float(np.linalg.norm(analytic - reference))
    if diff == 0.0:
        return 0.0
    return diff / max(float(np.linalg.norm(reference)), 1e-300)


@dataclass(frozen=True)
class GradientCheckEntry:
    agent: int
    kind: str
    point: Array
    rel_error: float


@dataclass(frozen=True)
class GradientCheckReport:
    entries: tuple[GradientCheckEntry, ...]
    max_rel_error: float

    def worst(self) -> GradientCheckEntry:
        return max(self.entries, key=lambda e: e.rel_error)


def check_gradients(p: LiftedProblem, samples: int, seed: int = 0) -> GradientCheckReport:
    """Compare each agent's gradient tables against central differences of
    its f and h tables at random points."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    entries = []
    for i, agent in enumerate(p.agents):
        for _ in range(samples):
            point = rng.uniform(-2.0, 2.0, agent.dim)
            fd = central_difference_gradient(agent.f, point)
            entries.append(
                GradientCheckEntry(i, "grad_f", point, _relative_error(agent.grad_f(point), fd))
            )
            if agent.constrained:
                fd_h = central_difference_gradient(agent.h, point)
                entries.append(
                    GradientCheckEntry(
                        i, "grad_h", point, _relative_error(agent.grad_h(point), fd_h)
                    )
                )
    report = GradientCheckReport(
        entries=tuple(entries), max_rel_error=max(e.rel_error for e in entries)
    )
    return report


# ---------------------------------------------------------------------------
# polynomial agents (file-driven custom problems and fixture library)


def _parse_terms(terms: Sequence[Sequence], dim: int) -> Terms:
    """Check and normalize ``[coefficient, [e_1, ..., e_n]]`` terms: each
    coefficient a finite int or float, each exponent an int >= 0 (a bool is
    neither, as in the config schema)."""
    parsed = []
    for term in terms:
        try:
            coeff, exps = term
            exps = tuple(exps)
        except (TypeError, ValueError):
            raise ValueError(f"term {term!r} is not [coefficient, exponent-vector]") from None
        if (isinstance(coeff, bool) or not isinstance(coeff, (int, float))
                or not abs(coeff) <= sys.float_info.max):
            raise ValueError(f"coefficient {coeff!r} is not a finite number")
        if len(exps) != dim:
            raise ValueError(f"exponent vector {exps} does not match dim {dim}")
        if any(type(e) is not int or e < 0 for e in exps):
            raise ValueError(f"exponents {exps} must be non-negative integers")
        parsed.append((float(coeff), exps))
    return tuple(parsed)


def polynomial_agent(f_terms, dim: int, h_terms=None) -> LocalProblem:
    """LocalProblem with polynomial objective and optional polynomial
    constraint: f(x) is the sum over terms ``[coefficient, [e_1, ..., e_n]]``
    of coefficient * prod_k x_k^{e_k}, and likewise h."""
    return LocalProblem(dim, f_terms, h_terms)
