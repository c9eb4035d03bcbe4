"""Agent-local problems, the consensus-lifted problem, and its Lagrangians.

An agent holds a polynomial objective f_i : R^n -> R and optionally one
scalar polynomial equality constraint h_i.  Stacking N agent copies over a
connected graph gives the lifted problem

    min  sum_i f_i(x_i)   s.t.   h_i(x_i) = 0 (constrained agents),  S x = 0,

whose objective, (augmented) Lagrangian Hessian and first-order
residuals are evaluated here.  The gradient in x of L_c is computed only
by the solvers' round kernels (``solvers``); its dense whole-vector form
is a test reference (``tests/conftest.py``).  Stacked vectors are stored
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
    GraphSpec,
    IncidenceMatrix,
    RangeBasis,
    build_incidence,
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
    whole-network tables.  :meth:`values` evaluates the agent alone at one
    point through ``table``, the stacked table of :func:`compile_tables` for
    this agent by itself (one row), built on first use: the message engine
    and :func:`check_gradients` read it, the array engine never does.
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
    def table(self) -> PolynomialTable:
        return _table((self,), (0, 1))

    def values(self, x: Array) -> tuple:
        """(f, grad f, h, grad h) at x from one pass over ``table``; h and
        grad h are None on an unconstrained agent."""
        n, v = self.dim, self.table(np.reshape(x, (1, self.dim)))
        if self.constrained:
            return v[0], v[1:n + 1], v[n + 1], v[n + 2:]
        return v[0], v[1:n + 1], None, None


def derivative(terms: Terms, j: int) -> Terms:
    """d/dx_j of a polynomial: a term without x_j drops out, and every other
    term c x^e becomes (c e_j) x^(e - 1 in coordinate j), in term order."""
    return tuple((coeff * exp[j], exp[:j] + (exp[j] - 1,) + exp[j + 1:])
                 for coeff, exp in terms if exp[j])


def _derivatives(terms: Terms, n: int, order: int) -> list[Terms]:
    """The n ** order partial derivatives of that order, row-major: order 0
    is the polynomial, 1 its gradient, and entry (j, k) of 2 is d/dx_k d/dx_j."""
    entries = [terms]
    for _ in range(order):
        entries = [derivative(d, k) for d in entries for k in range(n)]
    return entries


@dataclass(frozen=True)
class PolynomialTable:
    """K scalar polynomials in n variables: entry k is the sum over its terms
    of coeff * prod_l x[row, l] ** e_l at its row of x.  A pass runs on one
    flat row that starts with x.ravel() and ends in [1.0, values, powers]
    (:meth:`into`): it takes each distinct power with e >= 2 once, gathers
    each term's factors with e >= 1 in coordinate order, multiplies them and
    adds the terms into the values.  Through numpy's array loop x ** 1.0 is
    x and x ** 0.0 is 1.0, and 1.0 * a is a, bit for bit (inf and NaN
    included), so the factors left out change no bit."""

    gather: Array  # (P,) flat index into x of each distinct power
    pexp: Array  # (P,) its exponent, >= 2, float64 (numpy's pow loop takes float exponents)
    factors: Array  # (F, M) row index of each factor of each term: x >= 0, the tail < 0
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
        P, K = len(gather), len(polynomials)  # the row ends in [1.0, K values, P powers]
        factors = np.full((max([1, *map(len, terms)]), len(terms)), -1 - K - P, dtype=np.int64)
        for t, term in enumerate(terms):
            factors[:len(term), t] = [powers[f] - P if f[1] > 1 else f[0] for f in term]
        return cls(np.array([g for g, _ in gather], dtype=np.int64),
                   np.array([e for _, e in gather], dtype=float), factors,
                   np.array(coeffs, dtype=float), np.array(entry, dtype=np.int64), K)

    def into(self, row: Array, values: Array, powers: Array) -> None:
        """The pass on ``row``; ``values`` and ``powers`` are the views of its
        last K + P entries.  Bitwise the arithmetic of one term at a time:
        powers multiplied in coordinate order, terms added in term order from
        +0.0, as bincount adds each bin's weights in input order; so no value
        is ever -0.0."""
        np.power(row.take(self.gather), self.pexp, out=powers)
        factors = row.take(self.factors)
        prod = factors[0]
        for factor in factors[1:]:
            prod = prod * factor
        np.copyto(values, np.bincount(self.entry, self.coeffs * prod, minlength=self.size))

    def __call__(self, x: Array) -> Array:
        """Every entry at its row of x, shape (N, n); returns shape (K,), a
        view of the row [x.ravel(), 1.0, values, powers] :meth:`into` ran on."""
        X, K = np.size(x), self.size
        row = np.concatenate([np.ravel(x), [1.0], np.empty(K + self.pexp.size)])
        self.into(row, row[X + 1:X + 1 + K], row[X + 1 + K:])
        return row[X + 1:X + 1 + K]


def _table(agents: Sequence[LocalProblem], orders: tuple[int, ...]) -> PolynomialTable:
    """The derivatives of each order in turn of f of every agent, and then
    likewise of h of every constrained agent; each entry reads its agent's
    row of x."""
    n, polynomials, rows = agents[0].dim, [], []
    for name, owners in (("f", range(len(agents))),
                         ("h", [i for i, a in enumerate(agents) if a.constrained])):
        for order in orders:
            for i in owners:
                polynomials += _derivatives(getattr(agents[i], f"{name}_terms"), n, order)
                rows += [i] * n**order
    return PolynomialTable.from_terms(polynomials, rows, n)


def compile_tables(agents: Sequence[LocalProblem]) -> dict[str, PolynomialTable]:
    """The two whole-network tables of the agents, each of which takes only
    the powers it needs: ``stacked``, the entries of f, grad f (one row per
    agent), h and grad h (one row per constrained agent) in that order (see
    :func:`evaluate`), and ``hessian``, hess f of every agent and then hess h
    of every constrained agent, n * n entries each in row-major order (see
    :func:`hessians`)."""
    return {"stacked": _table(agents, (0, 1)), "hessian": _table(agents, (2,))}


@dataclass(frozen=True)
class LiftedProblem:
    """N agent copies over a connected graph, with derived graph algebra.

    Use :func:`lift_problem` to construct.  The graph algebra is unlifted:
    the incidence matrix S, the Laplacian L and one thin SVD S = R Sigma V'
    (``range_basis``), from which every Range(S) and Null(S') quantity
    follows; no Kronecker lift is stored.  ``tables`` holds the compiled
    polynomial tables (see :func:`compile_tables`): :func:`evaluate` gives
    grad F, h, grad h and the per-agent f in one pass over the stacked
    table and :func:`hessians` every hess f_i and hess h_i in one pass over
    the Hessian table, and every other reader of those values takes them
    from such a pass.
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

    @cached_property
    def engines(self) -> dict:
        """What the solvers build for this problem on first use and keep with
        it: the array executor and the state blocks (``solvers``)."""
        return {}

    def zero_state(self) -> "MultiplierState":
        return MultiplierState(
            x=np.zeros((self.N, self.n)),
            mu=np.zeros(self.m),
            lam=np.zeros((self.num_pairs, self.n)),
        )


def lift_problem(agents: Sequence[LocalProblem], graph: GraphSpec) -> LiftedProblem:
    """Assemble the lifted problem; validates dimensions, and connectivity
    by the rank test of ``netgraph.range_basis``."""
    agents = tuple(agents)
    if len(agents) != graph.num_agents:
        raise DimensionError(
            f"{len(agents)} agents but graph declares {graph.num_agents}"
        )
    n = agents[0].dim
    if any(a.dim != n for a in agents):
        raise DimensionError("all agents must share the same dimension n")
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
    """One pass over ``p.tables["stacked"]`` at x, shape (N, n).  Each entry
    has the bits of the agent's own one-row table, so the message engine,
    which evaluates those, sees the same values."""
    if np.shape(x) != (p.N, p.n):
        raise DimensionError(f"x has shape {np.shape(x)}, expected {(p.N, p.n)}")
    return evaluation_views(p, p.tables["stacked"](x))


def hessians(p: LiftedProblem, x: Array) -> tuple[Array, Array]:
    """hess f_i of every agent and hess h_i of every constrained agent, each
    at its own row of x, shapes (N, n, n) and (m, n, n): one pass over
    ``p.tables["hessian"]``."""
    H = p.tables["hessian"](x).reshape(-1, p.n, p.n)
    return H[:p.N], H[p.N:]


def evaluation_size(p: LiftedProblem) -> int:
    """Entries of one evaluation laid out flat: N f, N n grad f, m h, m n grad h."""
    return (p.N + p.m) * (p.n + 1)


def evaluation_views(p: LiftedProblem, flat: Array) -> Evaluation:
    """The evaluations in ``flat`` (..., :func:`evaluation_size`), in the
    layout of the stacked table's pass, as views with the same leading axes."""
    N, n, m, lead = p.N, p.n, p.m, flat.shape[:-1]
    a, b = N * (n + 1), N * (n + 1) + m  # f, grad_f | h | grad_h
    return Evaluation(flat[..., N:a].reshape(*lead, N, n), flat[..., a:b],
                      flat[..., b:].reshape(*lead, m, n), flat[..., :N])


def objective_total(f) -> Array | float:
    """F = sum of the per-agent objective values f_i over the last axis of
    ``f``, added one at a time in agent order from 0.0 (not the builtin
    ``sum``, which compensates from Python 3.12 on, nor pairwise ``np.sum``):
    the accumulate starts from f_0, and + 0.0 mends an all -0.0 sum."""
    return np.add.accumulate(f, axis=-1)[..., -1] + 0.0 if np.shape(f)[-1] else 0.0


def constraint_jacobian(p: LiftedProblem, grad_h: Array) -> Array:
    """Gradient matrices of the lifted constraints, shape (..., nN, m), of
    :attr:`Evaluation.grad_h` (..., m, n): column k holds row k in the block
    of agent i, the k-th constrained agent, and zeros elsewhere."""
    lead, m = grad_h.shape[:-2], p.m
    G = np.zeros((*lead, p.N, m, p.n))
    G[..., p.constrained_agents, range(m), :] = grad_h
    return G.swapaxes(-1, -2).reshape(*lead, p.N * p.n, m)


def lagrangian_hessian_blocks(p: LiftedProblem, x: Array, mu: Array, c: float = 0.0,
                              ev: Evaluation | None = None,
                              hess: tuple[Array, Array] | None = None) -> Array:
    """The diagonal blocks of hess L_c, shape (N, n, n): hess f_i + mu_i hess h_i
    of every agent i at its own row of x, plus c h_i hess h_i
    + c grad h_i grad h_i' when c > 0; ``ev`` is the evaluation at x and
    ``hess`` the :func:`hessians` at x when they are at hand."""
    blocks, hh = hessians(p, x) if hess is None else (hess[0].copy(), hess[1])
    if p.m:
        ca = list(p.constrained_agents)
        con = blocks[ca] + mu[:, None, None] * hh
        if c:
            ev = evaluate(p, x) if ev is None else ev
            gh = ev.grad_h
            con = con + c * (ev.h[:, None, None] * hh + gh[:, :, None] * gh[:, None, :])
        blocks[ca] = con
    return blocks


def hess_aug_lagrangian(
    p: LiftedProblem, state: MultiplierState, c: float, ev: Evaluation | None = None,
    hess: tuple[Array, Array] | None = None,
) -> Array:
    """Hessian in x of L_c, shape (nN, nN).

    Block-diagonal part: :func:`lagrangian_hessian_blocks`; penalty
    coupling: c L (x) I_n, lifted here because the result is a dense
    matrix.  ``ev`` is the evaluation at state.x and ``hess`` the
    :func:`hessians` at state.x when they are at hand.
    """
    if c < 0:
        raise ValueError("penalty parameter c must be >= 0")
    check_state(p, state)
    H = block_diagonal(lagrangian_hessian_blocks(p, state.x, state.mu, c, ev, hess))
    if c:
        H = H + c * np.kron(p.L, np.eye(p.n))
    return H


def block_diagonal(blocks: Array) -> Array:
    """The dense (nN, nN) matrix with block i of ``blocks`` (N, n, n) at (i, i)."""
    N, n, _ = blocks.shape
    H = np.zeros((N * n, N * n))
    H.reshape(N, n, N, n)[range(N), :, range(N), :] = blocks
    return H


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    constraint: float
    consensus: float

    @property
    def total(self) -> float:
        return math.sqrt(self.stationarity**2 + self.constraint**2 + self.consensus**2)


def kkt_residual(p: LiftedProblem, state: MultiplierState,
                 ev: Evaluation | None = None) -> KKTResidual:
    """Norms of the three first-order conditions of the lifted problem.

    Returns (||grad F + grad h mu + S'lam||, ||h(x)||, ||Sx||); invariant
    under shifting lam by any vector in Null(S').  The one-state case of
    :func:`kkt_norms`; ``ev`` is the evaluation at state.x when it is at hand.
    """
    check_state(p, state)
    ev = Evaluation(*(v[None] for v in (evaluate(p, state.x) if ev is None else ev)))
    one = (v[None] for v in (state.x, state.mu, state.lam))
    return KKTResidual(*kkt_norms(p, *one, ev)[0].tolist())


def kkt_norms(p: LiftedProblem, x: Array, mu: Array, lam: Array, ev: Evaluation) -> Array:
    """The :func:`kkt_residual` norms, shape (B, 3), of B shape-checked
    states stacked on a leading axis, ``ev`` their stacked evaluations.  Row
    b has the bits of state b alone: each product is a matmul of its 2-d
    operands, and ``G @ mu`` turns 0 * inf into nan on a diverging row."""
    B = len(x)
    stat = ev.grad_f.reshape(B, -1) + np.matmul(p.incidence.S.T, lam).reshape(B, -1)
    if p.m:  # a zero product added could change the sign of a zero
        stat = stat + np.matmul(constraint_jacobian(p, ev.grad_h), mu[..., None]).reshape(B, -1)
    Sx = np.matmul(p.incidence.S, x).reshape(B, -1)
    return np.stack([row_norms(stat), row_norms(ev.h), row_norms(Sx)], axis=1)


def row_norms(a: Array) -> Array:
    """``np.linalg.norm`` of every row of ``a`` (B, k), bit for bit: numpy
    takes the root of the row's dot, and each row's dot is one
    (1, k) @ (k, 1) product of the batched matmul."""
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
    """||analytic - reference|| / ||reference||; ``math.hypot`` scales its
    arguments, so a gradient norm above 1e154 does not overflow."""
    diff = math.hypot(*(analytic - reference))
    if diff == 0.0:
        return 0.0
    return diff / max(math.hypot(*reference), 1e-300)


@dataclass(frozen=True)
class GradientCheckEntry:
    agent: int
    kind: str
    point: Array
    rel_error: float


@dataclass(frozen=True)
class GradientCheckReport:
    entries: tuple[GradientCheckEntry, ...]

    def worst(self) -> GradientCheckEntry:
        """The entry of the largest error; a nan error (an f or h that
        overflowed, whose differences read inf - inf) is larger than any."""
        return max(self.entries, key=lambda e: (math.isnan(e.rel_error), e.rel_error))

    @property
    def max_rel_error(self) -> float:
        return self.worst().rel_error


def check_gradients(p: LiftedProblem, samples: int, seed: int = 0) -> GradientCheckReport:
    """Compare each agent's grad f and grad h (:meth:`LocalProblem.values`)
    against central differences of its f and h at random points; under
    ``np.errstate``, as in the oracle, an overflow is a nan error."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    entries = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, agent in enumerate(p.agents):
            for _ in range(samples):
                point = rng.uniform(-2.0, 2.0, agent.dim)
                values = agent.values(point)
                for k, kind in enumerate(("f", "h") if agent.constrained else ("f",)):
                    fd = central_difference_gradient(lambda x: agent.values(x)[2 * k], point)
                    error = _relative_error(values[2 * k + 1], fd)
                    entries.append(GradientCheckEntry(i, f"grad_{kind}", point, error))
    return GradientCheckReport(tuple(entries))


# ---------------------------------------------------------------------------
# polynomial agents (file-driven custom problems and fixture library)


def finite_number(value) -> bool:
    """An int or a float, not a bool, with |value| <= the largest float (exact for an int)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _parse_terms(terms: Sequence[Sequence], dim: int) -> Terms:
    """Check and normalize ``[coefficient, [e_1, ..., e_n]]`` terms: each
    coefficient a :func:`finite_number`, each exponent an int >= 0 (a bool
    is neither, as in the config schema)."""
    parsed = []
    for term in terms:
        try:
            coeff, exps = term
            exps = tuple(exps)
        except (TypeError, ValueError):
            raise ValueError(f"term {term!r} is not [coefficient, exponent-vector]") from None
        if not finite_number(coeff):
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
