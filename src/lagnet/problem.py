"""Agent-local problems, the consensus-lifted problem, and its Lagrangians.

An agent holds a smooth objective f_i : R^n -> R and optionally one scalar
equality constraint h_i.  Stacking N agent copies over a connected graph
gives the lifted problem

    min  sum_i f_i(x_i)   s.t.   h_i(x_i) = 0 (constrained agents),  S x = 0,

whose (augmented) Lagrangian, gradient, Hessian and first-order residuals
are evaluated here.  Stacked vectors are stored agent-major: ``x`` has
shape (N, n) and the consensus multiplier ``lam`` has shape (num_pairs, n)
in the incidence row order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .netgraph import (
    GraphSpec,
    IncidenceMatrix,
    Projector,
    build_incidence,
    check_connected,
    kron_lift,
    laplacian,
    nullspace_projector,
)

Array = np.ndarray


class DimensionError(ValueError):
    """State dimensions inconsistent with the lifted problem."""


class CapabilityError(RuntimeError):
    """Operation needs evaluators (e.g. Hessians) the problem lacks."""


@dataclass(frozen=True)
class LocalProblem:
    """One agent: objective evaluators and an optional equality constraint.

    ``grad_f`` (and ``grad_h`` when a constraint is present) are required
    analytic evaluators; Hessians are optional and only demanded by
    second-order operations.  Evaluators must be pure functions.
    """

    dim: int
    f: Callable[[Array], float]
    grad_f: Callable[[Array], Array]
    hess_f: Callable[[Array], Array] | None = None
    h: Callable[[Array], float] | None = None
    grad_h: Callable[[Array], Array] | None = None
    hess_h: Callable[[Array], Array] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("agent dimension must be positive")
        if (self.h is None) != (self.grad_h is None):
            raise ValueError("constraint requires both h and grad_h")
        if self.hess_h is not None and self.h is None:
            raise ValueError("hess_h given without h")

    @property
    def constrained(self) -> bool:
        return self.h is not None

    @property
    def has_hessians(self) -> bool:
        if self.hess_f is None:
            return False
        return (not self.constrained) or self.hess_h is not None


@dataclass(frozen=True)
class LiftedProblem:
    """N agent copies over a connected graph, with derived graph algebra.

    Use :func:`lift_problem` to construct; the dense lifted matrices
    S_lift = S (x) I_n, L_lift and J_lift are precomputed (problem sizes
    are desk scale).
    """

    agents: tuple[LocalProblem, ...]
    graph: GraphSpec
    incidence: IncidenceMatrix
    L: Array
    projector: Projector
    S_lift: Array
    L_lift: Array
    J_lift: Array
    constrained_agents: tuple[int, ...]

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

    @property
    def has_hessians(self) -> bool:
        return all(a.has_hessians for a in self.agents)

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
        from .netgraph import DisconnectedGraphError

        raise DisconnectedGraphError("communication graph must be connected")
    constrained = tuple(i for i, a in enumerate(agents) if a.constrained)
    if len(constrained) > n:
        raise DimensionError(
            f"m = {len(constrained)} constraints exceed the agent dimension n = {n}"
        )
    inc = build_incidence(graph)
    L = laplacian(inc)
    proj = nullspace_projector(inc)
    return LiftedProblem(
        agents=agents,
        graph=graph,
        incidence=inc,
        L=L,
        projector=proj,
        S_lift=kron_lift(inc.S, n),
        L_lift=kron_lift(L, n),
        J_lift=kron_lift(proj.J, n),
        constrained_agents=constrained,
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


def eval_lifted_objective(p: LiftedProblem, x: Array) -> float:
    """Sum of the agent objectives at their own copies, F(x) = sum f_i(x_i)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.N, p.n):
        raise DimensionError(f"x has shape {x.shape}, expected {(p.N, p.n)}")
    return float(sum(p.agents[i].f(x[i]) for i in range(p.N)))


def constraint_values(p: LiftedProblem, x: Array) -> Array:
    """h(x) stacked over constrained agents, shape (m,)."""
    return np.array([p.agents[i].h(x[i]) for i in p.constrained_agents], dtype=float)


def constraint_jacobian(p: LiftedProblem, x: Array) -> Array:
    """Gradient matrix of the lifted constraints, shape (nN, m).

    Column k holds grad h_i(x_i) in agent i's block, i the k-th
    constrained agent.
    """
    G = np.zeros((p.N * p.n, p.m))
    for col, i in enumerate(p.constrained_agents):
        G[i * p.n : (i + 1) * p.n, col] = p.agents[i].grad_h(x[i])
    return G


def objective_gradient(p: LiftedProblem, x: Array) -> Array:
    """Stacked gradient of F, shape (nN,)."""
    return np.concatenate([p.agents[i].grad_f(x[i]) for i in range(p.N)])


def eval_lagrangian(p: LiftedProblem, state: MultiplierState) -> float:
    """L(x, mu, lam) = F(x) + mu'h(x) + lam'Sx."""
    check_state(p, state)
    Sx = p.S_lift @ state.x.ravel()
    value = eval_lifted_objective(p, state.x)
    if p.m:
        value += float(state.mu @ constraint_values(p, state.x))
    return value + float(state.lam.ravel() @ Sx)


def eval_aug_lagrangian(p: LiftedProblem, state: MultiplierState, c: float) -> float:
    """L_c = L + (c/2)||h(x)||^2 + (c/2) x'Lx; c = 0 gives the plain value."""
    if c < 0:
        raise ValueError("penalty parameter c must be >= 0")
    value = eval_lagrangian(p, state)
    if c == 0:
        return value
    xf = state.x.ravel()
    penalty = float(xf @ (p.L_lift @ xf))
    if p.m:
        hv = constraint_values(p, state.x)
        penalty += float(hv @ hv)
    return value + 0.5 * c * penalty


def grad_aug_lagrangian(p: LiftedProblem, state: MultiplierState, c: float) -> Array:
    """Gradient in x of L_c, stacked shape (nN,).

    grad F + grad h mu + S'lam + c grad h h + c L x.
    """
    if c < 0:
        raise ValueError("penalty parameter c must be >= 0")
    check_state(p, state)
    xf = state.x.ravel()
    g = objective_gradient(p, state.x) + p.S_lift.T @ state.lam.ravel()
    if p.m:
        G = constraint_jacobian(p, state.x)
        coeffs = state.mu
        if c:
            coeffs = coeffs + c * constraint_values(p, state.x)
        g = g + G @ coeffs
    if c:
        g = g + c * (p.L_lift @ xf)
    return g


def hess_aug_lagrangian(p: LiftedProblem, state: MultiplierState, c: float) -> Array:
    """Hessian in x of L_c, shape (nN, nN).

    Block-diagonal part: hess f_i + mu_i hess h_i (+ c h_i hess h_i
    + c grad h_i grad h_i'); penalty coupling: c L.  Requires Hessian
    evaluators on every agent.
    """
    if c < 0:
        raise ValueError("penalty parameter c must be >= 0")
    check_state(p, state)
    if not p.has_hessians:
        raise CapabilityError("Hessian evaluators required on every agent")
    n, N = p.n, p.N
    H = np.zeros((N * n, N * n))
    for i, agent in enumerate(p.agents):
        block = np.array(agent.hess_f(state.x[i]), dtype=float, copy=True)
        if agent.constrained:
            k = p.constrained_agents.index(i)
            hh = np.asarray(agent.hess_h(state.x[i]), dtype=float)
            gh = np.asarray(agent.grad_h(state.x[i]), dtype=float)
            block = block + state.mu[k] * hh
            if c:
                block = block + c * (agent.h(state.x[i]) * hh + np.outer(gh, gh))
        H[i * n : (i + 1) * n, i * n : (i + 1) * n] = block
    if c:
        H = H + c * p.L_lift
    return H


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    constraint: float
    consensus: float

    @property
    def total(self) -> float:
        return float(np.sqrt(self.stationarity**2 + self.constraint**2 + self.consensus**2))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.stationarity, self.constraint, self.consensus)


def kkt_residual(p: LiftedProblem, state: MultiplierState) -> KKTResidual:
    """Norms of the three first-order conditions of the lifted problem.

    Returns (||grad F + grad h mu + S'lam||, ||h(x)||, ||Sx||); invariant
    under shifting lam by any vector in Null(S').
    """
    check_state(p, state)
    stat = grad_aug_lagrangian(p, state, 0.0)
    hv = constraint_values(p, state.x) if p.m else np.zeros(0)
    Sx = p.S_lift @ state.x.ravel()
    return KKTResidual(
        stationarity=float(np.linalg.norm(stat)),
        constraint=float(np.linalg.norm(hv)),
        consensus=float(np.linalg.norm(Sx)),
    )


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
    """Compare supplied gradients against central differences at random points."""
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
# polynomial evaluators (file-driven custom problems and fixture library)


def polynomial_evaluators(terms: Sequence[Sequence], dim: int):
    """Closures (f, grad, hess) for a polynomial given as [coeff, exponents] terms.

    Each term is ``[coefficient, [e_1, ..., e_n]]``; f(x) = sum over terms
    of coefficient * prod_k x_k^{e_k}.  Differentiation is exact.
    """
    parsed = []
    for term in terms:
        try:
            coeff, exps = term
            coeff, exps = float(coeff), tuple(int(e) for e in exps)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"term {term!r} is not [coefficient, exponent-vector]") from None
        if len(exps) != dim:
            raise ValueError(f"exponent vector {exps} does not match dim {dim}")
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be non-negative")
        parsed.append((coeff, exps))

    def f(x):
        return float(sum(c * np.prod(x**np.array(e)) for c, e in parsed))

    def _dterm(c, e, k):
        if e[k] == 0:
            return None
        new = list(e)
        new[k] -= 1
        return c * e[k], tuple(new)

    def grad(x):
        g = np.zeros(dim)
        for c, e in parsed:
            for k in range(dim):
                d = _dterm(c, e, k)
                if d is not None:
                    dc, de = d
                    g[k] += dc * np.prod(x**np.array(de))
        return g

    def hess(x):
        H = np.zeros((dim, dim))
        for c, e in parsed:
            for k in range(dim):
                d = _dterm(c, e, k)
                if d is None:
                    continue
                dc, de = d
                for l in range(dim):
                    d2 = _dterm(dc, de, l)
                    if d2 is not None:
                        d2c, d2e = d2
                        H[k, l] += d2c * np.prod(x**np.array(d2e))
        return H

    return f, grad, hess


def polynomial_agent(f_terms, dim: int, h_terms=None) -> LocalProblem:
    """LocalProblem with polynomial objective and optional polynomial constraint."""
    f, gf, Hf = polynomial_evaluators(f_terms, dim)
    if h_terms is None:
        return LocalProblem(dim=dim, f=f, grad_f=gf, hess_f=Hf)
    h, gh, Hh = polynomial_evaluators(h_terms, dim)
    return LocalProblem(dim=dim, f=f, grad_f=gf, hess_f=Hf, h=h, grad_h=gh, hess_h=Hh)
