"""Algebraic objects of the communication graph.

Builds the weighted edge-node incidence matrix of an undirected
communication topology, the induced weighted Laplacian, Kronecker lifts to
per-agent dimension n, and the orthogonal projector onto the incidence
matrix's left nullspace.  Edge presence is symmetric but the two directed
weights s_ij and s_ji may differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

NULLSPACE_RTOL = 1e-10


class GraphTopologyError(ValueError):
    """Edge list is not a valid symmetric topology."""


class GraphWeightError(ValueError):
    """A directed weight is missing or not strictly positive."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected communication graph."""


@dataclass(frozen=True)
class GraphSpec:
    """Communication topology: ``num_agents`` nodes and directed weights.

    ``directed_weights`` holds one ``(i, j, s_ij)`` triple per ordered
    neighbor pair, 0-based.  Presence must be symmetric ((i, j) listed iff
    (j, i) listed); the weights themselves need not be equal.
    """

    num_agents: int
    directed_weights: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.num_agents < 1:
            raise GraphTopologyError("num_agents must be a positive integer")
        seen = set()
        for i, j, w in self.directed_weights:
            if not (0 <= i < self.num_agents and 0 <= j < self.num_agents):
                raise GraphTopologyError(f"agent index out of range in pair ({i}, {j})")
            if i == j:
                raise GraphTopologyError(f"self-loop ({i}, {i}) is not allowed")
            if (i, j) in seen:
                raise GraphTopologyError(f"duplicate directed pair ({i}, {j})")
            if not w > 0:
                raise GraphWeightError(f"weight s_{i}{j} = {w} must be strictly positive")
            seen.add((i, j))
        for i, j in seen:
            if (j, i) not in seen:
                raise GraphTopologyError(
                    f"edge presence is not symmetric: ({i}, {j}) given without ({j}, {i})"
                )

    @property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        nbrs: dict[int, list[int]] = {i: [] for i in range(self.num_agents)}
        for i, j, _ in self.directed_weights:
            nbrs[i].append(j)
        return {i: tuple(sorted(v)) for i, v in nbrs.items()}


def from_edges(num_agents: int, edges, symmetric_weights: bool = True) -> GraphSpec:
    """Build a GraphSpec from undirected-style ``(i, j, w)`` triples.

    When ``symmetric_weights`` is true, a triple with no listed reverse
    gets the reverse synthesized with the same weight.
    """
    given = {}
    for i, j, w in edges:
        given[(int(i), int(j))] = float(w)
    if symmetric_weights:
        for (i, j), w in list(given.items()):
            given.setdefault((j, i), w)
    triples = tuple((i, j, w) for (i, j), w in sorted(given.items()))
    return GraphSpec(num_agents=num_agents, directed_weights=triples)


@dataclass(frozen=True)
class IncidenceMatrix:
    """Weighted edge-node incidence matrix with its row bookkeeping.

    Row r corresponds to the ordered pair ``row_order[r] = (i, j)`` and has
    +s_ij in column i and -s_ij in column j.  Rows are ordered
    lexicographically by (i, j) so matrices are reproducible.  The edge
    list of the rows: ``tail[r] = i``, ``head[r] = j``, ``weights[r] =
    s_ij`` and ``laplacian_weights[r] = s_ij^2 + s_ji^2``.
    """

    S: np.ndarray
    row_order: tuple[tuple[int, int], ...]
    weights: np.ndarray
    num_agents: int
    tail: np.ndarray
    head: np.ndarray
    laplacian_weights: np.ndarray

    @property
    def num_pairs(self) -> int:
        return len(self.row_order)


def build_incidence(spec: GraphSpec) -> IncidenceMatrix:
    """Assemble the incidence matrix S of a graph spec."""
    weight = {(i, j): w for i, j, w in spec.directed_weights}
    pairs = sorted(weight)
    rows = np.arange(len(pairs))
    tail, head = (np.array([pair[k] for pair in pairs], dtype=int) for k in (0, 1))
    w = np.array([weight[pair] for pair in pairs], dtype=float)
    S = np.zeros((len(pairs), spec.num_agents))
    S[rows, tail], S[rows, head] = w, -w
    # scalar ** 2 (libm pow): the array square can differ in the last bit, and
    # every iterate and trace depends on these values
    lap_w = np.array([weight[(i, j)] ** 2 + weight[(j, i)] ** 2 for i, j in pairs], dtype=float)
    return IncidenceMatrix(S=S, row_order=tuple(pairs), weights=w, num_agents=spec.num_agents,
                           tail=tail, head=head, laplacian_weights=lap_w)


def laplacian(inc: IncidenceMatrix) -> np.ndarray:
    """Weighted Laplacian L = S'S; off-diagonals are -(s_ij^2 + s_ji^2)."""
    return inc.S.T @ inc.S


def kron_lift(A: np.ndarray, n: int) -> np.ndarray:
    """Kronecker lift A -> A (x) I_n acting blockwise on stacked vectors."""
    if n < 1:
        raise ValueError("lift dimension must be >= 1")
    if n == 1:
        return np.asarray(A, dtype=float).copy()
    return np.kron(np.asarray(A, dtype=float), np.eye(n))


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector J = UU' onto Null(S'), plus the basis U."""

    J: np.ndarray
    U: np.ndarray

    @property
    def rank(self) -> int:
        return self.U.shape[1]


def nullspace_projector(inc: IncidenceMatrix) -> Projector:
    """Orthogonal projector onto Null(S') for a connected graph.

    Singular values below ``NULLSPACE_RTOL`` times the largest are treated
    as zero.  Raises :class:`DisconnectedGraphError` when the rank of S is
    inconsistent with connectivity (rank S = N - 1).
    """
    U = scipy.linalg.null_space(inc.S.T, rcond=NULLSPACE_RTOL)
    expected = inc.num_pairs - (inc.num_agents - 1)
    if U.shape[1] != expected:
        raise DisconnectedGraphError(
            f"dim Null(S') = {U.shape[1]} but a connected graph requires {expected}"
        )
    return Projector(J=U @ U.T, U=U)


def check_connected(spec: GraphSpec) -> bool:
    """True iff the undirected graph is connected (graph search)."""
    if spec.num_agents == 1:
        return True
    nbrs = spec.neighbors
    seen = {0}
    stack = [0]
    while stack:
        for j in nbrs[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == spec.num_agents
