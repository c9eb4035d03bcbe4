"""Algebraic objects of the communication graph.

Builds the weighted edge-node incidence matrix of an undirected
communication topology, the induced weighted Laplacian, and one thin SVD
S = R Sigma V' of the incidence matrix, which decides connectivity
(rank S = N - 1) and answers every Range(S) and Null(S') question:
I - RR' projects onto Null(S').  Edge presence is symmetric but the two
directed weights s_ij and s_ji may differ.

Stacked per-agent vectors are agent-major arrays of shape (N, n) (or
(num_pairs, n)), so the unlifted matrices act on them directly: the
Kronecker lift (S (x) I_n) x.ravel() equals (S x).ravel().
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

RANK_RTOL = 1e-10


class GraphTopologyError(ValueError):
    """Edge list is not a valid symmetric topology."""


class GraphWeightError(ValueError):
    """A directed weight is not finite and strictly positive, or its pair's
    Laplacian weight s_ij^2 + s_ji^2 overflows."""


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
        weight = {}
        for i, j, w in self.directed_weights:
            if not (0 <= i < self.num_agents and 0 <= j < self.num_agents):
                raise GraphTopologyError(f"agent index out of range in pair ({i}, {j})")
            if i == j:
                raise GraphTopologyError(f"self-loop ({i}, {i}) is not allowed")
            if (i, j) in weight:
                raise GraphTopologyError(f"duplicate directed pair ({i}, {j})")
            if not 0 < w <= sys.float_info.max:
                raise GraphWeightError(
                    f"weight s_{i}{j} = {w} must be finite and strictly positive")
            weight[(i, j)] = float(w)
        for (i, j), w in weight.items():
            if (j, i) not in weight:
                raise GraphTopologyError(
                    f"edge presence is not symmetric: ({i}, {j}) given without ({j}, {i})"
                )
            if not math.isfinite(w * w + weight[(j, i)] * weight[(j, i)]):
                raise GraphWeightError(f"s_{i}{j}^2 + s_{j}{i}^2 overflows")


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


@dataclass(frozen=True)
class RangeBasis:
    """Thin SVD S = R diag(sigma) V' of a connected graph's incidence matrix.

    R (num_pairs, N - 1) is an orthonormal basis of Range(S), so the
    projector onto Null(S') is I - RR'; sigma holds the N - 1 positive
    singular values and V (N, N - 1) the matching right singular vectors.
    """

    R: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def min_norm_solve(self, r: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares lam of S' lam = r, one column per
        coordinate: R Sigma^{-1} V' r, which lies in Range(S)."""
        return self.R @ ((self.V.T @ r) / self.sigma[:, None])


def range_basis(inc: IncidenceMatrix) -> RangeBasis:
    """Thin SVD of S, keeping the singular values above ``RANK_RTOL``
    times the largest.  Raises :class:`DisconnectedGraphError` unless
    rank S = N - 1: this is the one connectivity test, since a graph with k
    components has rank S = N - k."""
    U, s, Vt = np.linalg.svd(inc.S, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0])) if s.size else 0
    if rank != inc.num_agents - 1:
        raise DisconnectedGraphError(
            f"communication graph must be connected: rank S = {rank}, "
            f"not N - 1 = {inc.num_agents - 1}")
    return RangeBasis(R=U[:, :rank], sigma=s[:rank], V=Vt[:rank].T)

