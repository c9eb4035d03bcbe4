from collections import deque

import numpy as np
import pytest
import scipy.linalg
from conftest import kron_lift
from hypothesis import given, settings
from hypothesis import strategies as st

from lagnet.netgraph import (
    DisconnectedGraphError,
    GraphSpec,
    GraphTopologyError,
    GraphWeightError,
    build_incidence,
    from_edges,
    laplacian,
    range_basis,
)
from lagnet.problem import lift_problem, polynomial_agent


def null_projector(inc):
    """I - RR', the projector onto Null(S') of the range basis."""
    R = range_basis(inc).R
    return np.eye(inc.num_pairs) - R @ R.T


def two_agent(s12=1.0, s21=1.0):
    return GraphSpec(2, ((0, 1, s12), (1, 0, s21)))


def path3():
    return from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


def test_incidence_unit_two_agents():
    inc = build_incidence(two_agent())
    assert inc.row_order == ((0, 1), (1, 0))
    assert np.array_equal(inc.S, [[1.0, -1.0], [-1.0, 1.0]])


def test_incidence_asymmetric_weights():
    inc = build_incidence(two_agent(2.0, 3.0))
    assert np.array_equal(inc.S, [[2.0, -2.0], [-3.0, 3.0]])


def test_incidence_path3_rows():
    inc = build_incidence(path3())
    assert inc.row_order == ((0, 1), (1, 0), (1, 2), (2, 1))
    expected = np.array(
        [[1, -1, 0], [-1, 1, 0], [0, 1, -1], [0, -1, 1]], dtype=float
    )
    assert np.array_equal(inc.S, expected)


def test_nonsymmetric_presence_rejected():
    with pytest.raises(GraphTopologyError):
        GraphSpec(3, ((0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)))


def test_nonpositive_weight_rejected():
    with pytest.raises(GraphWeightError):
        GraphSpec(2, ((0, 1, 0.0), (1, 0, 1.0)))


@pytest.mark.parametrize("s12, s21", [
    (np.inf, 1.0), (np.nan, 1.0), (10**400, 1.0), (1e200, 1e200), (1e160, 1.0), (1e154, 1e154),
])
def test_nonfinite_or_overflowing_weight_rejected(s12, s21):
    # s_12^2 + s_21^2 is a Laplacian weight; it must be finite as well
    with pytest.raises(GraphWeightError):
        GraphSpec(2, ((0, 1, s12), (1, 0, s21)))
    GraphSpec(2, ((0, 1, 1e153), (1, 0, 1e153)))


def test_duplicate_pair_rejected():
    with pytest.raises(GraphTopologyError):
        GraphSpec(2, ((0, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0)))


def test_laplacian_unit():
    L = laplacian(build_incidence(two_agent()))
    assert np.array_equal(L, [[2.0, -2.0], [-2.0, 2.0]])


def test_laplacian_weighted_offdiagonal():
    L = laplacian(build_incidence(two_agent(2.0, 3.0)))
    assert np.array_equal(L, [[13.0, -13.0], [-13.0, 13.0]])
    assert L[0, 1] == -(2.0**2 + 3.0**2)


def test_laplacian_nullvector_ones():
    L = laplacian(build_incidence(path3()))
    assert np.allclose(L @ np.ones(3), 0.0, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(L)) == pytest.approx(0.0, abs=1e-12)


def test_kron_lift_identity_case():
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(kron_lift(A, 1), A)


def test_kron_lift_scalar():
    assert np.array_equal(kron_lift(np.array([[2.0]]), 3), 2.0 * np.eye(3))


def test_kron_lift_nullspace_consensus():
    S = build_incidence(two_agent()).S
    Sb = kron_lift(S, 2)
    v = np.concatenate([[0.3, -0.7], [0.3, -0.7]])
    assert np.allclose(Sb @ v, 0.0, atol=1e-14)
    # the lift acts on agent-major arrays as the unlifted S does
    x = np.array([[0.3, -0.7], [1.1, 0.4]])
    assert np.array_equal(Sb @ x.ravel(), (S @ x).ravel())


def test_projector_two_agents():
    J = null_projector(build_incidence(two_agent()))
    assert np.allclose(J, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_projector_kills_range_of_S():
    inc = build_incidence(path3())
    J = null_projector(inc)
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(3)
        assert np.linalg.norm(J @ (inc.S @ v)) <= 1e-12


def test_projector_rank_path3():
    inc = build_incidence(path3())
    assert range_basis(inc).R.shape == (4, 3 - 1)
    assert np.linalg.matrix_rank(null_projector(inc)) == 4 - 3 + 1


def test_projector_disconnected_rejected():
    spec = from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraphError):
        range_basis(build_incidence(spec))


@st.composite
def forests(draw, max_agents=8, max_trees=3):
    """(N, edges): a random forest of 1 to ``max_trees`` trees on 1 to
    ``max_agents`` agents; agents 0, ..., trees - 1 are the roots, and each
    later agent hangs from an earlier one."""
    num = draw(st.integers(1, max_agents))
    trees = draw(st.integers(1, min(max_trees, num)))
    weight = st.floats(0.1, 10.0)
    return num, [(draw(st.integers(0, node - 1)), node, draw(weight))
                 for node in range(trees, num)]


def count_components(num, edges) -> int:
    """The connected components of the undirected graph, by breadth-first search."""
    nbrs = {i: set() for i in range(num)}
    for i, j, _ in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    seen, count = set(), 0
    for start in range(num):
        if start not in seen:
            count += 1
            seen.add(start)
            queue = deque([start])
            while queue:
                for j in nbrs[queue.popleft()] - seen:
                    seen.add(j)
                    queue.append(j)
    return count


@settings(max_examples=60, derandomize=True)
@given(forests())
def test_lift_problem_rejects_exactly_the_disconnected_graphs(forest):
    # the rank test of range_basis is the one connectivity check: a graph
    # with k components has rank S = N - k
    num, edges = forest
    agents = [polynomial_agent([[0.5, [2]]], 1)] * num
    k = count_components(num, edges)
    if k > 1:
        with pytest.raises(DisconnectedGraphError,
                           match=f"connected: rank S = {num - k}, not N - 1 = {num - 1}"):
            lift_problem(agents, from_edges(num, edges))
    else:
        assert lift_problem(agents, from_edges(num, edges)).range_basis.R.shape[1] == num - 1


def test_from_edges_synthesizes_reverse():
    spec = from_edges(2, [(0, 1, 2.5)])
    weights = dict(((i, j), w) for i, j, w in spec.directed_weights)
    assert weights == {(0, 1): 2.5, (1, 0): 2.5}


@st.composite
def connected_specs(draw, min_agents=2, max_agents=6):
    num = draw(st.integers(min_agents, max_agents))
    pairs = set()
    for node in range(1, num):  # random spanning tree keeps it connected
        parent = draw(st.integers(0, node - 1))
        pairs.add((parent, node))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, num - 1))
        j = draw(st.integers(0, num - 1))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    weight = st.floats(0.1, 10.0, allow_nan=False)
    triples = []
    for i, j in sorted(pairs):
        triples.append((i, j, draw(weight)))
        triples.append((j, i, draw(weight)))
    return GraphSpec(num, tuple(triples))


@settings(max_examples=25)
@given(connected_specs())
def test_laplacian_matches_direct_formula(spec):
    inc = build_incidence(spec)
    L = laplacian(inc)
    w = {(i, j): s for i, j, s in spec.directed_weights}
    direct = np.zeros((spec.num_agents, spec.num_agents))
    for i, j in w:
        lij = w[(i, j)] ** 2 + w[(j, i)] ** 2
        direct[i, j] = -lij
        direct[i, i] += lij
    assert np.max(np.abs(L - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))


@settings(max_examples=25)
@given(connected_specs())
def test_projector_invariants(spec):
    inc = build_incidence(spec)
    J = null_projector(inc)
    assert np.linalg.norm(J @ J - J) <= 1e-10
    assert np.linalg.norm(J - J.T) <= 1e-10
    assert np.linalg.norm(inc.S.T @ J) <= 1e-10  # projects onto Null(S')


@settings(max_examples=25)
@given(connected_specs(), st.integers(0, 2**31 - 1))
def test_nullspace_of_S_is_consensus(spec, seed):
    inc = build_incidence(spec)
    # projection of a random vector onto Null(S) = span{ones} is its mean
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spec.num_agents)
    basis = np.ones(spec.num_agents) / np.sqrt(spec.num_agents)
    proj_v = basis * (basis @ v)
    import scipy.linalg

    U = scipy.linalg.null_space(inc.S, rcond=1e-10)
    assert U.shape[1] == 1
    assert np.linalg.norm(U @ (U.T @ v) - proj_v) <= 1e-10


@settings(max_examples=10)
@given(connected_specs(), st.integers(1, 3))
def test_lifted_projector_annihilates_lifted_S(spec, n):
    inc = build_incidence(spec)
    Sb = kron_lift(inc.S, n)
    Jb = kron_lift(null_projector(inc), n)
    assert np.linalg.norm(Sb.T @ Jb) <= 1e-10


@settings(max_examples=50)
@given(connected_specs(1, 8), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_range_basis_properties(spec, n, seed):
    inc = build_incidence(spec)
    rb = range_basis(inc)
    N, P = spec.num_agents, inc.num_pairs
    assert rb.R.shape == (P, N - 1) and rb.V.shape == (N, N - 1)
    assert np.linalg.norm(rb.R.T @ rb.R - np.eye(N - 1)) <= 1e-12
    U = scipy.linalg.null_space(inc.S.T, rcond=1e-10)
    assert np.max(np.abs(np.eye(P) - rb.R @ rb.R.T - U @ U.T), initial=0.0) <= 1e-10
    # the minimum-norm solve of S' lam = r behind lifted_multipliers, against
    # lstsq on the explicit Kronecker lift
    rng = np.random.default_rng(seed)
    r = inc.S.T @ rng.standard_normal((P, n))
    lam = rb.min_norm_solve(r)
    ref, *_ = np.linalg.lstsq(np.kron(inc.S, np.eye(n)).T, r.ravel(), rcond=None)
    assert np.linalg.norm(lam.ravel() - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-300)
    isolated = GraphSpec(N + 1, spec.directed_weights)  # agent N has no edge
    with pytest.raises(DisconnectedGraphError):
        range_basis(build_incidence(isolated))
