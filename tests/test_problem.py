import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from conftest import (
    _norm,
    eval_aug_lagrangian,
    eval_lagrangian,
    grad_aug_lagrangian,
    masked_table_call,
    same_bits,
    sequential_sum,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagnet.fixtures import get_fixture
from lagnet.netgraph import from_edges
from lagnet.problem import (
    DimensionError,
    MultiplierState,
    PolynomialTable,
    central_difference_gradient,
    central_difference_jacobian,
    check_gradients,
    derivative,
    evaluate,
    hess_aug_lagrangian,
    hessians,
    kkt_residual,
    lift_problem,
    objective_total,
    polynomial_agent,
)


@pytest.fixture(scope="module")
def p2():
    return get_fixture("tp-path2").problem


def state_of(p, x, mu=None, lam=None):
    return MultiplierState(
        x=np.asarray(x, dtype=float).reshape(p.N, p.n),
        mu=np.zeros(p.m) if mu is None else np.asarray(mu, dtype=float),
        lam=np.zeros((p.num_pairs, p.n)) if lam is None else
        np.asarray(lam, dtype=float).reshape(p.num_pairs, p.n),
    )


def random_state(p, seed):
    rng = np.random.default_rng(seed)
    return MultiplierState(
        x=rng.uniform(-1, 1, (p.N, p.n)),
        mu=rng.uniform(-1, 1, p.m),
        lam=rng.uniform(-1, 1, (p.num_pairs, p.n)),
    )


# --- objective -------------------------------------------------------------


def objective(p, x):
    """F(x) = sum f_i(x_i), added in agent order."""
    return objective_total(evaluate(p, x).f)


def test_objective_at_agent_minima(p2):
    assert objective(p2, np.array([[1.0], [-1.0]])) == pytest.approx(0.0)


def test_objective_at_origin(p2):
    assert objective(p2, np.array([[0.0], [0.0]])) == pytest.approx(1.0)


def test_objective_at_consensus_half(p2):
    assert objective(p2, np.array([[0.5], [0.5]])) == pytest.approx(1.25)


def test_objective_dimension_mismatch(p2):
    with pytest.raises(DimensionError):
        evaluate(p2, np.zeros((3, 1)))


# --- Lagrangians -----------------------------------------------------------


def test_lagrangian_hand_values(p2):
    s = state_of(p2, [0.5, 0.5], mu=[-1.0])
    assert eval_lagrangian(p2, s) == pytest.approx(1.25)
    s = state_of(p2, [0.0, 0.0], mu=[2.0])
    assert eval_lagrangian(p2, s) == pytest.approx(0.0)


def test_lagrangian_equals_objective_on_feasible_consensus(p2):
    s = state_of(p2, [0.5, 0.5], mu=[3.7], lam=[[1.2], [-0.4]])
    assert eval_lagrangian(p2, s) == pytest.approx(objective(p2, s.x), abs=1e-14)


def test_aug_lagrangian_feasible_point(p2):
    s = state_of(p2, [0.5, 0.5], mu=[-1.0])
    assert eval_aug_lagrangian(p2, s, 10.0) == pytest.approx(1.25)


def test_aug_lagrangian_hand_value(p2):
    s = state_of(p2, [1.0, 0.0])
    assert eval_aug_lagrangian(p2, s, 2.0) == pytest.approx(2.75)


def test_aug_lagrangian_c_zero_reduces(p2):
    s = random_state(p2, 1)
    assert eval_aug_lagrangian(p2, s, 0.0) == eval_lagrangian(p2, s)


def test_aug_lagrangian_negative_c_rejected(p2):
    with pytest.raises(ValueError):
        eval_aug_lagrangian(p2, random_state(p2, 2), -1.0)


# --- gradient and Hessian --------------------------------------------------


def test_gradient_vanishes_at_kkt_point(p2):
    s = state_of(p2, [0.5, 0.5], mu=[-1.0], lam=[[0.75], [-0.75]])
    for c in (0.0, 1.0, 5.0):
        assert np.linalg.norm(grad_aug_lagrangian(p2, s, c)) <= 1e-12


def test_gradient_at_origin(p2):
    s = state_of(p2, [0.0, 0.0])
    assert np.allclose(grad_aug_lagrangian(p2, s, 0.0), [-1.0, 1.0])


@pytest.mark.parametrize("c", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("name", ["tp-path2", "tp-affine2", "tp-nonconv3"])
def test_gradient_matches_finite_differences(name, c):
    p = get_fixture(name).problem
    s = random_state(p, 7)

    def value(xflat):
        return eval_aug_lagrangian(p, s.with_x(xflat.reshape(p.N, p.n)), c)

    fd = central_difference_gradient(value, s.x.ravel())
    g = grad_aug_lagrangian(p, s, c)
    assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(fd))


@pytest.mark.parametrize("c", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("name", ["tp-path2", "tp-affine2", "tp-nonconv3"])
def test_hessian_matches_finite_differences(name, c):
    p = get_fixture(name).problem
    s = random_state(p, 11)

    def grad(xflat):
        return grad_aug_lagrangian(p, s.with_x(xflat.reshape(p.N, p.n)), c)

    fd = central_difference_jacobian(grad, s.x.ravel())
    H = hess_aug_lagrangian(p, s, c)
    assert np.max(np.abs(H - fd)) <= 1e-5 * (1 + np.max(np.abs(fd)))


def test_hessian_hand_values(p2):
    s = state_of(p2, [0.5, 0.5], mu=[-1.0])
    assert np.allclose(hess_aug_lagrangian(p2, s, 0.0), np.eye(2))
    expected = np.array([[4.0, -2.0], [-2.0, 3.0]])
    assert np.allclose(hess_aug_lagrangian(p2, s, 1.0), expected)


def test_hessian_symmetry():
    for name in ("tp-path2", "tp-affine2", "tp-nonconv3"):
        p = get_fixture(name).problem
        for c in (0.0, 1.0, 10.0):
            H = hess_aug_lagrangian(p, random_state(p, 13), c)
            assert np.linalg.norm(H - H.T) <= 1e-12


# --- KKT residual ----------------------------------------------------------


def test_kkt_zero_at_solution(p2):
    s = state_of(p2, [0.5, 0.5], mu=[-1.0], lam=[[0.75], [-0.75]])
    res = kkt_residual(p2, s)
    assert res.total <= 1e-12


def test_kkt_hand_values_at_origin(p2):
    res = kkt_residual(p2, state_of(p2, [0.0, 0.0]))
    assert res.stationarity == pytest.approx(np.sqrt(2.0))
    assert res.constraint == pytest.approx(0.5)
    assert res.consensus == pytest.approx(0.0)


def test_kkt_invariant_under_nullspace_shift(p2):
    s = random_state(p2, 17)
    shifted = MultiplierState(s.x, s.mu, s.lam + 4.2 * np.ones_like(s.lam))
    a, b = kkt_residual(p2, s), kkt_residual(p2, shifted)
    assert astuple(a) == pytest.approx(astuple(b), abs=1e-12)


NORM_SPECIALS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                                 1.7976931348623157e308])


@st.composite
def norm_arrays(draw):
    """A 1-D or 2-D array of full-precision entries at magnitude 1e-3, 1 or
    1e3, or near 1e154 where squares overflow, with up to three special
    values; empty arrays included, and transposed, strided or reversed
    views."""
    shape = draw(st.one_of(st.tuples(st.integers(0, 40)),
                           st.tuples(st.integers(0, 8), st.integers(0, 8))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 1.0, shape) * draw(st.sampled_from([1e-3, 1.0, 1e3, 1e154]))
    if a.size:
        for i, v in draw(st.lists(st.tuples(st.integers(0, a.size - 1), NORM_SPECIALS),
                                  max_size=3)):
            a.flat[i] = v
    view = draw(st.sampled_from(["plain", "transposed", "strided", "reversed", "fortran"]))
    if view == "transposed":
        return a.T
    if view == "strided":
        return a[::2] if a.ndim == 1 else a[:, ::2]
    if view == "reversed":
        return a[::-1]
    return np.asfortranarray(a) if view == "fortran" else a


@settings(max_examples=300)
@given(v=norm_arrays())
@example(v=np.array([1e154, 1e154]))
@example(v=np.zeros((0, 3)).T)
def test_norm_bitwise_equals_numpy(v):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.linalg.norm(v))
        got = _norm(v)
    assert type(got) is float
    assert same_bits(got, expected)


def test_feasibility_collapse_all_penalties(p2):
    # L_c(1 (x) z, mu, lam) = f(z) whenever h(z) = 0
    for c in (0.0, 1.0, 10.0):
        for mu in (-2.0, 0.0, 3.0):
            s = state_of(p2, [0.5, 0.5], mu=[mu], lam=[[1.0], [2.0]])
            assert eval_aug_lagrangian(p2, s, c) == pytest.approx(1.25, abs=1e-14)


# --- gradient checking -----------------------------------------------------


def test_check_gradients_analytic_fixtures():
    for name in ("tp-path2", "tp-affine2", "tp-nonconv3"):
        report = check_gradients(get_fixture(name).problem, samples=4, seed=0)
        assert report.max_rel_error <= 1e-9


def test_check_gradients_flags_sign_flip():
    # exact derivatives are right by construction; a corrupted grad f
    # coefficient of agent 0's stacked table turns its grad f = x into -x
    agents = (polynomial_agent([[0.5, [2]]], 1), polynomial_agent([[0.5, [2]]], 1))
    table = agents[0].table
    table.coeffs[table.entry == 1] = -1.0  # entry 0 is f, entry 1 grad f
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    report = check_gradients(p, samples=6, seed=3)
    assert report.max_rel_error == pytest.approx(2.0, rel=1e-6)
    assert report.worst().agent == 0


def test_check_gradients_measures_a_gradient_whose_square_overflows():
    # ||grad f|| is about 1e160 on agent 0, so its square overflows: a plain
    # norm read the flipped gradient's error as nan and the exact one's as 0
    agents = (polynomial_agent([[1e160, [2]]], 1), polynomial_agent([[1.0, [2]]], 1))
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    exact = check_gradients(p, samples=6, seed=3)
    assert 0 < max(e.rel_error for e in exact.entries if e.agent == 0) <= 1e-8
    table = agents[0].table
    table.coeffs[table.entry == 1] *= -1.0  # grad f = 2e160 x becomes -2e160 x
    report = check_gradients(p, samples=6, seed=3)
    assert report.max_rel_error == pytest.approx(2.0, rel=1e-6)
    assert report.worst().agent == 0


def test_check_gradients_reports_an_overflowed_f_as_the_worst_error():
    # f = x^2000 overflows on 4 of agent 0's 10 samples, and their central
    # differences read inf - inf: those nan errors are the maximum and the
    # worst entry, and the check warns of nothing
    agents = (polynomial_agent([[1.0, [2000]]], 1), polynomial_agent([[0.5, [2]]], 1))
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_gradients(p, 10, 0)
    errors = [e.rel_error for e in report.entries]
    assert sum(map(math.isnan, errors)) == 4
    assert math.isnan(report.max_rel_error)
    worst = report.worst()
    assert math.isnan(worst.rel_error) and worst.agent == 0
    assert worst is next(e for e in report.entries if math.isnan(e.rel_error))


def test_check_gradients_zero_function():
    agents = (polynomial_agent([], 1), polynomial_agent([], 1))  # f = 0: no terms
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    assert check_gradients(p, samples=3, seed=0).max_rel_error == 0.0


def test_check_gradients_needs_samples(p2):
    with pytest.raises(ValueError):
        check_gradients(p2, samples=0)


# --- polynomial agents ------------------------------------------------------


def hess_f(agent, x):
    """The agent's Hessian of f at x, from the table of a one-agent lift."""
    p = lift_problem([agent], from_edges(1, []))
    return hessians(p, np.reshape(x, (1, -1)))[0][0]


def test_polynomial_matches_closed_form():
    agent = polynomial_agent([[2.0, [2, 1]], [-1.0, [0, 3]]], 2)
    x = np.array([1.5, -0.5])
    f, grad_f, _, _ = agent.values(x)
    assert f == pytest.approx(2 * 1.5**2 * (-0.5) - (-0.5) ** 3)
    assert np.allclose(grad_f, [4 * 1.5 * (-0.5), 2 * 1.5**2 - 3 * 0.25])
    assert np.allclose(hess_f(agent, x), [[4 * (-0.5), 4 * 1.5], [4 * 1.5, -6 * (-0.5)]])


def test_derivative_of_terms_by_hand():
    # f = 2 x^2 y - 1.5 y^3 + 4 x y^2 + 7
    terms = ((2.0, (2, 1)), (-1.5, (0, 3)), (4.0, (1, 2)), (7.0, (0, 0)))
    # the terms without x drop out; c x^e becomes (c e_x) x^(e - 1), in term order
    assert derivative(terms, 0) == ((4.0, (1, 1)), (4.0, (0, 2)))
    assert derivative(terms, 1) == ((2.0, (2, 0)), (-4.5, (0, 2)), (8.0, (1, 1)))
    # second derivatives: d/dx_k of the d/dx_j term list, coefficients (c e_j) e_k
    assert derivative(derivative(terms, 0), 0) == ((4.0, (0, 1)),)
    assert derivative(derivative(terms, 0), 1) == ((4.0, (1, 0)), (8.0, (0, 1)))
    assert derivative(derivative(terms, 1), 0) == ((4.0, (1, 0)), (8.0, (0, 1)))
    assert derivative(derivative(terms, 1), 1) == ((-9.0, (0, 1)), (8.0, (1, 0)))
    assert derivative(((7.0, (0, 0)),), 0) == ()
    # the tables lay the Hessian out row-major, entry (j, k) = d/dx_k d/dx_j
    agent = polynomial_agent([[1.0, [3, 1]], [1.0, [0, 2]]], 2)  # x^3 y + y^2
    x = np.array([2.0, 5.0])
    assert agent.values(x)[1].tolist() == [60.0, 18.0]
    assert hess_f(agent, x).tolist() == [[60.0, 12.0], [12.0, 2.0]]


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 2**31 - 1),
)
def test_polynomial_gradient_consistent_with_fd(terms, seed):
    agent = polynomial_agent([[c, list(e)] for c, e in terms], 2)
    x = np.random.default_rng(seed).uniform(-1, 1, 2)
    fd = central_difference_gradient(lambda y: agent.values(y)[0], x)
    assert np.linalg.norm(agent.values(x)[1] - fd) <= 1e-5 * (1 + np.linalg.norm(fd))


def reference_evaluators(terms, dim):
    """(f, grad, hess) as one closure per agent computed them before the
    whole-network tables: term by term, one coordinate at a time."""
    parsed = [(float(c), tuple(int(e) for e in exps)) for c, exps in terms]

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


@st.composite
def polynomial_networks(draw):
    """Term lists of polynomial agents on a path and a state: n 1-3, 0-9
    terms per polynomial with exponents 0-3 (zero exponents and constant
    terms included), up to n constrained agents anywhere, and entries of
    magnitude 1e-3 to 1e3, in half of the states mixed with 0, -0, +-inf
    and NaN."""
    N, n = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    coeff = st.one_of(st.floats(-5, 5), st.sampled_from([0.0, -0.0, 1.0]))
    term = st.tuples(coeff, st.lists(st.integers(0, 3), min_size=n, max_size=n))
    terms = st.lists(term, max_size=9)
    constrained = draw(st.sets(st.integers(0, N - 1), max_size=min(n, N)))
    specs = [(draw(terms), draw(terms) if a in constrained else None) for a in range(N)]
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    scaled = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]),
                       st.floats(-3, 3))
    entry = scaled if draw(st.booleans()) else st.one_of(scaled, scaled, special)
    entries = st.lists(entry, min_size=N * n, max_size=N * n)
    return n, specs, np.array(draw(entries)).reshape(N, n)


@settings(max_examples=75)
@given(polynomial_networks())
# one-term polynomials at 0.1 are lone powers in a one-row table, which
# numpy would take through its scalar pow (0.1 ** 2 differs in the last bit)
@example((1, [([(0.5, [2])], [(1.0, [2])]), ([(0.5, [2]), (-1.0, [1])], None)],
          np.array([[0.1], [0.3]])))
def test_tables_bitwise_equal_per_agent_closures(case):
    n, specs, x = case
    agents = [polynomial_agent(f_terms, n, h_terms) for f_terms, h_terms in specs]
    p = lift_problem(agents, from_edges(len(agents), [(i, i + 1, 1.0)
                                                      for i in range(len(agents) - 1)]))
    with np.errstate(all="ignore"):
        ev, hess = evaluate(p, x), hessians(p, x)
        for k, name in enumerate(("f", "h")):
            rows = [a for a in range(p.N) if name == "f" or a in p.constrained_agents]
            refs = [reference_evaluators(specs[a][k], n) for a in rows]
            batches = getattr(ev, name), getattr(ev, f"grad_{name}"), hess[k]
            for order, batched in enumerate(batches):
                expected = [ref[order](x[a]) for ref, a in zip(refs, rows)]
                assert same_bits(batched, np.reshape(expected, batched.shape)), (name, order)
                if order == 2:  # an agent has no Hessian of its own
                    continue
                for ref_value, a in zip(expected, rows):  # the agent's own one-row table
                    own = p.agents[a].values(x[a])[2 * k + order]
                    assert same_bits(own, ref_value), (name, order)
        total = sequential_sum(reference_evaluators(f_terms, n)[0](xa)
                               for (f_terms, _), xa in zip(specs, x))
        assert same_bits(objective_total(ev.f), total)


@st.composite
def table_cases(draw):
    """Term lists of K = 1-30 polynomials in n = 1-3 variables with 0-8 terms
    each, exponents 0-6 and coefficients that include 0.0 and -0.0, the
    rows they read, and an x of 1-4 rows whose entries include +-inf, NaN,
    +-0.0 and 1e200."""
    n, K, N = draw(st.integers(1, 3)), draw(st.integers(1, 30)), draw(st.integers(1, 4))
    coeff = st.one_of(st.floats(-5, 5), st.sampled_from([0.0, -0.0, 1.0]))
    term = st.tuples(coeff, st.lists(st.integers(0, 6), min_size=n, max_size=n))
    polynomials = draw(st.lists(st.lists(term, max_size=8), min_size=K, max_size=K))
    rows = draw(st.lists(st.integers(0, N - 1), min_size=K, max_size=K))
    entry = st.one_of(st.floats(-3, 3), st.sampled_from(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200]))
    x = np.array(draw(st.lists(entry, min_size=N * n, max_size=N * n))).reshape(N, n)
    return polynomials, rows, n, x


@settings(max_examples=300)
@given(table_cases())
@example(([[]], [0], 2, np.array([[np.nan, 1.0]])))  # no terms at all
@example(([[(0.5, [2])]], [0], 1, np.array([[0.1]])))  # a lone power
@example(([[(-0.0, [1, 0]), (-0.0, [0, 1])], [(2.0, [1, 1])]], [0, 0], 2,
          np.array([[1.0, 2.0]])))  # every term of entry 0 is -0.0
@example(([[(0.0, [1]), (1.0, [0])], [(1.0, [3])]], [0, 0], 1,
          np.array([[np.inf]])))  # 0 * inf is NaN; padding is not
@example(([[(0.5, [2])], [(1.0, [2]), (2.0, [1])], [(-3.0, [2])]], [0, 0, 0], 1,
          np.array([[0.1]])))  # one distinct power, shared by three entries
@example(([[(1.5, [1, 3])], [(1.5, [1, 3]), (1.0, [0, 0])], [(-2.0, [1, 3])]], [0, 1, 2], 2,
          np.array([[np.nan, 0.7], [np.inf, -2.0], [-np.inf, 0.0]])))  # x0 * x1 ** 3
@example(([[(2.0, [1, 0]), (1.0, [0, 1]), (-1.0, [0, 0])], [(3.0, [1, 1])]], [0, 0], 2,
          np.array([[0.3, -0.7]])))  # no exponent >= 2: no powers at all
def test_table_pass_bitwise_equals_masked_term_loop(case):
    polynomials, rows, n, x = case
    table = PolynomialTable.from_terms(polynomials, rows, n)
    with np.errstate(all="ignore"):
        got, expected = table(x), masked_table_call(polynomials, rows, n, x)
    assert got.shape == expected.shape == (len(polynomials),)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_stacked_pass_takes_only_the_powers_it_needs():
    table = get_fixture("tp-nonconv3").problem.tables["stacked"]
    assert (table.pexp.size, table.coeffs.size) == (10, 23)
    assert (table.pexp >= 2).all()


# one distinct power takes two pow entries, the first of which the terms
# read: numpy may take a pow over one element outside its array loop, whose
# last bit differs for about 3 % of x; with none or several, one entry each
@pytest.mark.parametrize("polynomials, rows, n, entries", [
    ([[(0.5, [2])]], [0], 1, 2),
    ([[(0.5, [2])], [(1.0, [2]), (2.0, [1])], [(-3.0, [2])]], [0, 0, 0], 1, 2),
    ([[(1.0, [1, 3]), (2.0, [1, 0])]], [0], 2, 2),
    ([[(1.0, [1, 3])], [(1.0, [0, 3])]], [0, 1], 2, 2),
    ([[(1.0, [2, 3])]], [0], 2, 2),
    ([[(1.0, [1, 1]), (2.0, [0, 0])]], [0], 2, 0),
    ([[(1.0, [2, 0])], [(1.0, [2, 0])]], [0, 1], 2, 2),
])
def test_a_lone_distinct_power_is_taken_twice(polynomials, rows, n, entries):
    table = PolynomialTable.from_terms(polynomials, rows, n)
    assert table.pexp.size == table.gather.size == entries != 1
    if len(set(zip(table.gather.tolist(), table.pexp.tolist()))) == 1:
        # the power slots end the row: the terms read slot -2, never slot -1
        assert -2 in table.factors and -1 not in table.factors
    with np.errstate(all="ignore"):
        x = np.linspace(0.1, 0.9, max(rows) * n + n).reshape(-1, n)
        assert np.array_equal(table(x).view(np.int64),
                              masked_table_call(polynomials, rows, n, x).view(np.int64))


def test_objective_total_adds_in_agent_order_from_zero():
    # the builtin sum of Python 3.12 on compensates: it gives 0.6000000000000001
    assert same_bits(objective_total(np.array([0.1, 1e16, 0.2, -1e16, 0.3])), 0.3)
    assert same_bits(objective_total(np.array([-0.0])), 0.0)
    assert same_bits(objective_total(np.zeros(0)), 0.0)
    # a block of rows (the trace recorder's) adds each row as the loop does
    rows = np.array([[0.1, 1e16, 0.2, -1e16, 0.3], [-0.0] * 5, [1e308, 1e308, -np.inf, 0.0, 1.0],
                     [-0.0, -0.0, 2.5, -0.0, -2.5]])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [sequential_sum(row) for row in rows]
        assert same_bits(objective_total(rows), np.array(expected))


def test_polynomial_agent_rejects_bad_exponents():
    with pytest.raises(ValueError):
        polynomial_agent([[1.0, [1, 2, 3]]], 2)


# --- dimension discipline ---------------------------------------------------


def test_constraint_count_cannot_exceed_dimension():
    constrained = polynomial_agent([[1.0, [2]]], 1, h_terms=[[1.0, [1]]])
    with pytest.raises(DimensionError):
        lift_problem((constrained, constrained), from_edges(2, [(0, 1, 1.0)]))


def test_state_shape_validation(p2):
    bad = MultiplierState(x=np.zeros((2, 1)), mu=np.zeros(2), lam=np.zeros((2, 1)))
    with pytest.raises(DimensionError):
        kkt_residual(p2, bad)
