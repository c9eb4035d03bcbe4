import dataclasses
from collections import Counter

import numpy as np
import pytest
from conftest import (
    add_at_row_sum,
    counted_tables,
    dense_forms,
    same_bits,
    sequential_sum,
    stacked_step,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import contraction_factor, numeric_iteration_jacobian

from lagnet import analysis, solvers
from lagnet.multipliers import MoMConfig, outer_step, run_a3
from lagnet.netgraph import from_edges
from lagnet.problem import (
    LocalProblem,
    MultiplierState,
    kkt_residual,
    lift_problem,
    polynomial_agent,
)
from lagnet.solvers import (
    ArrayExecutor,
    FirstOrderConfig,
    MessageExecutor,
    run_first_order,
    step_a1,
    step_a2,
)


def random_state(p, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return MultiplierState(
        x=scale * rng.uniform(-1, 1, (p.N, p.n)),
        mu=scale * rng.uniform(-1, 1, p.m),
        lam=scale * rng.uniform(-1, 1, (p.num_pairs, p.n)),
    )


def perturbed(point, p, radius, seed):
    rng = np.random.default_rng(seed)
    return MultiplierState(
        x=point.lifted_x(p.N) + rng.uniform(-radius, radius, (p.N, p.n)),
        mu=point.mu + rng.uniform(-radius, radius, p.m),
        lam=point.lam + rng.uniform(-radius, radius, (p.num_pairs, p.n)),
    )


def attractor_distance(trace):
    """Distance to the attractor set (x*, mu*, lam* + Null(S'))."""
    x_sq = np.sum(trace.err_x**2, axis=1)
    return np.sqrt(x_sq + trace.err_mu**2 + trace.dist_lambda**2)


# --- single steps ------------------------------------------------------------


def test_step_a1_hand_values(path2):
    p = path2.problem
    new = step_a1(p, p.zero_state(), alpha=0.1)
    assert np.allclose(new.x.ravel(), [0.1, -0.1])
    assert np.allclose(new.mu, [-0.05])
    assert np.allclose(new.lam, 0.0)


def test_step_a1_fixed_at_solution(path2):
    p = path2.problem
    state = path2.point.as_state(p)
    new = step_a1(p, state, alpha=0.1)
    assert np.array_equal(new.x, state.x)
    assert np.array_equal(new.mu, state.mu)
    assert np.array_equal(new.lam, state.lam)


def test_step_a2_hand_values(path2):
    p = path2.problem
    new = step_a2(p, p.zero_state(), alpha=0.1, c=1.0)
    assert np.allclose(new.x.ravel(), [0.15, -0.1])
    assert np.allclose(new.mu, [-0.05])
    assert np.allclose(new.lam, 0.0)


def test_step_a2_czero_equals_a1_bitwise(path2):
    p = path2.problem
    s = random_state(p, 5)
    a1 = step_a1(p, s, alpha=0.07)
    a2 = step_a2(p, s, alpha=0.07, c=0.0)
    assert np.array_equal(a1.x, a2.x)
    assert np.array_equal(a1.mu, a2.mu)
    assert np.array_equal(a1.lam, a2.lam)


def test_step_a2_fixed_at_solution_any_c(path2):
    p = path2.problem
    state = path2.point.as_state(p)
    for c in (0.0, 1.0, 50.0):
        new = step_a2(p, state, alpha=0.1, c=c)
        assert np.allclose(new.x, state.x, atol=1e-15)
        assert np.allclose(new.mu, state.mu, atol=1e-15)
        assert np.allclose(new.lam, state.lam, atol=1e-15)


def test_lambda_projection_conserved_each_step(path2):
    p = path2.problem
    J = dense_forms(p).J
    s = random_state(p, 9)
    before = J @ s.lam
    for _ in range(50):
        s = step_a2(p, s, alpha=0.05, c=1.0)
    assert np.max(np.abs(J @ s.lam - before)) <= 1e-12


# --- stacked cross-validation ------------------------------------------------


def test_stacked_matches_a1(path2):
    p = path2.problem
    s = random_state(p, 21)
    cfg = FirstOrderConfig(algorithm="a1", alpha=0.07, init=s, max_iter=1)
    a = step_a1(p, s, 0.07)
    b = stacked_step(p, s, cfg)
    for ours, theirs in ((a.x, b.x), (a.mu, b.mu), (a.lam, b.lam)):
        assert np.max(np.abs(ours - theirs)) <= 1e-12


def test_stacked_matches_a2_affine2(affine2):
    p = affine2.problem
    s = random_state(p, 22)
    cfg = FirstOrderConfig(algorithm="a2", alpha=0.05, c=2.0, init=s, max_iter=1)
    a = step_a2(p, s, 0.05, 2.0)
    b = stacked_step(p, s, cfg)
    for ours, theirs in ((a.x, b.x), (a.mu, b.mu), (a.lam, b.lam)):
        assert np.max(np.abs(ours - theirs)) <= 1e-12


def test_stacked_zero_state_zero_functions():
    from lagnet.netgraph import from_edges
    from lagnet.problem import LocalProblem, lift_problem

    zero = LocalProblem(dim=1, f=lambda x: 0.0, grad_f=lambda x: np.zeros(1))
    p = lift_problem((zero, zero), from_edges(2, [(0, 1, 1.0)]))
    s = p.zero_state()
    cfg = FirstOrderConfig(algorithm="a1", alpha=0.1, init=s, max_iter=1)
    out = stacked_step(p, s, cfg)
    assert np.all(out.x == 0) and np.all(out.lam == 0)


@pytest.mark.parametrize("name", ["tp-path2", "tp-affine2", "tp-nonconv3"])
def test_stacked_matches_kernel_on_every_fixture(name, all_solved):
    solved = {s.name: s for s in all_solved}[name]
    p = solved.problem
    s = random_state(p, 33)
    for c in (0.0, 2.0):
        algo = "a1" if c == 0.0 else "a2"
        cfg = FirstOrderConfig(algorithm=algo, alpha=0.03, c=c, init=s, max_iter=1)
        a = step_a2(p, s, 0.03, c)
        b = stacked_step(p, s, cfg)
        assert np.max(np.abs(a.x - b.x)) <= 1e-12
        assert np.max(np.abs(a.mu - b.mu)) <= 1e-12
        assert np.max(np.abs(a.lam - b.lam)) <= 1e-12


# --- work per iteration --------------------------------------------------------


def test_one_stacked_pass_per_a2_iteration(nonconv3):
    p, tables = counted_tables(nonconv3.problem)
    init = perturbed(nonconv3.point, p, 0.1, 7)
    cfg = FirstOrderConfig(algorithm="a2", alpha=0.04, c=5.6, init=init, max_iter=40)
    result = run_first_order(p, cfg, reference=nonconv3.point)
    passes = tables["stacked"].outputs
    assert len(passes) == len(result.trace) == 41
    assert not any(table.outputs for name, table in tables.items() if name != "stacked")
    for objective, out in zip(result.trace.objective, passes):  # f leads the pass
        assert objective == sequential_sum(out[: p.N])


# --- fixed points iff KKT ------------------------------------------------------


def test_fixed_point_characterization(path2):
    p = path2.problem
    sol_state = path2.point.as_state(p)
    # also true after shifting lambda inside Null(S')
    shifted = MultiplierState(sol_state.x, sol_state.mu, sol_state.lam + 3.0)
    for state in (sol_state, shifted):
        assert kkt_residual(p, state).total <= 1e-10
        new = step_a1(p, state, 0.1)
        assert max(
            np.max(np.abs(new.x - state.x)),
            np.max(np.abs(new.mu - state.mu)),
            np.max(np.abs(new.lam - state.lam)),
        ) <= 1e-12
    # a state that is not a KKT point moves
    moved = MultiplierState(sol_state.x + 0.001, sol_state.mu, sol_state.lam)
    new = step_a1(p, moved, 0.1)
    assert np.max(np.abs(new.x - moved.x)) > 1e-8


# --- locality ---------------------------------------------------------------


def test_message_executor_hides_foreign_state(path2):
    p = path2.problem
    execu = MessageExecutor(p, p.zero_state())
    # agent stores hold nothing but their own variables
    for a, store in enumerate(execu.stores):
        assert store.x.shape == (p.n,)
        assert store.lam.shape == (len(execu.plans[a].neighbors), p.n)


@pytest.mark.parametrize("algorithm,c", [("a1", 0.0), ("a2", 1.5)])
def test_message_trace_bitwise_equals_arrays(path2, algorithm, c):
    p = path2.problem
    init = perturbed(path2.point, p, 0.2, 4)
    cfg = FirstOrderConfig(
        algorithm=algorithm, alpha=0.1, c=c, init=init, max_iter=150, tol=0.0
    )
    ra = run_first_order(p, cfg, reference=path2.point, engine="arrays", keep_states=True)
    rm = run_first_order(p, cfg, reference=path2.point, engine="message", keep_states=True)
    assert len(ra.trace.states) == len(rm.trace.states)
    for sa, sm in zip(ra.trace.states, rm.trace.states):
        assert np.array_equal(sa.x, sm.x)
        assert np.array_equal(sa.mu, sm.mu)
        assert np.array_equal(sa.lam, sm.lam)


@st.composite
def networks(draw):
    """A connected graph (a random spanning tree plus chords) with
    independently drawn s_ij and s_ji, polynomial agents of dimension 1-3
    and up to n constrained agents anywhere."""
    N, n = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, N)}
    if N > 2:
        chord = st.tuples(st.integers(0, N - 2), st.integers(1, N - 1))
        edges |= {(i, j) for i, j in draw(st.lists(chord, max_size=N)) if i < j}
    weight = st.floats(0.1, 2.0)
    directed = [(i, j, draw(weight)) for i, j in sorted(edges)]
    directed += [(j, i, draw(weight)) for i, j in sorted(edges)]
    graph = from_edges(N, directed, symmetric_weights=False)
    term = st.tuples(st.floats(-2, 2), st.lists(st.integers(0, 2), min_size=n, max_size=n))
    terms = st.lists(term, min_size=1, max_size=3)
    constrained = draw(st.sets(st.integers(0, N - 1), max_size=min(n, N)))
    agents = [polynomial_agent(draw(terms), n, draw(terms) if a in constrained else None)
              for a in range(N)]
    return lift_problem(agents, graph)


# h = x^2 on the one agent, and f_1 = 0.1 x^3 on two agents: lone powers
# in a one-row table, which numpy would take through its scalar pow
LONE_POWER_H = lift_problem([polynomial_agent([[0.5, [2]], [-1.0, [1]]], 1, [[1.0, [2]]])],
                            from_edges(1, []))
LONE_POWER_F = lift_problem([polynomial_agent([[0.1, [3]]], 1),
                             polynomial_agent([[0.5, [2]], [-1.0, [1]]], 1)],
                            from_edges(2, [(0, 1, 1.0)]))


@settings(max_examples=150)
@given(
    p=networks(),
    seed=st.integers(0, 2**16),
    alpha=st.floats(0.01, 0.1),
    c=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
    update=st.booleans(),
)
@example(p=LONE_POWER_H, seed=17, alpha=0.05, c=1.0, update=True)
@example(p=LONE_POWER_F, seed=134, alpha=0.1, c=1.0, update=True)
def test_engines_bitwise_equal_on_random_graphs(p, seed, alpha, c, update):
    # update: a1/a2 rounds, else a3 inner descents with S'lam held fixed;
    # then one more descent and one ascent in every example
    state = random_state(p, seed)
    arrays, message = ArrayExecutor(p), MessageExecutor(p, state)
    current = state

    def same(a, m):
        for u, v in ((a.x, m.x), (a.mu, m.mu), (a.lam, m.lam)):
            assert np.array_equal(u, v)

    def descend(lam_force=None):
        (a, g_a), (m, g_m) = (arrays.descend(current, alpha, c, lam_force=lam_force),
                              message.descend(None, alpha, c))
        assert np.array_equal(g_a, g_m)  # the gradient rows the inner loop reads
        return a, m

    for _ in range(3):
        if update:
            a, m = arrays.round(current, alpha, c), message.round(None, alpha, c)
        else:
            a, m = descend(arrays.lam_force(current.lam))
        same(a, m)
        current = a
    a, m = descend()
    same(a, m)
    current = a
    a, m = arrays.ascend(current, c), message.ascend(None, c)
    same(a, m)
    assert np.all(np.isfinite(a.x)) and np.all(np.isfinite(a.lam))  # no overflow hides a mismatch


@settings(max_examples=30)
@given(N=st.integers(2, 400), n=st.integers(1, 3), seed=st.integers(0, 2**16),
       special=st.booleans())
@example(N=400, n=3, seed=0, special=True)
def test_bincount_row_sums_equal_add_at(N, n, seed, special):
    """The executor's scatters against np.add.at on a random spanning tree
    plus N chords (heads repeat), with values of magnitude 1e-3 to 1e3 and,
    when ``special``, one in ten replaced by +-inf or NaN."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, j)), j) for j in range(1, N)}
    edges |= {(min(e), max(e)) for e in rng.integers(0, N, (N, 2)).tolist() if e[0] != e[1]}
    graph = from_edges(N, [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in sorted(edges)])
    p = lift_problem([polynomial_agent([[0.5, [2] + [0] * (n - 1)]], n)] * N, graph)
    inc, executor = p.incidence, ArrayExecutor(p)

    def values(rows):
        v = rng.choice([-1.0, 1.0], (rows, n)) * 10.0 ** rng.uniform(-3, 3, (rows, n))
        if special:
            hit = rng.random((rows, n)) < 0.1
            v[hit] = rng.choice([np.inf, -np.inf, np.nan], hit.sum())
        return v

    ends = np.column_stack([inc.tail, inc.head]).ravel()
    v_tail, v_ends, lam = values(len(inc.tail)), values(len(ends)), values(len(inc.tail))
    wlam = inc.weights[:, None] * lam
    pairs = [
        (executor._row_sum(executor.tail_at, v_tail), add_at_row_sum(N, n, inc.tail, v_tail)),
        (executor._row_sum(executor.ends_at, v_ends), add_at_row_sum(N, n, ends, v_ends)),
        (executor.lam_force(lam),
         add_at_row_sum(N, n, ends, np.stack([wlam, -wlam], axis=1).reshape(-1, n))),
    ]
    for got, expected in pairs:
        assert same_bits(got, expected)


def test_array_engine_builds_no_agent_plan(path2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the array engine built AgentPlans")

    monkeypatch.setattr(solvers, "build_agent_plans", refuse)
    p = path2.problem
    init = perturbed(path2.point, p, 0.1, 3)
    run_first_order(p, FirstOrderConfig(algorithm="a2", alpha=0.1, c=1.0, init=init,
                                        max_iter=20))
    run_a3(p, MoMConfig(init=init, outer_max_iter=2))
    step_a1(p, init, 0.1)
    step_a2(p, init, 0.1, 1.0)
    outer_step(p, init, 2.0)
    numeric_iteration_jacobian(p, path2.point, 0.1, 1.0)


def counted(agent, calls):
    """The agent with each callable counting its calls into ``calls``."""
    def wrap(kind, fn):
        def evaluator(x):
            calls[kind] += 1
            return fn(x)
        return evaluator

    kinds = ("f", "grad_f", "hess_f", "h", "grad_h", "hess_h")
    return dataclasses.replace(agent, **{kind: wrap(kind, getattr(agent, kind))
                                         for kind in kinds if getattr(agent, kind) is not None})


def test_fallback_evaluates_grad_f_once_per_agent_and_iteration():
    # plain closures (no polynomial terms): the per-agent path
    calls = Counter()
    agents = [counted(LocalProblem(dim=2, f=lambda x, a=a: float(x @ x) + a,
                                   grad_f=lambda x: 2.0 * x,
                                   h=(lambda x: float(x[0] - 1.0)) if a == 2 else None,
                                   grad_h=(lambda x: np.array([1.0, 0.0])) if a == 2 else None),
                      calls) for a in range(4)]
    p = lift_problem(agents, from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]))
    init = random_state(p, 5, scale=0.1)
    per_run = []
    for max_iter in (1, 2):
        calls.clear()
        cfg = FirstOrderConfig(algorithm="a2", alpha=0.05, c=1.0, init=init,
                               max_iter=max_iter, tol=0.0)
        run_first_order(p, cfg)
        per_run.append(Counter(calls))
    one_iteration = per_run[1] - per_run[0]
    assert one_iteration["grad_f"] == p.N
    assert one_iteration["h"] == one_iteration["grad_h"] == p.m


def test_polynomial_path_calls_no_agent_closure(nonconv3):
    calls = Counter()
    p = nonconv3.problem
    wrapped = lift_problem([counted(a, calls) for a in p.agents], p.graph)
    init = perturbed(nonconv3.point, p, 0.1, 2)
    run_first_order(wrapped, FirstOrderConfig(algorithm="a2", alpha=0.04, c=5.6, init=init,
                                              max_iter=20), reference=nonconv3.point)
    run_a3(wrapped, MoMConfig(init=init, c0=8.0, c_max=8.0, outer_max_iter=2),
           reference=nonconv3.point)
    assert sum(calls.values()) == 0


# --- run driver ---------------------------------------------------------------


def test_run_converges_inside_certified_region(path2):
    p = path2.problem
    cert = analysis.certify_step_size(p, path2.point)
    init = perturbed(path2.point, p, 0.1, 0)
    cfg = FirstOrderConfig(
        algorithm="a1", alpha=0.9 * cert.alpha_bound, init=init,
        max_iter=50000, tol=1e-10,
    )
    result = run_first_order(p, cfg, reference=path2.point)
    assert result.status == "converged"
    assert np.max(result.trace.err_x[-1]) <= 1e-6


def test_run_diverges_beyond_stability(path2):
    p = path2.problem
    init = perturbed(path2.point, p, 0.1, 0)
    cfg = FirstOrderConfig(algorithm="a1", alpha=10.0, init=init, max_iter=5000)
    result = run_first_order(p, cfg, reference=path2.point)
    assert result.status == "diverged"


def test_run_zero_iterations_at_solution(path2):
    p = path2.problem
    cfg = FirstOrderConfig(
        algorithm="a1", alpha=0.1, init=path2.point.as_state(p),
        max_iter=100, tol=1e-9,
    )
    result = run_first_order(p, cfg, reference=path2.point)
    assert result.status == "converged"
    assert result.iterations == 0


def test_run_reports_linear_convergence(path2):
    p = path2.problem
    cert = analysis.certify_step_size(p, path2.point)
    init = perturbed(path2.point, p, 0.1, 1)
    alpha = 0.9 * cert.alpha_bound
    cfg = FirstOrderConfig(algorithm="a1", alpha=alpha, init=init,
                           max_iter=50000, tol=1e-10)
    result = run_first_order(p, cfg, reference=path2.point)
    # fit the attractor distance: single components oscillate through the
    # rotation of the dominant complex eigenpair, the joint error does not
    joint = attractor_distance(result.trace)
    fit = analysis.estimate_linear_rate(joint, tail_fraction=0.5)
    assert fit.r_squared >= 0.99
    assert 0 < fit.contraction < 1
    predicted = contraction_factor(p, path2.point, alpha)
    assert fit.contraction == pytest.approx(predicted, abs=0.05)


def test_config_validation():
    state = MultiplierState(np.zeros((2, 1)), np.zeros(1), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        FirstOrderConfig(algorithm="a3", alpha=0.1, init=state)
    with pytest.raises(ValueError):
        FirstOrderConfig(algorithm="a1", alpha=-0.1, init=state)
    with pytest.raises(ValueError):
        FirstOrderConfig(algorithm="a1", alpha=0.1, c=1.0, init=state)
    with pytest.raises(ValueError):
        FirstOrderConfig(algorithm="a1", alpha=0.1, max_iter=-1, init=state)
