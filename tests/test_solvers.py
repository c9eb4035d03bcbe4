import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from conftest import (
    add_at_row_sum,
    counted_passes,
    dense_forms,
    run_with_states,
    same_bits,
    sequential_sum,
    stacked_step,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    RowTraceRecorder,
    _kkt,
    _state_norm,
    contraction_factor,
    numeric_iteration_jacobian,
    one_descent,
    one_round,
    row_inner_minimize,
    row_run_first_order,
)

from lagnet import analysis, oracle, solvers
from lagnet.fixtures import get_fixture
from lagnet.multipliers import (
    InnerDivergenceError,
    InnerSchedule,
    MoMConfig,
    inner_minimize,
    outer_step,
    run_a3,
)
from lagnet.netgraph import from_edges
from lagnet.problem import (
    Evaluation,
    KKTResidual,
    MultiplierState,
    StationaryPoint,
    evaluate,
    kkt_residual,
    lift_problem,
    polynomial_agent,
)
from lagnet.solvers import (
    BLOCK,
    ArrayExecutor,
    FirstOrderConfig,
    MessageExecutor,
    StateBlock,
    TraceRecorder,
    run_first_order,
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
    new = one_round(ArrayExecutor(p), p.zero_state(), alpha=0.1)
    assert np.allclose(new.x.ravel(), [0.1, -0.1])
    assert np.allclose(new.mu, [-0.05])
    assert np.allclose(new.lam, 0.0)


def test_step_a1_fixed_at_solution(path2):
    p = path2.problem
    state = path2.point.as_state(p)
    new = one_round(ArrayExecutor(p), state, alpha=0.1)
    assert np.array_equal(new.x, state.x)
    assert np.array_equal(new.mu, state.mu)
    assert np.array_equal(new.lam, state.lam)


def test_step_a2_hand_values(path2):
    p = path2.problem
    new = one_round(ArrayExecutor(p), p.zero_state(), alpha=0.1, c=1.0)
    assert np.allclose(new.x.ravel(), [0.15, -0.1])
    assert np.allclose(new.mu, [-0.05])
    assert np.allclose(new.lam, 0.0)


def test_step_a2_czero_equals_a1_bitwise(path2):
    p = path2.problem
    runs = [run_with_states(run_first_order, p, FirstOrderConfig(
        algorithm=algorithm, alpha=0.07, max_iter=3, init=random_state(p, 5), tol=0.0))
        for algorithm in ("a1", "a2")]
    assert all(same_state(a1, a2) for a1, a2 in zip(*(states for _, states in runs)))


def test_step_a2_fixed_at_solution_any_c(path2):
    p = path2.problem
    state = path2.point.as_state(p)
    for c in (0.0, 1.0, 50.0):
        new = one_round(ArrayExecutor(p), state, alpha=0.1, c=c)
        assert np.allclose(new.x, state.x, atol=1e-15)
        assert np.allclose(new.mu, state.mu, atol=1e-15)
        assert np.allclose(new.lam, state.lam, atol=1e-15)


def test_lambda_projection_conserved_each_step(path2):
    p = path2.problem
    J = dense_forms(p).J
    s = random_state(p, 9)
    before = J @ s.lam
    for _ in range(50):
        s = one_round(ArrayExecutor(p), s, alpha=0.05, c=1.0)
    assert np.max(np.abs(J @ s.lam - before)) <= 1e-12


# --- stacked cross-validation ------------------------------------------------


def test_stacked_matches_a1(path2):
    p = path2.problem
    s = random_state(p, 21)
    cfg = FirstOrderConfig(algorithm="a1", alpha=0.07, init=s, max_iter=1)
    a = one_round(ArrayExecutor(p), s, 0.07)
    b = stacked_step(p, s, cfg)
    for ours, theirs in ((a.x, b.x), (a.mu, b.mu), (a.lam, b.lam)):
        assert np.max(np.abs(ours - theirs)) <= 1e-12


def test_stacked_matches_a2_affine2(affine2):
    p = affine2.problem
    s = random_state(p, 22)
    cfg = FirstOrderConfig(algorithm="a2", alpha=0.05, c=2.0, init=s, max_iter=1)
    a = one_round(ArrayExecutor(p), s, 0.05, 2.0)
    b = stacked_step(p, s, cfg)
    for ours, theirs in ((a.x, b.x), (a.mu, b.mu), (a.lam, b.lam)):
        assert np.max(np.abs(ours - theirs)) <= 1e-12


def test_stacked_zero_state_zero_functions():
    zero = polynomial_agent([], 1)  # f = 0: no terms
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
        a = one_round(ArrayExecutor(p), s, 0.03, c)
        b = stacked_step(p, s, cfg)
        assert np.max(np.abs(a.x - b.x)) <= 1e-12
        assert np.max(np.abs(a.mu - b.mu)) <= 1e-12
        assert np.max(np.abs(a.lam - b.lam)) <= 1e-12


# --- work per iteration --------------------------------------------------------


def test_one_stacked_pass_per_a2_iteration(nonconv3, monkeypatch):
    # each round makes the pass at its row; the last row gets its own
    p, tables = counted_passes(nonconv3.problem, monkeypatch)
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
        new = one_round(ArrayExecutor(p), state, 0.1)
        assert max(
            np.max(np.abs(new.x - state.x)),
            np.max(np.abs(new.mu - state.mu)),
            np.max(np.abs(new.lam - state.lam)),
        ) <= 1e-12
    # a state that is not a KKT point moves
    moved = MultiplierState(sol_state.x + 0.001, sol_state.mu, sol_state.lam)
    new = one_round(ArrayExecutor(p), moved, 0.1)
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
    _, ra_states = run_with_states(run_first_order, p, cfg, reference=path2.point,
                                   engine="arrays")
    _, rm_states = run_with_states(run_first_order, p, cfg, reference=path2.point,
                                   engine="message")
    assert len(ra_states) == len(rm_states)
    for sa, sm in zip(ra_states, rm_states):
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
    # update: a1/a2 rounds, else a3 inner descents, which keep mu and lam;
    # then one more descent and one ascent in every example
    state = random_state(p, seed)
    arrays, message = ArrayExecutor(p), MessageExecutor(p, state)
    current = state

    def same(a, m):
        for u, v in ((a.x, m.x), (a.mu, m.mu), (a.lam, m.lam)):
            assert np.array_equal(u, v)

    def descend():
        (a, g_a), (m, g_m) = (one_descent(ex, current, alpha, c) for ex in (arrays, message))
        assert np.array_equal(g_a, g_m)  # the gradient rows the inner loop reads
        return a, m

    for _ in range(3):
        if update:
            a, m = one_round(arrays, current, alpha, c), one_round(message, current, alpha, c)
        else:
            a, m = descend()
        same(a, m)
        current = a
    a, m = descend()
    same(a, m)
    current = a
    a, m = arrays.ascend(current, c), message.ascend(None, c)
    same(a, m)
    assert np.all(np.isfinite(a.x)) and np.all(np.isfinite(a.lam))  # no overflow hides a mismatch


@st.composite
def zero_prone_cases(draw):
    """A connected graph of 1-4 agents in 1-2 dimensions whose coefficients
    and weights include 0.0 and -0.0 and whose start is +0.0, -0.0 or
    random entry by entry, none to n constrained agents, and the settings
    of a1 (c = 0), a2 or a3: quadratic terms and small steps keep every
    iterate finite."""
    N, n = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    edges = sorted({(draw(st.integers(0, i - 1)), i) for i in range(1, N)})
    weight = st.one_of(st.floats(0.1, 2.0), st.sampled_from([1.0, 0.5]))
    graph = from_edges(N, [(i, j, draw(weight)) for i, j in edges]
                       + [(j, i, draw(weight)) for i, j in edges], symmetric_weights=False)
    coeff = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2, 2))
    terms = st.lists(st.tuples(coeff, st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                     min_size=1, max_size=3)
    constrained = draw(st.sets(st.integers(0, N - 1), max_size=min(n, N)))
    p = lift_problem([polynomial_agent(draw(terms), n, draw(terms) if a in constrained else None)
                      for a in range(N)], graph)
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1))
    state = MultiplierState(*(np.array(draw(st.lists(entry, min_size=k, max_size=k)),
                                       dtype=float).reshape(shape)
                              for k, shape in ((N * n, (N, n)), (p.m, (p.m,)),
                                               (p.num_pairs * n, (p.num_pairs, n)))))
    algorithm = draw(st.sampled_from(["a1", "a2", "a3"]))
    c = 0.0 if algorithm == "a1" else draw(st.sampled_from([0.5, 1.0, 2.0]))
    return p, state, algorithm, c, draw(st.sampled_from([0.01, 0.05]))


def assert_rows_identical(*runs):
    """Every state of every run has the bytes of the first run's, sign of
    zero included (:func:`same_bits`: every NaN counts as one)."""
    first, *rest = runs
    for other in rest:
        assert len(other) == len(first)
        for a, b in zip(first, other):
            for u, v in zip((a.x, a.mu, a.lam), (b.x, b.mu, b.lam)):
                assert same_bits(u, v)


def solve_or_divergence(solve, *args):
    """(x bytes, tau, converged) of an inner solve, or the divergence it raised."""
    try:
        x, tau, converged, *_ = solve(*args)
    except InnerDivergenceError as exc:
        return str(exc)
    return np.where(np.isnan(x), np.nan, x).tobytes(), tau, converged


@settings(max_examples=120, deadline=None)
@given(zero_prone_cases())
@example((LONE_POWER_H, MultiplierState(np.full((1, 1), -0.0), np.zeros(1), np.zeros((0, 1))),
          "a2", 1.0, 0.05))
def test_engines_and_row_loops_keep_the_sign_of_zero(case):
    # the array engine's second scatter adds grad F + S'lam to a bin that
    # starts at +0.0, which changes no bit, since that sum is never -0.0:
    # its rows equal the message engine's and the row loops' byte for byte
    p, state, algorithm, c, alpha = case
    with np.errstate(all="ignore"):
        if algorithm != "a3":
            cfg = FirstOrderConfig(algorithm=algorithm, alpha=alpha, c=c, init=state,
                                   max_iter=BLOCK + 3, tol=0.0)
            runs = [run_with_states(run_first_order, p, cfg, engine=engine)
                    for engine in ("arrays", "message")]
            runs.append(row_run_first_order(p, cfg))
            assert_rows_identical(*(states + [run.state] for run, states in runs))
            steps = [one_round(ex, state, alpha, c)
                     for ex in (ArrayExecutor(p), MessageExecutor(p, state))]
        else:
            cfg = MoMConfig(init=state, inner_alpha=alpha, inner_max_iter=BLOCK + 3)
            args = (p, state.x, state.mu, state.lam, c, cfg, 0.0)
            assert len({solve_or_divergence(solve, *args, engine) for engine in
                        ("arrays", "message") for solve in (inner_minimize, row_inner_minimize)
                        }) == 1
            steps, grads = [], []
            for ex in (ArrayExecutor(p), MessageExecutor(p, state)):
                new, grad = one_descent(ex, state, alpha, c)
                steps.append(new)
                grads.append(grad)
            assert same_bits(*grads)
        assert_rows_identical(*([step] for step in steps))


@settings(max_examples=30)
@given(N=st.integers(2, 400), n=st.integers(1, 3), seed=st.integers(0, 2**16),
       special=st.booleans())
@example(N=400, n=3, seed=0, special=True)
def test_bincount_row_sums_equal_add_at(N, n, seed, special):
    """A descent's gradient rows against np.add.at on a random spanning tree
    plus N chords (heads repeat), with values of magnitude 1e-3 to 1e3 and,
    when ``special``, one in ten replaced by +-inf or NaN: at x = 0 and
    c = 0 the agents f = x_1^2 / 2 give G = S'lam, and agents without terms
    at lam = 0 and c = 1 give G = L x, the consensus sum."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, j)), j) for j in range(1, N)}
    edges |= {(min(e), max(e)) for e in rng.integers(0, N, (N, 2)).tolist() if e[0] != e[1]}
    graph = from_edges(N, [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in sorted(edges)])

    def values(rows):
        v = rng.choice([-1.0, 1.0], (rows, n)) * 10.0 ** rng.uniform(-3, 3, (rows, n))
        if special:
            hit = rng.random((rows, n)) < 0.1
            v[hit] = rng.choice([np.inf, -np.inf, np.nan], hit.sum())
        return v

    def gradient(p, x, lam, c):
        blk = StateBlock(p, 2)
        blk.put(0, MultiplierState(x, np.zeros(0), lam))
        with np.errstate(all="ignore"):
            ArrayExecutor(p).advance(blk, 1, [0.1], c, True)
        return blk.g[0]

    quadratic = lift_problem([polynomial_agent([[0.5, [2] + [0] * (n - 1)]], n)] * N, graph)
    inc = quadratic.incidence
    ends = np.column_stack([inc.tail, inc.head]).ravel()
    lam, x = values(len(inc.tail)), values(N)
    wlam = inc.weights[:, None] * lam
    assert same_bits(gradient(quadratic, np.zeros((N, n)), lam, 0.0),
                     add_at_row_sum(N, n, ends, np.stack([wlam, -wlam], axis=1).reshape(-1, n)))
    free = lift_problem([polynomial_agent([], n)] * N, graph)
    with np.errstate(invalid="ignore"):
        consensus = inc.laplacian_weights[:, None] * (x[inc.tail] - x[inc.head])
    assert same_bits(gradient(free, x, np.zeros_like(lam), 1.0),
                     add_at_row_sum(N, n, inc.tail, consensus))


def test_array_engine_builds_no_agent_plan(path2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the array engine built AgentPlans")

    monkeypatch.setattr(solvers, "build_agent_plans", refuse)
    p = path2.problem
    init = perturbed(path2.point, p, 0.1, 3)
    run_first_order(p, FirstOrderConfig(algorithm="a2", alpha=0.1, c=1.0, init=init,
                                        max_iter=20))
    run_a3(p, MoMConfig(init=init, outer_max_iter=2))
    outer_step(p, init, 2.0)
    numeric_iteration_jacobian(p, path2.point, 0.1, 1.0)


def test_a_dropped_problem_is_freed_with_what_the_solvers_kept(path2):
    # the executor, its row programs and the blocks are kept with the problem
    # and refer to it weakly or not at all: with the cyclic collector off,
    # dropping the problem frees it (a cycle would keep every problem of a
    # benchmark run alive until a full collection)
    p = lift_problem(path2.problem.agents, path2.problem.graph)
    init = perturbed(path2.point, p, 0.1, 3)
    gc.disable()
    try:
        run_first_order(p, FirstOrderConfig(algorithm="a2", alpha=0.1, c=1.0, init=init,
                                            max_iter=40))
        run_a3(p, MoMConfig(init=init, outer_max_iter=2))
        assert {"arrays", "block"} <= set(p.engines)  # one block serves both loops
        dropped = weakref.ref(p)
        del p
        assert dropped() is None
    finally:
        gc.enable()


def test_polynomial_path_calls_no_agent_closure(nonconv3):
    # the array engine reads the whole-network tables only: no agent builds
    # its own one-row table (the message engine's), let alone evaluates it
    p = get_fixture("tp-nonconv3").problem  # agents no other test has touched
    init = perturbed(nonconv3.point, p, 0.1, 2)
    run_first_order(p, FirstOrderConfig(algorithm="a2", alpha=0.04, c=5.6, init=init,
                                        max_iter=20), reference=nonconv3.point)
    run_a3(p, MoMConfig(init=init, c0=8.0, c_max=8.0, outer_max_iter=2),
           reference=nonconv3.point)
    assert not any("table" in vars(agent) for agent in p.agents)
    one_round(MessageExecutor(p, init), init, 0.04, 5.6)
    assert all("table" in vars(agent) for agent in p.agents)


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
    fit = analysis.estimate_linear_rate(joint)
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


# --- blocked checks against the row-by-row loop ---------------------------------


def same_state(a, b):
    return all(same_bits(u, v) for u, v in ((a.x, b.x), (a.mu, b.mu), (a.lam, b.lam)))


def assert_same_trace(a, b):
    """Every a1/a2 trace column, bit for bit (any nan equals any nan)."""
    assert len(a) == len(b) and a.inner_iters is None and b.inner_iters is None
    for column in ("k", "err_x", "err_mu", "dist_lambda", "kkt", "objective"):
        assert same_bits(getattr(a, column), getattr(b, column)), column


def assert_same_run(blocked, row):
    """Status, iterations, final state and the trace, bit for bit."""
    assert (blocked.status, blocked.iterations) == (row.status, row.iterations)
    assert same_state(blocked.state, row.state)
    assert_same_trace(blocked.trace, row.trace)


def both_runs(p, cfg, reference=None, engine="arrays"):
    """The blocked run and the row loop's: :func:`assert_same_run` and the
    state of every trace row, bit for bit."""
    blocked, states = run_with_states(run_first_order, p, cfg, reference=reference,
                                      engine=engine)
    row, row_states = row_run_first_order(p, cfg, reference=reference, engine=engine)
    assert_same_run(blocked, row)
    assert len(states) == len(row_states)
    assert all(same_state(s, t) for s, t in zip(states, row_states))
    return blocked


def random_point(p, seed):
    rng = np.random.default_rng(seed)
    return StationaryPoint(rng.uniform(-1, 1, p.n), rng.uniform(-1, 1, p.m),
                           rng.uniform(-1, 1, (p.num_pairs, p.n)))


@settings(max_examples=60)
@given(
    p=networks(),
    seed=st.integers(0, 2**16),
    alpha=st.floats(0.01, 0.5),
    c=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
    engine=st.sampled_from(["arrays", "message"]),
    max_iter=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK]),
    tol=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]),
    scale=st.sampled_from([0.1, 1.0, 30.0]),
    with_reference=st.booleans(),
)
def test_blocked_run_bitwise_equals_row_loop_on_random_graphs(
        p, seed, alpha, c, engine, max_iter, tol, scale, with_reference):
    # a1 when c = 0, else a2; large alpha and scale make many runs diverge
    cfg = FirstOrderConfig(algorithm="a1" if c == 0.0 else "a2", alpha=alpha, c=c,
                           init=random_state(p, seed, scale), max_iter=max_iter, tol=tol)
    reference = random_point(p, seed + 1) if with_reference else None
    both_runs(p, cfg, reference, engine)


@settings(max_examples=60, deadline=None)
@given(
    p=networks(),
    seed=st.integers(0, 2**16),
    c=st.floats(0.1, 2.0),
    engine=st.sampled_from(["arrays", "message"]),
    cap=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK]),
    eps=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]),
    step=st.one_of(st.floats(0.01, 0.5),
                   st.builds(InnerSchedule, a=st.floats(0.05, 2.0), b=st.floats(1.0, 20.0))),
    scale=st.sampled_from([0.1, 1.0, 30.0]),
)
def test_blocked_inner_solve_bitwise_equals_row_loop_on_random_graphs(
        p, seed, c, engine, cap, eps, step, scale):
    # the a3 twin of the a1/a2 property: x, tau, converged and the returned
    # evaluation, or the same divergence; large steps and scales make many
    # solves diverge
    schedule = step if isinstance(step, InnerSchedule) else None
    cfg = MoMConfig(init=p.zero_state(), inner_alpha=None if schedule else step,
                    inner_schedule=schedule, inner_max_iter=cap)
    state = random_state(p, seed, scale)
    args = (p, state.x, state.mu, state.lam, c, cfg, eps, engine)
    outcomes = []
    with np.errstate(all="ignore"):
        for solve in (inner_minimize, row_inner_minimize):
            try:
                outcomes.append(solve(*args))
            except InnerDivergenceError as exc:
                outcomes.append(str(exc))
        blocked, row = outcomes
        if isinstance(row, str):
            assert blocked == row
            return
        x, tau, converged, ev = blocked
        assert same_bits(x, row[0]) and (tau, converged) == row[1:]
        assert all(same_bits(a, b) for a, b in zip(ev, evaluate(p, row[0])))


@settings(max_examples=60, deadline=None)
@given(
    p=networks(),
    seed=st.integers(0, 2**16),
    rows=st.integers(1, BLOCK),
    c=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
    engine=st.sampled_from(["arrays", "message"]),
    descent=st.booleans(),
    step=st.one_of(st.floats(0.01, 0.1),
                   st.builds(InnerSchedule, a=st.floats(0.05, 2.0), b=st.floats(1.0, 20.0))),
)
def test_a_block_of_rows_equals_as_many_one_row_blocks(p, seed, rows, c, engine, descent, step):
    # one advance over k rows writes the Z (E included), D and E rows that k
    # one-row blocks write, each carried into row 0 of a two-row block, bit
    # for bit: a2 rounds or a3 descents, at a constant step or at the
    # schedule's step of each row's index; and the steps as 0-d float64
    # arrays, as run_first_order and inner_minimize pass a constant step,
    # write the same rows as the steps as Python floats
    state = random_state(p, seed)
    steps = [step(b) if isinstance(step, InnerSchedule) else step for b in range(rows)]
    executor = lambda: ArrayExecutor(p) if engine == "arrays" else MessageExecutor(p, state)
    whole, one, arrays = StateBlock(p, rows + 1), StateBlock(p, 2), StateBlock(p, rows + 1)
    for blk in (whole, one, arrays):
        blk.put(0, state)
    with np.errstate(all="ignore"):
        executor().advance(whole, rows, steps, c, descent)
        executor().advance(arrays, rows, [np.array(a) for a in steps], c, descent)
        assert same_bits(arrays.Z, whole.Z) and same_bits(arrays.D, whole.D)
        stepper = executor()
        for b in range(rows):
            stepper.advance(one, 1, steps[b:b + 1], c, descent)
            assert same_bits(whole.Z[b], one.Z[0])
            assert same_bits(whole.D[b], one.D[0]) and same_bits(whole.E[b], one.E[0])
            one.Z[0] = one.Z[1]
    assert same_bits(whole.rows[rows][1], one.rows[0][1])  # the state after the last row


@pytest.mark.parametrize("engine", ["arrays", "message"])
def test_blocks_step_each_row_by_the_schedule_of_its_iterate(nonconv3, engine):
    # across blocks, descent tau steps x by schedule(tau): x[b + 1] =
    # x[b] - schedule(k0 + b) D[b] bit for bit, and mu and lam stay
    p, count = nonconv3.problem, 2 * BLOCK + 5
    schedule, init = InnerSchedule(a=0.3, b=7.0), perturbed(nonconv3.point, p, 0.1, 3)
    sizes = map(schedule, itertools.count())
    stepped = 0
    for blk, k0, rows in solvers.blocks(p, init, engine, count, sizes, 8.0, True):
        for b in range(min(rows, count - k0)):
            state, after = blk.rows[b][1], blk.rows[b + 1][1]
            assert same_bits(after, state - schedule(k0 + b) * blk.D[b])
            assert same_bits(blk.mu[b + 1], init.mu) and same_bits(blk.lam[b + 1], init.lam)
            stepped += 1
    assert stepped == count


@pytest.mark.parametrize("engine", ["arrays", "message"])
@pytest.mark.parametrize("algorithm,c", [("a1", 0.0), ("a2", 3.0)])
@pytest.mark.parametrize("max_iter", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_blocked_run_bitwise_with_two_constrained_agents(two_constraints, engine, algorithm,
                                                         c, max_iter):
    p, point = two_constraints
    cfg = FirstOrderConfig(algorithm=algorithm, alpha=0.05, c=c,
                           init=perturbed(point, p, 0.2, 5), max_iter=max_iter, tol=0.0)
    result = both_runs(p, cfg, point, engine)
    assert result.status == "iteration-cap" and len(result.trace) == max_iter + 1


@pytest.mark.parametrize("engine", ["arrays", "message"])
def test_blocked_run_converges_on_the_first_and_last_row_of_a_block(nonconv3, engine):
    # the KKT total of this run falls at every one of its first 2 BLOCK + 1
    # rows, so tol = the total of row r stops the run exactly at row r
    p = nonconv3.problem
    cfg = FirstOrderConfig(algorithm="a2", alpha=0.04, c=5.6,
                           init=perturbed(nonconv3.point, p, 0.1, 0),
                           max_iter=2 * BLOCK + 1, tol=0.0)
    totals = [KKTResidual(*row).total for row in
              row_run_first_order(p, cfg, nonconv3.point, engine)[0].trace.kkt.tolist()]
    for row in (0, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK):
        assert totals[row] < min(totals[:row], default=np.inf)
        result = both_runs(p, dataclasses.replace(cfg, tol=totals[row]), nonconv3.point, engine)
        assert result.status == "converged" and result.iterations == row


def test_blocked_run_tests_the_kkt_total_before_the_iterate_norm(path2):
    # lam shifted by 1e9 along Null(S') leaves the KKT total near zero and
    # puts the state norm above 1e8: the row converges, as in the row loop
    p = path2.problem
    at = path2.point.as_state(p)
    init = MultiplierState(at.x, at.mu, at.lam + 1e9)
    tol = 10 * kkt_residual(p, init).total + 1e-12
    cfg = FirstOrderConfig(algorithm="a1", alpha=0.1, init=init, max_iter=5, tol=tol)
    result = both_runs(p, cfg, path2.point)
    assert result.status == "converged" and result.iterations == 0


@pytest.mark.parametrize("engine", ["arrays", "message"])
def test_blocked_run_diverges_in_mid_block(path2, nonconv3, engine):
    # the huge edge weight overflows the KKT norms at row 1; the a2 step on
    # tp-nonconv3 passes the iterate norm 1e8 at row 3; the rounds run ahead
    # past either stop go on through inf and nan
    p = lift_problem(path2.problem.agents, from_edges(2, [(0, 1, 1.0e150)]))
    point = oracle.lifted_multipliers(p, oracle.solve_centralized(p, seed=0))
    cfg = FirstOrderConfig(algorithm="a1", alpha=0.1, init=perturbed(point, p, 0.1, 0),
                           max_iter=6000, tol=1e-8)
    overflow = both_runs(p, cfg, point, engine)
    assert overflow.status == "diverged" and overflow.iterations == 1
    assert not np.isfinite(overflow.trace.kkt[-1]).all()
    p = nonconv3.problem
    cfg = FirstOrderConfig(algorithm="a2", alpha=0.5, c=40.0, max_iter=200, tol=1e-9,
                           init=perturbed(nonconv3.point, p, 0.1, 0))
    step = both_runs(p, cfg, nonconv3.point, engine)
    assert step.status == "diverged" and step.iterations == 3
    assert np.isfinite(step.trace.kkt).all()


def special_grad_h_problem(special):
    """Two agents on one edge, each with f = -4e5 x_0 + x_1^2, so that from
    x = 0 and mu = 0 every a2 round moves x_0 by 4e5 alpha on both and
    leaves x_1 = 0, lam = 0 and mu = 0.  Agent 1's h = +-x_0^60 x_1 is 0
    there, and its grad h = (0, +-x_0^60) is finite up to x_0 about 1.4e5,
    where it overflows to ``special``: +inf or -inf for one term, and
    inf - inf = nan for the two terms x_0^60 x_1 - x_0^60 x_1."""
    f = [[-4e5, [1, 0]], [1.0, [0, 2]]]
    if np.isnan(special):
        h = [[1.0, [60, 1]], [-1.0, [60, 1]]]
    else:
        h = [[float(np.sign(special)), [60, 1]]]
    agents = [polynomial_agent(f, 2), polynomial_agent(f, 2, h_terms=h)]
    return lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))


@pytest.mark.parametrize("engine", ["arrays", "message"])
@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
def test_blocked_run_bitwise_with_special_mu_and_grad_h(path2, engine, special):
    p = path2.problem
    init = perturbed(path2.point, p, 0.1, 2)
    cfg = FirstOrderConfig(algorithm="a2", alpha=0.1, c=1.0, max_iter=BLOCK + 1,
                           init=MultiplierState(init.x, np.array([special]), init.lam))
    assert both_runs(p, cfg, path2.point, engine).status == "diverged"
    p = special_grad_h_problem(special)
    cfg = FirstOrderConfig(algorithm="a2", alpha=0.05, c=1.0, max_iter=BLOCK + 1, tol=0.0,
                           init=MultiplierState(np.zeros((2, 2)), np.zeros(1), np.zeros((2, 2))))
    result = both_runs(p, cfg, random_point(p, 3), engine)
    assert result.status == "diverged" and 0 < result.iterations < BLOCK
    # the last row's grad h is the first special one, and its x is finite
    with np.errstate(over="ignore", invalid="ignore"):
        grad_h = evaluate(p, result.state.x).grad_h
    assert np.isfinite(result.state.x).all()
    assert same_bits(grad_h[0, 1], special) and grad_h[0, 0] == 0.0


@settings(max_examples=40)
@given(p=networks(), seed=st.integers(0, 2**16), rows=st.integers(1, BLOCK),
       with_reference=st.booleans())
def test_recorder_block_rows_equal_row_records(p, seed, rows, with_reference):
    """One batched pass over states and evaluations that hold +-inf and nan
    (one entry in ten), and a first row whose f is all -0.0, against the
    row recorder, row by row; the state norm against
    max(||x||, ||mu||, ||lam||)."""
    rng = np.random.default_rng(seed)

    def values(shape):
        v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 3, shape)
        hit = rng.random(shape) < 0.1
        v[hit] = rng.choice([np.inf, -np.inf, np.nan], hit.sum())
        return v

    states = [MultiplierState(values((p.N, p.n)), values(p.m), values((p.num_pairs, p.n)))
              for _ in range(rows)]
    evaluations = [Evaluation(*(values(np.shape(v)) for v in evaluate(p, np.zeros((p.N, p.n)))))
                   for _ in states]
    evaluations[0] = evaluations[0]._replace(f=np.full(p.N, -0.0))
    reference = random_point(p, seed) if with_reference else None
    blocked, row = TraceRecorder(p, reference), RowTraceRecorder(p, reference)
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = (np.array([getattr(s, name) for s in states]) for name in ("x", "mu", "lam"))
        totals, norms = blocked.record(7, *stacked, Evaluation(*map(np.array, zip(*evaluations))))
        for k, (state, ev) in enumerate(zip(states, evaluations)):
            res = _kkt(p, state.x, state.mu, state.lam, ev)
            row.record(7 + k, state, res, ev.f)
            assert same_bits(totals[k], res.total)
            assert same_bits(norms[k], _state_norm(state))
    assert_same_trace(blocked.build(), row.build())


# --- rounds that run ahead -------------------------------------------------------


def test_table_passes_past_a_converging_stop_stay_under_a_block(nonconv3, monkeypatch):
    # the run evaluates every iterate of the block it stops in and none past
    # max_iter: rows + BLOCK - 1 passes at most
    p, tables = counted_passes(nonconv3.problem, monkeypatch)
    init = perturbed(nonconv3.point, p, 0.1, 7)
    for max_iter in (10**4, 2 * BLOCK + 2):
        tables["stacked"].outputs.clear()
        cfg = FirstOrderConfig(algorithm="a2", alpha=0.04, c=5.6, init=init, max_iter=max_iter)
        result = run_first_order(p, cfg, reference=nonconv3.point)
        rows = len(result.trace)
        assert result.status == ("converged" if max_iter > BLOCK * 3 else "iteration-cap")
        expected = min(-(-rows // BLOCK) * BLOCK, max_iter + 1)
        assert len(tables["stacked"].outputs) == expected <= rows + BLOCK - 1
