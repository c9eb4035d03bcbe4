import math
from itertools import islice

import numpy as np
import pytest
from conftest import counted_passes, dense_forms, grad_aug_lagrangian, run_with_states, same_bits
from reference import one_descent, row_inner_minimize, row_run_first_order

from lagnet import analysis, multipliers
from lagnet.multipliers import (
    InnerDivergenceError,
    InnerSchedule,
    MoMConfig,
    default_inner_alpha,
    inner_minimize,
    outer_step,
    penalty_schedule,
    run_a3,
)
from lagnet.problem import (
    MultiplierState,
    evaluate,
    hess_aug_lagrangian,
)
from lagnet.solvers import BLOCK, ArrayExecutor, FirstOrderConfig, run_first_order


def perturbed(point, p, radius, seed):
    rng = np.random.default_rng(seed)
    return MultiplierState(
        x=point.lifted_x(p.N) + rng.uniform(-radius, radius, (p.N, p.n)),
        mu=point.mu + rng.uniform(-radius, radius, p.m),
        lam=point.lam + rng.uniform(-radius, radius, (p.num_pairs, p.n)),
    )


def mom_config(p, init=None, **kw):
    init = p.zero_state() if init is None else init
    return MoMConfig(init=init, **kw)


# --- penalty schedule --------------------------------------------------------


def test_schedule_doubling_capped(path2):
    cfg = mom_config(path2.problem, c0=1.0, beta=2.0, c_max=10.0)
    values = list(islice(penalty_schedule(cfg), 7))
    assert values == [1, 2, 4, 8, 10, 10, 10]


def test_schedule_cap_binds_immediately(path2):
    cfg = mom_config(path2.problem, c0=5.0, beta=1.0 + 1e-9, c_max=5.0)
    assert list(islice(penalty_schedule(cfg), 4)) == [5.0] * 4


def test_schedule_monotone_and_bounded(path2):
    cfg = mom_config(path2.problem, c0=0.3, beta=3.0, c_max=7.0)
    values = list(islice(penalty_schedule(cfg), 12))
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= 7.0 for v in values)


def test_schedule_equals_k_steps_from_c0(path2):
    # c_k is c0 stepped k times by min(beta c, c_max), bit for bit
    for c0, beta, c_max in ((1.0, 2.0, 10.0), (0.3, 3.0, 7.0), (0.1, 1.1, 1e3),
                            (1e-300, 1.7, 1e300), (5.0, 1.0 + 1e-9, 5.0)):
        cfg = mom_config(path2.problem, c0=c0, beta=beta, c_max=c_max)
        expected = []
        for k in range(60):
            c = c0
            for _ in range(k):
                c = min(beta * c, c_max)
            expected.append(c)
        assert list(islice(penalty_schedule(cfg), 60)) == expected


def test_config_validation(path2):
    p = path2.problem
    with pytest.raises(ValueError):
        mom_config(p, c0=0.0)
    with pytest.raises(ValueError):
        mom_config(p, beta=1.0)
    with pytest.raises(ValueError):
        mom_config(p, c0=4.0, c_max=2.0)
    with pytest.raises(ValueError):
        mom_config(p, inner_alpha=0.1, inner_schedule=InnerSchedule(1.0, 10.0))
    with pytest.raises(ValueError):
        mom_config(p, outer_max_iter=0)


# --- inner minimization -------------------------------------------------------


def test_default_inner_alpha_is_exact_inverse_norm(nonconv3):
    # at this state 200 power-iteration steps from the all-ones vector are
    # still 7e-6 (relative) off the largest |eigenvalue|
    p = nonconv3.problem
    state = perturbed(nonconv3.point, p, 0.5, 29)
    H = hess_aug_lagrangian(p, state, 16.0)
    expected = 1.0 / np.max(np.abs(np.linalg.eigvalsh(H)))
    assert default_inner_alpha(p, state, 16.0) == pytest.approx(expected, rel=1e-12, abs=0)


def test_inner_matches_closed_form_quadratic(path2):
    # the inner problem on a quadratic fixture is an unconstrained convex
    # quadratic; its stationary point solves a linear system
    p = path2.problem
    mu = np.zeros(p.m)
    lam = np.zeros((p.num_pairs, p.n))
    c = 2.0
    cfg = mom_config(p, inner_max_iter=100000)
    eps = 1e-9
    x, iters, ok, _ = inner_minimize(p, p.zero_state().x, mu, lam, c, cfg, eps_k=eps)
    assert ok
    state = MultiplierState(np.zeros((p.N, p.n)), mu, lam)
    H = hess_aug_lagrangian(p, state, c)
    rhs = -grad_aug_lagrangian(p, state, c)
    x_exact = np.linalg.solve(H, rhs).reshape(p.N, p.n)
    lam_min = np.min(np.linalg.eigvalsh(H))
    assert np.linalg.norm(x - x_exact) <= eps / lam_min + 1e-12


def test_inner_zero_iterations_at_stationary_point(path2):
    p = path2.problem
    pt = path2.point
    x, iters, ok, _ = inner_minimize(
        p, pt.lifted_x(p.N), pt.mu, pt.lam, 2.0, mom_config(p), eps_k=1e-6
    )
    assert ok and iters == 0
    assert np.array_equal(x, pt.lifted_x(p.N))


def test_inner_single_hand_step(path2):
    # one step from zero with alpha = 0.1, c = 1
    p = path2.problem
    cfg = mom_config(p, inner_alpha=0.1, inner_max_iter=1)
    x, iters, ok, _ = inner_minimize(
        p, np.zeros((2, 1)), np.zeros(1), np.zeros((2, 1)), 1.0, cfg, eps_k=1e-300
    )
    assert not ok and iters == 1
    assert np.allclose(x.ravel(), [0.15, -0.1])


def test_inner_divergence_raises(path2):
    p = path2.problem
    cfg = mom_config(p, inner_alpha=1e6, inner_max_iter=1000)
    with pytest.raises(InnerDivergenceError):
        inner_minimize(
            p, np.ones((2, 1)), np.zeros(1), np.zeros((2, 1)), 4.0, cfg, eps_k=1e-14
        )


def test_inner_diminishing_schedule_converges(path2):
    p = path2.problem
    cfg = mom_config(p, inner_schedule=InnerSchedule(a=2.0, b=20.0),
                     inner_max_iter=100000)
    x, iters, ok, _ = inner_minimize(
        p, np.zeros((2, 1)), np.zeros(1), np.zeros((2, 1)), 1.0, cfg, eps_k=1e-8
    )
    assert ok
    state = MultiplierState(x, np.zeros(1), np.zeros((2, 1)))
    assert np.linalg.norm(grad_aug_lagrangian(p, state, 1.0)) <= 1e-8


def test_inner_message_engine_bitwise(path2):
    p = path2.problem
    cfg = mom_config(p)
    args = (p, np.full((2, 1), 0.3), np.array([0.2]), np.zeros((2, 1)), 2.0, cfg)
    xa, ia, _, _ = inner_minimize(*args, eps_k=1e-8, engine="arrays")
    xm, im, _, _ = inner_minimize(*args, eps_k=1e-8, engine="message")
    assert ia == im
    assert np.array_equal(xa, xm)


# --- outer step ----------------------------------------------------------------


def test_outer_step_hand_values(path2):
    p = path2.problem
    state = MultiplierState(
        x=np.array([[0.6], [0.4]]),
        mu=np.array([-1.0]),
        lam=np.array([[0.7], [-0.7]]),
    )
    new = outer_step(p, state, 2.0)
    assert np.array_equal(new.x, state.x)
    assert np.allclose(new.mu, [-0.8])
    assert np.allclose(new.lam.ravel(), [1.1, -1.1])


def test_outer_step_identity_on_feasible_consensus(path2):
    p = path2.problem
    state = MultiplierState(
        x=np.array([[0.5], [0.5]]), mu=np.array([2.0]), lam=np.array([[1.0], [-3.0]])
    )
    new = outer_step(p, state, 5.0)
    assert np.allclose(new.mu, state.mu)
    assert np.allclose(new.lam, state.lam)


def test_outer_step_projection_conserved(path2):
    p = path2.problem
    J = dense_forms(p).J
    state = MultiplierState(
        x=np.array([[0.9], [-0.2]]), mu=np.array([0.3]), lam=np.array([[0.4], [2.0]])
    )
    new = outer_step(p, state, 3.0)
    assert np.max(np.abs(J @ new.lam - J @ state.lam)) <= 1e-14


# --- full algorithm -------------------------------------------------------------


def test_run_a3_converges_path2(path2):
    p = path2.problem
    init = MultiplierState(
        x=np.zeros((2, 1)), mu=np.zeros(1), lam=np.zeros((2, 1))
    )
    cfg = mom_config(p, init=init, c0=1.0, beta=2.0, c_max=16.0,
                     outer_max_iter=30, tol=1e-9)
    result = run_a3(p, cfg, reference=path2.point)
    assert result.status == "converged"
    assert result.iterations <= 30
    assert result.trace.err_mu[-1] <= 1e-6
    assert np.max(result.trace.err_x[-1]) <= 1e-6
    assert result.trace.dist_lambda[-1] <= 1e-6


def test_run_a3_one_outer_at_solution(path2):
    p = path2.problem
    cfg = mom_config(p, init=path2.point.as_state(p), tol=1e-9)
    result = run_a3(p, cfg, reference=path2.point)
    assert result.status == "converged"
    assert result.iterations == 1
    # multiplier updates at the solution are exactly zero
    assert np.array_equal(result.state.mu, path2.point.mu)
    assert np.array_equal(result.state.lam, path2.point.lam)


def test_run_a3_projection_conserved_across_outers(path2):
    p = path2.problem
    J = dense_forms(p).J
    init = perturbed(path2.point, p, 0.1, 5)
    cfg = mom_config(p, init=init, outer_max_iter=12, tol=0.0)
    result = run_a3(p, cfg, reference=path2.point)
    before = J @ init.lam
    assert np.max(np.abs(J @ result.state.lam - before)) <= 1e-12


def test_run_a3_ratio_below_rate_bound(path2):
    p = path2.problem
    rate = analysis.rate_bound_mom(p, path2.point, 4.0).rate_bound
    init = perturbed(path2.point, p, 0.1, 1)
    cfg = mom_config(p, init=init, c0=4.0, beta=2.0, c_max=4.0,
                     eps0=1e-3, gamma=0.2, outer_max_iter=18, tol=0.0)
    result = run_a3(p, cfg, reference=path2.point)
    e = result.trace.err_eta
    ratios = e[1:] / e[:-1]
    tail = ratios[len(ratios) // 2 :]
    assert np.max(tail) <= rate + 0.05


def test_run_a3_ratio_settles_on_the_rate_bound_above_twice_cbar(nonconv3):
    # the method-of-multipliers rate theorem at a constant penalty c = 10,
    # about 2.7 c_bar on tp-nonconv3: with accurate inner solves the outer
    # ratio of err_eta settles on the certified rate_bound (0.5879) by the
    # sixth outer iteration, and no inner solve reaches its cap
    p, point, c = nonconv3.problem, nonconv3.point, 10.0
    rate = analysis.rate_bound_mom(p, point, c).rate_bound
    init = perturbed(point, p, 0.1, 0)
    cfg = mom_config(p, init=init, c0=c, c_max=c, eps0=1e-3, gamma=0.05,
                     inner_max_iter=200_000, outer_max_iter=7, tol=0.0)
    result = run_a3(p, cfg, reference=point)
    assert np.max(result.trace.inner_iters) < 200_000
    e = result.trace.err_eta
    assert len(e) == 7 and abs(e[-1] / e[-2] - rate) <= 1e-3


def test_run_a3_agrees_with_oracle_on_every_fixture(all_solved):
    # the nonconvex fixture needs a penalty above the positivity threshold
    # from the start so the inner problem is locally convex
    start_c = {"tp-path2": 1.0, "tp-affine2": 1.0, "tp-nonconv3": 8.0}
    for solved in all_solved:
        p = solved.problem
        init = perturbed(solved.point, p, 0.05, 0)
        cfg = mom_config(p, init=init, c0=start_c[solved.name], beta=2.0,
                         c_max=16.0, outer_max_iter=40, tol=1e-9)
        result = run_a3(p, cfg, reference=solved.point)
        assert result.status == "converged"
        x_star = solved.point.lifted_x(p.N)
        assert np.max(np.linalg.norm(result.state.x - x_star, axis=1)) <= 1e-5
        assert np.linalg.norm(result.state.mu - solved.solution.psi_star) <= 1e-5


def test_run_a3_message_engine_trace_bitwise(path2):
    p = path2.problem
    init = perturbed(path2.point, p, 0.1, 8)
    cfg = mom_config(p, init=init, outer_max_iter=8, tol=0.0)
    ra, ra_states = run_with_states(run_a3, p, cfg, reference=path2.point, engine="arrays")
    rm, rm_states = run_with_states(run_a3, p, cfg, reference=path2.point, engine="message")
    for sa, sm in zip(ra_states, rm_states):
        assert np.array_equal(sa.x, sm.x)
        assert np.array_equal(sa.mu, sm.mu)
        assert np.array_equal(sa.lam, sm.lam)
    assert np.array_equal(ra.trace.inner_iters, rm.trace.inner_iters)


def descent_norms(p, state, c, step_of, count):
    """||grad_x L_c|| of the first ``count`` descents from ``state``, each
    squared norm summed agent by agent in agent order."""
    executor, current, norms = ArrayExecutor(p), state, []
    for tau in range(count):
        current, grad = one_descent(executor, current, step_of(tau), c)
        grad_sq = 0.0
        for g_a in grad:
            grad_sq += float(g_a @ g_a)
        norms.append(math.sqrt(grad_sq))
    return norms


def test_inner_stop_tests_the_agent_order_sum_of_row_dots(two_constraints):
    # eps at each round's norm, and one ulp below it: the solve stops at the
    # first round whose sqrt(sum_a g_a @ g_a), added in agent order, is <= eps
    p, point = two_constraints
    state, c, rounds = perturbed(point, p, 0.2, 5), 4.0, 40
    alpha = default_inner_alpha(p, state, c)
    norms = descent_norms(p, state, c, lambda tau: alpha, rounds)
    cfg = mom_config(p, init=state, inner_alpha=alpha, inner_max_iter=rounds)
    for norm in norms:
        for eps in (norm, float(np.nextafter(norm, 0.0))):
            expected = next((tau for tau, v in enumerate(norms) if v <= eps), rounds)
            _, tau, _, _ = inner_minimize(p, state.x, state.mu, state.lam, c, cfg, eps)
            assert tau == expected


def test_run_a3_message_engine_bitwise_with_two_constrained_agents(two_constraints):
    # the constrained rows of the array gradient are one gather and one
    # scatter of m = 2 rows, and its norm sums 4 per-agent dots
    p, point = two_constraints
    cfg = mom_config(p, init=perturbed(point, p, 0.2, 5), c0=2.0, beta=2.0, c_max=8.0,
                     inner_max_iter=400, outer_max_iter=6, tol=0.0)
    ra, ra_states = run_with_states(run_a3, p, cfg, reference=point, engine="arrays")
    rm, rm_states = run_with_states(run_a3, p, cfg, reference=point, engine="message")
    assert ra.status == rm.status and len(ra.trace) == len(rm.trace) == 6
    for sa, sm in zip(ra_states + [ra.state], rm_states + [rm.state]):
        for a, b in ((sa.x, sm.x), (sa.mu, sm.mu), (sa.lam, sm.lam)):
            assert same_bits(a, b)
    for column in ("err_x", "err_mu", "dist_lambda", "kkt", "objective", "inner_iters"):
        assert same_bits(getattr(ra.trace, column), getattr(rm.trace, column)), column


def test_run_a3_message_engine_never_builds_an_array_executor(path2, monkeypatch):
    from lagnet import solvers

    def refuse(*args, **kwargs):
        raise AssertionError("engine='message' used the array executor")

    monkeypatch.setattr(solvers, "ArrayExecutor", refuse)
    p = path2.problem
    cfg = mom_config(p, init=perturbed(path2.point, p, 0.1, 8), outer_max_iter=8, tol=0.0)
    result = run_a3(p, cfg, reference=path2.point, engine="message")
    assert len(result.trace) == 8


# --- work per inner round ------------------------------------------------------


def test_one_stacked_pass_per_inner_round(nonconv3, monkeypatch):
    # each descent makes the stacked pass at its own x, once: the first
    # solve's default step evaluates its start once more (m = 1, c = 8), and
    # nothing else evaluates between two descents, across solves too
    p, tables = counted_passes(nonconv3.problem, monkeypatch)
    solves = []  # per solve, the stacked passes made when each descent starts
    descend_into, solve = ArrayExecutor.descend_into, multipliers.inner_minimize

    def counted_descend_into(*args, **kwargs):
        solves[-1].append(len(tables["stacked"].outputs))
        return descend_into(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        solves.append([])
        return solve(*args, **kwargs)

    monkeypatch.setattr(ArrayExecutor, "descend_into", counted_descend_into)
    monkeypatch.setattr(multipliers, "inner_minimize", counted_solve)
    init = perturbed(nonconv3.point, p, 0.1, 3)
    cfg = mom_config(p, init, c0=8.0, c_max=8.0, outer_max_iter=30, tol=1e-9)
    result = run_a3(p, cfg, reference=nonconv3.point)
    assert result.status == "converged"
    assert len(solves) == len(result.trace)
    assert sum(map(len, solves)) > 10 * len(solves)
    passes = 0
    for counts in solves:
        assert np.diff([passes] + counts).tolist() == [1] * len(counts)
        passes = counts[-1]
    assert len(tables["stacked"].outputs) == passes + 1  # the last descent's own pass


def test_a3_ascent_takes_h_from_the_outer_evaluation(nonconv3, monkeypatch):
    # the inner solve hands back the evaluation its stopping descent made:
    # it serves the KKT row, the ascent (which so makes no pass) and the next
    # solve's Hessian step; every descent makes the pass at its own x, and
    # the first solve's Hessian step one at its start; so the passes are one
    # per descent run, plus one
    p, tables = counted_passes(nonconv3.problem, monkeypatch)
    descents, ascents = [], []

    def counted(method, passes):
        def wrapper(*args, **kwargs):
            before = len(tables["stacked"].outputs)
            out = method(*args, **kwargs)
            passes.append(len(tables["stacked"].outputs) - before)
            return out
        return wrapper

    monkeypatch.setattr(ArrayExecutor, "descend_into",
                        counted(ArrayExecutor.descend_into, descents))
    monkeypatch.setattr(ArrayExecutor, "ascend", counted(ArrayExecutor.ascend, ascents))
    init = perturbed(nonconv3.point, p, 0.1, 3)
    cfg = mom_config(p, init, c0=8.0, c_max=8.0, outer_max_iter=30, tol=1e-9)
    result = run_a3(p, cfg, reference=nonconv3.point)
    rows = len(result.trace)
    assert result.status == "converged" and ascents == [0] * (rows - 1)
    assert set(descents) == {1}  # the descent makes its own pass
    run = [min(-(-(tau + 1) // BLOCK) * BLOCK, cfg.inner_max_iter)
           for tau in result.trace.inner_iters.tolist()]
    assert len(descents) == sum(run) == 5_312  # 4,881 kept, 431 run ahead past a stop
    assert len(tables["stacked"].outputs) == len(descents) + 1 == 5_313


# --- descents that run ahead -----------------------------------------------------


def assert_same_solve(p, state, c, cfg, eps, engine="arrays"):
    """The blocked solve returns the row loop's (x, tau, converged) bit for
    bit, and the evaluation at that x, at its cap too."""
    args = (p, state.x, state.mu, state.lam, c, cfg, eps, engine)
    x, tau, converged, ev = inner_minimize(*args)
    row_x, row_tau, row_converged = row_inner_minimize(*args)
    assert same_bits(x, row_x) and (tau, converged) == (row_tau, row_converged)
    for got, want in zip(ev, evaluate(p, row_x)):
        assert same_bits(got, want)
    return tau


@pytest.fixture(scope="module")
def inner_case(two_constraints):
    p, point = two_constraints
    state, c = perturbed(point, p, 0.2, 5), 4.0
    return p, state, c, default_inner_alpha(p, state, c)


@pytest.mark.parametrize("engine", ["arrays", "message"])
def test_blocked_inner_solve_stops_where_the_row_loop_stops(inner_case, engine):
    # eps at the norm of a descent and one ulp below it, on both sides of the
    # block boundaries at 32 and 64: the norms fall monotonically here, so
    # the solve stops at that descent or at the next
    p, state, c, alpha = inner_case
    norms = descent_norms(p, state, c, lambda tau: alpha, 70)
    assert all(a > b for a, b in zip(norms, norms[1:]))
    cfg = mom_config(p, init=state, inner_alpha=alpha, inner_max_iter=70)
    for tau in (0, 1, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK):
        at, below = norms[tau], float(np.nextafter(norms[tau], 0.0))
        assert assert_same_solve(p, state, c, cfg, at, engine) == tau
        assert assert_same_solve(p, state, c, cfg, below, engine) == tau + 1


@pytest.mark.parametrize("cap", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_blocked_inner_solve_stops_at_the_row_loops_cap(inner_case, cap):
    # never converging (eps = 0), and converging on the last descent before
    # the cap
    p, state, c, alpha = inner_case
    cfg = mom_config(p, init=state, inner_alpha=alpha, inner_max_iter=cap)
    assert assert_same_solve(p, state, c, cfg, 0.0) == cap
    last = descent_norms(p, state, c, lambda tau: alpha, cap)[-1]
    assert assert_same_solve(p, state, c, cfg, last) == cap - 1


def test_blocked_inner_solve_follows_the_diminishing_schedule(inner_case):
    p, state, c, _ = inner_case
    schedule = InnerSchedule(a=0.5, b=20.0)
    norms = descent_norms(p, state, c, schedule, 70)
    cfg = mom_config(p, init=state, inner_schedule=schedule, inner_max_iter=70)
    for tau in (BLOCK - 1, BLOCK, 2 * BLOCK + 1):
        for eps in (norms[tau], float(np.nextafter(norms[tau], 0.0))):
            assert_same_solve(p, state, c, cfg, eps)
    assert assert_same_solve(p, state, c, cfg, 0.0) == 70


@pytest.mark.parametrize("engine", ["arrays", "message"])
def test_blocked_inner_solve_raises_where_the_row_loop_raises(path2, engine):
    # the step sends x past 1e308 at descent 22, in the middle of a block
    p = path2.problem
    cfg = mom_config(p, inner_alpha=1e6, inner_max_iter=1000)
    args = (p, np.ones((2, 1)), np.zeros(1), np.zeros((2, 1)), 4.0, cfg, 1e-14, engine)
    messages = []
    for solve in (row_inner_minimize, inner_minimize):
        with pytest.raises(InnerDivergenceError) as raised:
            solve(*args)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert "tau = 22;" in messages[0]
    # a descent that meets eps and overflows x stops the solve: the stopping
    # test comes first
    cfg = mom_config(p, inner_alpha=1.7e308, inner_max_iter=1000)
    assert assert_same_solve(p, MultiplierState(*args[1:4]), 4.0, cfg, 1e3, engine) == 0


def test_inner_passes_past_a_stop_stay_under_a_block(nonconv3, monkeypatch):
    # a solve evaluates every x of the block it stops in and none past
    # inner_max_iter, the x at the cap by a lone pass: at most BLOCK - 1
    # passes past the stop, after the one its default step makes at the start
    p, tables = counted_passes(nonconv3.problem, monkeypatch)
    state = perturbed(nonconv3.point, p, 0.1, 3)
    for eps, cap in ((1e-3, 10**4), (1e-6, 10**4), (1e-9, 2 * BLOCK + 2)):
        tables["stacked"].outputs.clear()
        cfg = mom_config(p, init=state, inner_max_iter=cap)
        x, tau, converged, ev = inner_minimize(p, state.x, state.mu, state.lam, 8.0, cfg, eps)
        passes = len(tables["stacked"].outputs) - 1
        if converged:  # descents 0..tau are kept
            assert passes == min(-(-(tau + 1) // BLOCK) * BLOCK, cap + 1) <= tau + BLOCK
        else:
            assert tau == cap and passes == cap + 1
            assert all(same_bits(a, b) for a, b in zip(ev, evaluate(p, x)))
        assert same_bits(ev.f, tables["stacked"].outputs[1 + tau][: p.N])
    assert not converged  # the last case reaches its cap


def test_returned_and_recorded_arrays_share_no_buffer(two_constraints):
    # the solvers reuse their block buffers; every state, x and evaluation
    # they hand out or record is a copy: none shares memory with another,
    # and each keeps its values through later blocks and later runs
    p, point = two_constraints
    init = perturbed(point, p, 0.2, 5)
    first = FirstOrderConfig(algorithm="a2", alpha=0.02, c=2.0, init=init,
                             max_iter=2 * BLOCK + 5, tol=0.0)
    mom = mom_config(p, init=init, c0=2.0, c_max=8.0, outer_max_iter=4, tol=0.0)

    def runs():
        a2, a2_states = run_with_states(run_first_order, p, first, reference=point)
        inner = inner_minimize(p, init.x, init.mu, init.lam, 4.0, mom, 1e-3)
        a3, a3_states = run_with_states(run_a3, p, mom, reference=point)
        states = [a2.state, *a2_states, a3.state, *a3_states]
        return [v for s in states for v in (s.x, s.mu, s.lam)] + [inner[0], *inner[3]]

    arrays = runs()
    assert len(arrays) == 3 * (1 + (2 * BLOCK + 6) + 1 + 4) + 5  # states, x and ev
    kept = [a.copy() for a in arrays]
    _, row_states = row_run_first_order(p, first, reference=point)
    for got, want in zip(arrays[3:], [v for s in row_states for v in (s.x, s.mu, s.lam)]):
        assert same_bits(got, want)  # earlier blocks' rows survived the later ones
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:] if a.size and b.size)
    runs()
    assert all(same_bits(a, b) for a, b in zip(arrays, kept))
