import numpy as np
import pytest

from lagnet import analysis
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
from lagnet.problem import MultiplierState, grad_aug_lagrangian, hess_aug_lagrangian


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
    values = [penalty_schedule(cfg, k) for k in range(7)]
    assert values == [1, 2, 4, 8, 10, 10, 10]


def test_schedule_cap_binds_immediately(path2):
    cfg = mom_config(path2.problem, c0=5.0, beta=1.0 + 1e-9, c_max=5.0)
    assert [penalty_schedule(cfg, k) for k in range(4)] == [5.0] * 4


def test_schedule_monotone_and_bounded(path2):
    cfg = mom_config(path2.problem, c0=0.3, beta=3.0, c_max=7.0)
    values = [penalty_schedule(cfg, k) for k in range(12)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= 7.0 for v in values)


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
    x, iters, ok = inner_minimize(p, p.zero_state().x, mu, lam, c, cfg, eps_k=eps)
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
    x, iters, ok = inner_minimize(
        p, pt.lifted_x(p.N), pt.mu, pt.lam, 2.0, mom_config(p), eps_k=1e-6
    )
    assert ok and iters == 0
    assert np.array_equal(x, pt.lifted_x(p.N))


def test_inner_single_hand_step(path2):
    # one step from zero with alpha = 0.1, c = 1
    p = path2.problem
    cfg = mom_config(p, inner_alpha=0.1, inner_max_iter=1)
    x, iters, ok = inner_minimize(
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
    x, iters, ok = inner_minimize(
        p, np.zeros((2, 1)), np.zeros(1), np.zeros((2, 1)), 1.0, cfg, eps_k=1e-8
    )
    assert ok
    state = MultiplierState(x, np.zeros(1), np.zeros((2, 1)))
    assert np.linalg.norm(grad_aug_lagrangian(p, state, 1.0)) <= 1e-8


def test_inner_message_engine_bitwise(path2):
    p = path2.problem
    cfg = mom_config(p)
    args = (p, np.full((2, 1), 0.3), np.array([0.2]), np.zeros((2, 1)), 2.0, cfg)
    xa, ia, _ = inner_minimize(*args, eps_k=1e-8, engine="arrays")
    xm, im, _ = inner_minimize(*args, eps_k=1e-8, engine="message")
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
    J = p.projector.J
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
    J = p.projector.J
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
    ra = run_a3(p, cfg, reference=path2.point, engine="arrays", keep_states=True)
    rm = run_a3(p, cfg, reference=path2.point, engine="message", keep_states=True)
    for sa, sm in zip(ra.trace.states, rm.trace.states):
        assert np.array_equal(sa.x, sm.x)
        assert np.array_equal(sa.mu, sm.mu)
        assert np.array_equal(sa.lam, sm.lam)
    assert np.array_equal(ra.trace.inner_iters, rm.trace.inner_iters)


def test_run_a3_message_engine_never_builds_an_array_executor(path2, monkeypatch):
    from lagnet import solvers

    def refuse(*args, **kwargs):
        raise AssertionError("engine='message' used the array executor")

    monkeypatch.setattr(solvers, "ArrayExecutor", refuse)
    p = path2.problem
    cfg = mom_config(p, init=perturbed(path2.point, p, 0.1, 8), outer_max_iter=8, tol=0.0)
    result = run_a3(p, cfg, reference=path2.point, engine="message")
    assert len(result.trace) == 8
