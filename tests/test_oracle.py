from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import counted_tables

from lagnet import analysis, oracle
from lagnet.analysis import verify_minimizer
from lagnet.netgraph import from_edges
from lagnet.oracle import (
    OracleError,
    lifted_multipliers,
    solve_centralized,
)
from lagnet.problem import (
    kkt_residual,
    lift_problem,
    polynomial_agent,
)


def test_path2_solution(path2):
    sol = path2.solution
    assert sol.x_star == pytest.approx([0.5], abs=1e-10)
    assert sol.psi_star == pytest.approx([-1.0], abs=1e-10)
    assert sol.kkt_residual_norm <= 1e-10


def test_affine2_solution(affine2):
    sol = affine2.solution
    assert sol.x_star == pytest.approx([0.5, 0.5], abs=1e-10)
    assert sol.psi_star == pytest.approx([0.0, 0.0], abs=1e-10)


def test_nonconv3_pinned_root(nonconv3):
    sol = nonconv3.solution
    assert sol.x_star == pytest.approx([1.0, 0.0], abs=1e-9)
    assert sol.psi_star == pytest.approx([0.5], abs=1e-9)


def test_feasibility_contract(all_solved):
    for solved in all_solved:
        p = solved.problem
        h = [p.agents[i].values(solved.solution.x_star)[2] for i in p.constrained_agents]
        assert np.linalg.norm(h) <= 1e-10


def test_lifted_multipliers_path2(path2):
    pt = path2.point
    assert pt.mu == pytest.approx([-1.0], abs=1e-10)
    assert pt.lam.ravel() == pytest.approx([0.75, -0.75], abs=1e-10)


def test_lifted_point_is_stationary(all_solved):
    for solved in all_solved:
        res = kkt_residual(solved.problem, solved.point.as_state(solved.problem))
        assert res.total <= 1e-10


def test_lambda_star_in_range_of_S(path2):
    # Range(S) is orthogonal to Null(S') = span{(1, 1)}
    assert abs(path2.point.lam.ravel() @ np.ones(2)) <= 1e-12


def test_nullspace_shift_preserves_stationarity(path2):
    p = path2.problem
    pt = path2.point
    shifted = pt.as_state(p)
    shifted = type(shifted)(shifted.x, shifted.mu, shifted.lam + 2.5)
    assert kkt_residual(p, shifted).total <= 1e-10


def test_verify_minimizer_flags(path2, nonconv3):
    report = verify_minimizer(path2.problem, path2.solution.x_star, path2.solution.psi_star)
    assert report.blockwise_pd and report.tangent_cone_pd and report.assumption2_ok
    report = verify_minimizer(nonconv3.problem, nonconv3.solution.x_star,
                              nonconv3.solution.psi_star)
    assert not report.blockwise_pd
    assert report.tangent_cone_pd
    assert min(report.blockwise_min_eigs) == pytest.approx(-1.5, abs=1e-9)


def test_verify_minimizer_flags_dependent_constraints():
    same = [[1.0, [1, 0]], [1.0, [0, 1]], [-1.0, [0, 0]]]
    double = [[2.0, [1, 0]], [2.0, [0, 1]], [-2.0, [0, 0]]]
    agents = (
        polynomial_agent([[0.5, [2, 0]], [0.5, [0, 2]]], 2, h_terms=same),
        polynomial_agent([[0.5, [2, 0]], [0.5, [0, 2]]], 2, h_terms=double),
    )
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    x_star = np.array([0.5, 0.5])
    (_, g0, _, gh0), (_, g1, _, gh1) = (agent.values(x_star) for agent in agents)
    psi, *_ = np.linalg.lstsq(np.column_stack([gh0, gh1]), -(g0 + g1), rcond=None)
    report = verify_minimizer(p, x_star, psi)
    assert report.assumption2_sigma_min <= 1e-8
    assert not report.assumption2_ok and not report.tangent_cone_pd


def test_verify_minimizer_reports_at_a_point_that_is_not_lifted_stationary(nonconv3):
    p, sol = nonconv3.problem, nonconv3.solution
    moved = replace(sol, x_star=sol.x_star + np.array([0.0, 0.25]))
    with pytest.raises(OracleError):
        lifted_multipliers(p, moved)
    report = verify_minimizer(p, moved.x_star, moved.psi_star)
    assert report.assumption2_ok and np.isfinite(report.tangent_cone_margin)


def test_verify_minimizer_flags_a_failed_annihilation_check():
    # gradients of norms 1e4 and 1e-7: Assumption 2 holds (sigma_min 1e-7),
    # but the rank rule at 1e-10 drops the small one, and grad h' then fails
    # to annihilate the tangent basis
    agents = (
        polynomial_agent([[0.5, [2, 0]], [0.5, [0, 2]]], 2, h_terms=[[1.0e4, [1, 0]]]),
        polynomial_agent([[0.5, [2, 0]], [0.5, [0, 2]]], 2, h_terms=[[1.0e-7, [0, 1]]]),
    )
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    report = verify_minimizer(p, np.zeros(2), np.zeros(2))
    assert report.assumption2_ok and report.blockwise_pd
    assert not report.tangent_cone_pd and np.isnan(report.tangent_cone_margin)


def test_oracle_failure_reported():
    # a linear objective with no constraints has no stationary point
    agents = (
        polynomial_agent([[1.0, [1]]], 1),
        polynomial_agent([[1.0, [1]]], 1),
    )
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    with pytest.raises(OracleError):
        solve_centralized(p, x_init=np.zeros(1), restarts=2)


def test_multistart_picks_lowest_objective():
    # symmetric double well x^4/4 - x^2/2 tilted by -0.1 x: the oracle must
    # return the deeper right-hand well regardless of the starting side
    tilted = [[0.25, [4]], [-0.5, [2]], [-0.1, [1]]]
    agents = (polynomial_agent(tilted, 1), polynomial_agent(tilted, 1))
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    sol = solve_centralized(p, x_init=np.array([-1.0]), restarts=8, radius=2.0)
    assert sol.x_star[0] > 0
    assert len(sol.all_roots) >= 2

def test_one_hessian_pass_per_newton_step_and_cholesky_attempt(nonconv3, monkeypatch):
    # a Newton step takes hess f and hess h from one pass over the Hessian
    # table; each Newton iterate is evaluated once, by its start or by the
    # line-search trial that accepted it, and that evaluation also gives a
    # root its objective; find_cbar's KKT test, cone check and attempts share
    # one evaluation, and its cone check and attempts one Hessian pass
    p, tables = counted_tables(nonconv3.problem)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def hessian_passes():
        return sum(len(table.outputs) for name, table in tables.items() if name != "stacked")

    monkeypatch.setattr(np.linalg, "solve", counted("step", np.linalg.solve))
    monkeypatch.setattr(oracle, "_centralized_residual",
                        counted("residual", oracle._centralized_residual))
    sol = oracle.solve_centralized(p, x_init=nonconv3.oracle_init, seed=0)
    assert np.array_equal(sol.x_star, nonconv3.solution.x_star)
    assert hessian_passes() == calls["step"] == 65
    assert len(tables["stacked"].outputs) == calls["residual"]
    for table in tables.values():
        table.outputs.clear()
    monkeypatch.setattr(np.linalg, "cholesky", counted("attempt", np.linalg.cholesky))
    assert analysis.find_cbar(p, nonconv3.point) == 3.703125
    assert calls["attempt"] == 14 and hessian_passes() == 1
    assert len(tables["stacked"].outputs) == 1
