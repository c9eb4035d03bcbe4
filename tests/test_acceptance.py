"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
import yaml
from conftest import dense_forms, grad_aug_lagrangian, run_with_states
from reference import (
    iteration_matrix,
    least_squares_multipliers,
    numeric_iteration_jacobian,
    one_round,
    pack_state,
    unpack_state,
)

from lagnet import cli
from lagnet.analysis import (
    CertificationError,
    certify_step_size,
    estimate_linear_rate,
    find_cbar,
    mom_spectrum,
    rate_bound_mom,
)
from lagnet.harness import write_trace_csv
from lagnet.multipliers import MoMConfig, inner_minimize, run_a3
from lagnet.problem import (
    MultiplierState,
    central_difference_jacobian,
    check_gradients,
    hess_aug_lagrangian,
    kkt_residual,
)
from lagnet.solvers import ArrayExecutor, FirstOrderConfig, run_first_order


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL - {description}")
        raise
    print(f"[criterion {num:02d}] PASS - {description}")


def perturbed(point, p, radius, seed):
    rng = np.random.default_rng(seed)
    return MultiplierState(
        x=point.lifted_x(p.N) + rng.uniform(-radius, radius, (p.N, p.n)),
        mu=point.mu + rng.uniform(-radius, radius, p.m),
        lam=point.lam + rng.uniform(-radius, radius, (p.num_pairs, p.n)),
    )


def attractor_distance(trace):
    return np.sqrt(
        np.sum(trace.err_x**2, axis=1) + trace.err_mu**2 + trace.dist_lambda**2
    )


@pytest.fixture(scope="module")
def path2_cert(path2):
    return certify_step_size(path2.problem, path2.point)


@pytest.fixture(scope="module")
def path2_a1_run(path2, path2_cert):
    p = path2.problem
    cfg = FirstOrderConfig(
        algorithm="a1",
        alpha=0.9 * path2_cert.alpha_bound,
        init=perturbed(path2.point, p, 0.1, 0),
        max_iter=50000,
        tol=1e-10,
    )
    return run_with_states(run_first_order, p, cfg, reference=path2.point)


@pytest.fixture(scope="module")
def nonconv3_cbar(nonconv3):
    return find_cbar(nonconv3.problem, nonconv3.point)


# -----------------------------------------------------------------------------


def test_criterion_01_kkt_fixed_point_equivalence(path2, affine2):
    with criterion(1, "KKT points are exactly the fixed points of a1/a2"):
        for solved in (path2, affine2):
            p, executor = solved.problem, ArrayExecutor(solved.problem)
            state = solved.point.as_state(p)
            assert kkt_residual(p, state).total <= 1e-10
            for stepped in (one_round(executor, state, 0.1), one_round(executor, state, 0.1, 2.0)):
                drift = max(
                    np.max(np.abs(stepped.x - state.x)),
                    np.max(np.abs(stepped.mu - state.mu)),
                    np.max(np.abs(stepped.lam - state.lam)),
                )
                assert drift <= 1e-10
            # perturbing any single component by 1e-3 breaks fixedness
            flat = pack_state(state)
            for idx in range(flat.size):
                bumped = flat.copy()
                bumped[idx] += 1e-3
                s = unpack_state(p, bumped)
                assert kkt_residual(p, s).total > 1e-10
                for stepped in (one_round(executor, s, 0.1), one_round(executor, s, 0.1, 2.0)):
                    drift = max(
                        np.max(np.abs(stepped.x - s.x)),
                        np.max(np.abs(stepped.mu - s.mu)),
                        np.max(np.abs(stepped.lam - s.lam)),
                    )
                    assert drift > 1e-10


def test_criterion_02_a1_local_linear_convergence(path2, path2_cert, path2_a1_run):
    with criterion(2, "a1 converges linearly at the certified step size"):
        result, _ = path2_a1_run
        assert result.status == "converged"
        joint_x = np.sqrt(np.sum(result.trace.err_x**2, axis=1))
        hit = np.nonzero(joint_x <= 1e-6)[0]
        assert hit.size and hit[0] <= 50000
        fit = estimate_linear_rate(attractor_distance(result.trace))
        assert fit.r_squared >= 0.99
        alpha = 0.9 * path2_cert.alpha_bound  # the run's step
        predicted = np.max(np.abs(1.0 - alpha * path2_cert.eigenvalues))
        assert abs(fit.contraction - predicted) <= 0.05


def test_criterion_03_lambda_attractor_set(path2, path2_cert, path2_a1_run):
    with criterion(3, "lambda converges to the set, J lambda frozen to 1e-12"):
        p = path2.problem
        J = dense_forms(p).J
        runs = [path2_a1_run]
        cert2 = certify_step_size(p, path2.point, c=1.0)
        cfg = FirstOrderConfig(
            algorithm="a2", alpha=0.9 * cert2.alpha_bound, c=1.0,
            init=perturbed(path2.point, p, 0.1, 1), max_iter=50000, tol=1e-10,
        )
        runs.append(run_with_states(run_first_order, p, cfg, reference=path2.point))
        mom = MoMConfig(init=perturbed(path2.point, p, 0.1, 2),
                        c0=1.0, beta=2.0, c_max=16.0, outer_max_iter=30, tol=1e-9)
        runs.append(run_with_states(run_a3, p, mom, reference=path2.point))
        for run, states in runs:
            assert run.trace.dist_lambda[-1] <= 1e-6
            lam0 = states[0].lam
            drift = max(
                float(np.max(np.abs(J @ (s.lam - lam0)))) for s in states
            )
            assert drift <= 1e-12


def test_criterion_04_mu_star_equals_psi_star(all_solved):
    with criterion(4, "lifted mu* equals the centralized psi* on all fixtures"):
        for solved in all_solved:
            mu, _, residual = least_squares_multipliers(
                solved.problem, solved.solution.x_star
            )
            assert residual <= 1e-10
            assert np.linalg.norm(mu - solved.solution.psi_star) <= 1e-8
            assert np.linalg.norm(solved.point.mu - solved.solution.psi_star) <= 1e-8


def test_criterion_05_a2_over_a1_separation(nonconv3, nonconv3_cbar):
    with criterion(5, "a1 fails on the nonconvex fixture, a2 converges"):
        p = nonconv3.problem
        with pytest.raises(CertificationError):
            certify_step_size(p, nonconv3.point, c=0.0)
        init = perturbed(nonconv3.point, p, 0.1, 0)
        for alpha in (1e-4, 1e-3, 1e-2, 1e-1):
            cfg = FirstOrderConfig(algorithm="a1", alpha=alpha, init=init,
                                   max_iter=4000, tol=1e-8)
            result = run_first_order(p, cfg, reference=nonconv3.point)
            assert result.status != "converged"
            assert np.max(result.trace.err_x[-1]) > 1e-3
        c = 1.5 * nonconv3_cbar
        cert = certify_step_size(p, nonconv3.point, c=c)
        cfg = FirstOrderConfig(algorithm="a2", alpha=0.9 * cert.alpha_bound, c=c,
                               init=init, max_iter=50000, tol=1e-9)
        result = run_first_order(p, cfg, reference=nonconv3.point)
        assert result.status == "converged"
        assert np.max(result.trace.err_x[-1]) <= 1e-6


def test_criterion_06_spectral_lemma(path2, affine2, nonconv3, nonconv3_cbar):
    with criterion(6, "B has positive real parts and the 1/alpha eigenspace"):
        alpha = 0.05
        cases = [(path2, 0.0), (affine2, 0.0), (nonconv3, 2.0 * nonconv3_cbar)]
        for solved, c in cases:
            p = solved.problem
            state = solved.point.as_state(p)
            assert np.min(np.linalg.eigvalsh(hess_aug_lagrangian(p, state, c))) > 0
            cert = iteration_matrix(p, solved.point, alpha, c)
            assert cert.verdict
            assert np.min(cert.eigenvalues.real) > 0
            count = int(np.sum(np.abs(cert.eigenvalues - 1.0 / alpha) <= 1e-8))
            # multiplicity = dim Null(S' lifted) = n (num_pairs - N + 1); on
            # the two-agent fixtures this is the stated count n
            flat_dim = p.n * (p.num_pairs - p.N + 1)
            assert count == flat_dim
            if p.N == 2:
                assert count == p.n
            else:
                print(
                    f"  note: {solved.name} has dim Null(S') = {flat_dim} "
                    f"(= {flat_dim // p.n} n), the full 1/alpha eigenspace"
                )


def test_criterion_07_jacobian_arbiter(all_solved):
    with criterion(7, "finite-difference Jacobian equals I - alpha B"):
        alpha = 0.1
        for solved in all_solved:
            p = solved.problem
            fd = numeric_iteration_jacobian(p, solved.point, alpha, 0.0)
            B = iteration_matrix(p, solved.point, alpha, 0.0).matrix
            analytic = np.eye(fd.shape[0]) - alpha * B
            assert np.max(np.abs(fd - analytic)) <= 1e-6


def test_criterion_08_a3_rate_and_schedule(path2):
    with criterion(8, "a3 matches the rate bound and the schedule converges"):
        p = path2.problem
        rate = rate_bound_mom(mom_spectrum(p, path2.point), 4.0).rate_bound
        init = perturbed(path2.point, p, 0.1, 1)
        constant = MoMConfig(init=init, c0=4.0, beta=2.0, c_max=4.0,
                             eps0=1e-3, gamma=0.2, outer_max_iter=18, tol=0.0)
        result = run_a3(p, constant, reference=path2.point)
        e = result.trace.err_eta
        ratios = e[1:] / e[:-1]
        assert np.max(ratios[len(ratios) // 2 :]) <= rate + 0.05
        scheduled = MoMConfig(init=perturbed(path2.point, p, 0.1, 2),
                              c0=1.0, beta=2.0, c_max=16.0,
                              outer_max_iter=30, tol=1e-9)
        result = run_a3(p, scheduled, reference=path2.point)
        assert result.status == "converged"
        below = np.nonzero(
            (np.max(result.trace.err_x, axis=1) <= 1e-6)
            & (result.trace.err_mu <= 1e-6)
        )[0]
        assert below.size and result.trace.k[below[0]] < 30


def test_criterion_09_inner_solver_oracle(path2, affine2):
    with criterion(9, "inner solver matches the closed-form linear solve"):
        for solved in (path2, affine2):
            p = solved.problem
            rng = np.random.default_rng(4)
            mu = rng.uniform(-1, 1, p.m)
            lam = rng.uniform(-1, 1, (p.num_pairs, p.n))
            for c in (1.0, 4.0, 16.0):
                eps = 1e-6
                cfg = MoMConfig(init=p.zero_state(), inner_max_iter=200000)
                x, _, ok, _ = inner_minimize(
                    p, np.zeros((p.N, p.n)), mu, lam, c, cfg, eps_k=eps
                )
                assert ok
                zero = MultiplierState(np.zeros((p.N, p.n)), mu, lam)
                H = hess_aug_lagrangian(p, zero, c)
                x_exact = np.linalg.solve(H, -grad_aug_lagrangian(p, zero, c))
                lam_min = float(np.min(np.linalg.eigvalsh(H)))
                assert np.linalg.norm(x.ravel() - x_exact) <= eps / lam_min + 1e-12


def test_criterion_10_locality_byte_identical(all_solved, nonconv3_cbar, tmp_path):
    with criterion(10, "message-passing traces byte-identical to array runs"):
        for solved in all_solved:
            p = solved.problem
            init = perturbed(solved.point, p, 0.05, 3)
            c2 = 1.0 if solved.name != "tp-nonconv3" else 2.0 * nonconv3_cbar
            first_order = [
                FirstOrderConfig(algorithm="a1", alpha=1e-3, init=init,
                                 max_iter=100, tol=0.0),
                FirstOrderConfig(algorithm="a2", alpha=1e-3, c=c2, init=init,
                                 max_iter=100, tol=0.0),
            ]
            for cfg in first_order:
                paths = {}
                for engine in ("arrays", "message"):
                    run = run_first_order(p, cfg, reference=solved.point, engine=engine)
                    out = tmp_path / f"{solved.name}-{cfg.algorithm}-{engine}.csv"
                    write_trace_csv(run.trace, out)
                    paths[engine] = out
                assert paths["arrays"].read_bytes() == paths["message"].read_bytes()
            c0 = 1.0 if solved.name != "tp-nonconv3" else 8.0
            mom = MoMConfig(init=init, c0=c0, beta=2.0, c_max=16.0,
                            outer_max_iter=6, tol=0.0)
            paths = {}
            for engine in ("arrays", "message"):
                run = run_a3(p, mom, reference=solved.point, engine=engine)
                out = tmp_path / f"{solved.name}-a3-{engine}.csv"
                write_trace_csv(run.trace, out)
                paths[engine] = out
            assert paths["arrays"].read_bytes() == paths["message"].read_bytes()


def test_criterion_11_derivative_hygiene(all_solved):
    with criterion(11, "gradient checks and Hessians within 1e-5"):
        for solved in all_solved:
            p = solved.problem
            assert check_gradients(p, samples=5, seed=0).max_rel_error <= 1e-5
            rng = np.random.default_rng(6)
            state = MultiplierState(
                x=rng.uniform(-1, 1, (p.N, p.n)),
                mu=rng.uniform(-1, 1, p.m),
                lam=rng.uniform(-1, 1, (p.num_pairs, p.n)),
            )
            for c in (0.0, 1.0, 10.0):
                def grad(xflat, c=c):
                    return grad_aug_lagrangian(
                        p, state.with_x(xflat.reshape(p.N, p.n)), c
                    )

                fd = central_difference_jacobian(grad, state.x.ravel())
                H = hess_aug_lagrangian(p, state, c)
                assert np.max(np.abs(H - fd)) <= 1e-5 * (1 + np.max(np.abs(fd)))


def test_criterion_12_run_determinism(tmp_path):
    with criterion(12, "repeated runs emit byte-identical artifacts"):
        cfg = {
            "seed": 7,
            "problem": {"name": "tp-path2"},
            "algorithm": "a1",
            "alpha": 0.15,
            "max_iter": 4000,
            "tol": 1e-8,
            "init": {"mode": "oracle-perturb", "radius": 0.1},
            "certify": True,
        }
        config_path = tmp_path / "exp.yaml"
        config_path.write_text(yaml.safe_dump(cfg))
        for out in ("one", "two"):
            code = cli.main(
                ["run", "--config", str(config_path), "--out", str(tmp_path / out)]
            )
            assert code == 0
        for name in ("trace.csv", "certificate.json"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b
        s1 = json.loads((tmp_path / "one" / "summary.json").read_text())
        s2 = json.loads((tmp_path / "two" / "summary.json").read_text())
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert s1 == s2
