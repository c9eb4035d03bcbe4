import numpy as np
import pytest
import scipy.linalg
from conftest import (
    above_zero_tol,
    assert_cbar_crossing,
    counted_tables,
    dense_forms,
    kron_lift,
    lifted_cone,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    SingularHessianError,
    contraction_factor,
    iteration_matrix,
    least_squares_multipliers,
    minimize_penalized_newton,
    minimizer_shift_ratios,
    numeric_iteration_jacobian,
    rate_bound_sandwich,
)

from lagnet import analysis, oracle
from lagnet.analysis import (
    Assumption2Error,
    CertificationError,
    HypothesisViolatedError,
    NotStationaryError,
    certify_step_size,
    estimate_linear_rate,
    find_cbar,
    mom_spectrum,
    rate_bound_mom,
    tangent_cone_basis,
    verify_minimizer,
)
from lagnet.fixtures import FIXTURES, get_fixture
from lagnet.netgraph import from_edges
from lagnet.problem import (
    MultiplierState,
    StationaryPoint,
    evaluate,
    hess_aug_lagrangian,
    lift_problem,
    polynomial_agent,
)
from lagnet.solvers import FirstOrderConfig, run_first_order


# --- iteration matrix B --------------------------------------------------------


def test_B_hand_assembly_path2(path2):
    p = path2.problem
    pt = path2.point
    B = iteration_matrix(p, pt, alpha=0.1)
    expected = np.array(
        [
            [1, 0, 1, 1, -1],
            [0, 1, 0, -1, 1],
            [-1, 0, 0, 0, 0],
            [-1, 1, 0, 5, 5],
            [1, -1, 0, 5, 5],
        ],
        dtype=float,
    )
    assert certify_step_size(p, pt).matrix == "B"
    assert np.allclose(B.matrix, expected, atol=1e-12)
    assert B.verdict
    assert np.min(B.eigenvalues.real) > 0


def test_B_has_one_over_alpha_eigenvalues(path2):
    # eigenspace (0, 0, Null(S')): its dimension fixes the multiplicity
    p = path2.problem
    pt = path2.point
    alpha = 0.1
    B = iteration_matrix(p, pt, alpha=alpha)
    count = int(np.sum(np.abs(B.eigenvalues - 1.0 / alpha) < 1e-10))
    assert count == p.n * (p.num_pairs - p.N + 1) == 1
    w = np.ones(2) / np.sqrt(2)  # Null(S') basis for the single edge
    vec = np.concatenate([np.zeros(3), w])
    assert np.linalg.norm(B.matrix @ vec - vec / alpha) <= 1e-12


def test_B_negative_curvature_fails_verdict():
    # two agents with f_i = -x^2/2: the Lagrangian Hessian is -I at the
    # stationary point x* = 0
    agents = (
        polynomial_agent([[-0.5, [2]]], 1),
        polynomial_agent([[-0.5, [2]]], 1),
    )
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    pt = StationaryPoint(np.zeros(1), np.zeros(0), np.zeros((2, 1)))
    assert not iteration_matrix(p, pt, alpha=0.1).verdict


def test_B_rejects_non_stationary_point(path2):
    p, pt = path2.problem, path2.point
    with pytest.raises(NotStationaryError):
        iteration_matrix(p, StationaryPoint(pt.x + 0.1, pt.mu, pt.lam), 0.1)


# --- step-size certification ----------------------------------------------------


def assert_brackets_stability(p, point, alpha, c=0.0):
    # the reference contraction factor crosses 1 within 1e-9 of alpha
    assert contraction_factor(p, point, (1 - 1e-9) * alpha, c) < 1.0
    assert contraction_factor(p, point, (1 + 1e-9) * alpha, c) >= 1.0


def test_certified_alpha_brackets_stability(path2):
    cert = certify_step_size(path2.problem, path2.point)
    assert cert.alpha_bound is not None
    assert_brackets_stability(path2.problem, path2.point, cert.alpha_bound)


def test_certified_alpha_matches_closed_form(path2):
    # with eigenvalues beta, the exact boundary is min 2 Re(beta)/|beta|^2;
    # doubling every beta halves it (spectral scaling)
    cert = certify_step_size(path2.problem, path2.point)
    closed = min(2 * b.real / abs(b) ** 2 for b in cert.eigenvalues)
    assert cert.alpha_bound == pytest.approx(closed, rel=1e-15)
    doubled = min(2 * (2 * b).real / abs(2 * b) ** 2 for b in cert.eigenvalues)
    assert doubled == pytest.approx(closed / 2, rel=1e-12)


def test_certified_alpha_closed_loop(path2):
    p = path2.problem
    cert = certify_step_size(p, path2.point)
    rng = np.random.default_rng(0)
    init = MultiplierState(
        x=path2.point.lifted_x(p.N) + rng.uniform(-0.1, 0.1, (p.N, p.n)),
        mu=path2.point.mu + rng.uniform(-0.1, 0.1, p.m),
        lam=path2.point.lam + rng.uniform(-0.1, 0.1, (p.num_pairs, p.n)),
    )
    ok = run_first_order(
        p,
        FirstOrderConfig(algorithm="a1", alpha=0.9 * cert.alpha_bound, init=init,
                         max_iter=50000, tol=1e-8),
        reference=path2.point,
    )
    assert ok.status == "converged"
    bad = run_first_order(
        p,
        FirstOrderConfig(algorithm="a1", alpha=1.5 * cert.alpha_bound, init=init,
                         max_iter=50000, tol=1e-8),
        reference=path2.point,
    )
    assert bad.status == "diverged"


def test_a_step_bound_above_2_is_exact():
    # two agents f = 0.05 x^2 -+ 0.1 x on an edge of weight 0.03: the
    # eigenvalues of B are 0.1 and 0.05 +- 0.0332i, so the supremum of the
    # stable step sizes, min 2 Re(beta) / |beta|^2, is 20
    agents = tuple(polynomial_agent([[0.05, [2]], [s, [1]]], 1) for s in (-0.1, 0.1))
    p = lift_problem(agents, from_edges(2, [(0, 1, 0.03)]))
    point = oracle.lifted_multipliers(p, oracle.solve_centralized(p))
    cert = certify_step_size(p, point)
    assert cert.alpha_bound == pytest.approx(20.0, rel=1e-12)
    assert_brackets_stability(p, point, cert.alpha_bound)


def _stiff_pair(k: float):
    """Two agents f = k x^2 / 2 -+ k x on one edge of weight 1e4, with the
    stationary point x* = 0 built by hand: B has the eigenvalues k and about
    k / 2 +- 2e4 i, so the supremum of the stable steps is about k / 4e8."""
    agents = tuple(polynomial_agent([[0.5 * k, [2]], [s * k, [1]]], 1) for s in (-1.0, 1.0))
    p = lift_problem(agents, from_edges(2, [(0, 1, 1e4)]))
    lam = p.range_basis.min_norm_solve(-evaluate(p, np.zeros((p.N, p.n))).grad_f)
    return p, StationaryPoint(np.zeros(1), np.zeros(0), lam)


def test_a_stiff_step_bound_is_not_overstated():
    # below the supremum, 1 - rho is below 2^-52 here, so a float test
    # max|1 - alpha beta| < 1 cannot tell stable steps from unstable ones
    cert = certify_step_size(*_stiff_pair(1e-3))
    assert cert.alpha_bound <= 2.5e-12
    assert cert.alpha_bound == pytest.approx(2.5e-12, rel=1e-8)


def test_a_step_bound_below_the_floor_fails():
    # the supremum 2.5e-13 lies below 2^-39 = 1.82e-12
    with pytest.raises(CertificationError, match=r"= 2\.500e-13, is not above the floor "
                                                 r"2\^-39 = 1\.819e-12$"):
        certify_step_size(*_stiff_pair(1e-4))


def test_certification_failure_blockwise_indefinite(nonconv3):
    with pytest.raises(CertificationError):
        certify_step_size(nonconv3.problem, nonconv3.point, c=0.0)


def test_certification_succeeds_above_cbar(nonconv3):
    p = nonconv3.problem
    c_bar = find_cbar(p, nonconv3.point)
    cert = certify_step_size(p, nonconv3.point, c=1.5 * c_bar)
    assert cert.alpha_bound > 0
    assert np.min(cert.eigenvalues.real) > 0


# --- penalty threshold ------------------------------------------------------------


def test_cbar_zero_for_path2(path2):
    assert find_cbar(path2.problem, path2.point) == 0.0


def test_cbar_finite_and_monotone_nonconv3(nonconv3):
    p = nonconv3.problem
    pt = nonconv3.point
    c_bar = find_cbar(p, pt)
    assert c_bar > 0
    state = pt.as_state(p)

    def min_eig(c):
        return np.min(np.linalg.eigvalsh(hess_aug_lagrangian(p, state, c)))

    assert min_eig(c_bar * (1 + 1e-7)) > 0
    assert min_eig(c_bar / 1.1) <= 0
    grid = [0.0, 0.5 * c_bar, c_bar, 2 * c_bar, 4 * c_bar, 10 * c_bar]
    values = [min_eig(c) for c in grid]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] > 0


def test_cbar_of_a_singular_block_is_zero():
    # f_2 = 0.3 x is linear, so hess L_0 = diag(2, 0) is only semidefinite;
    # det hess L_c = 2c + c^2 (1 - 1) > 0 for every c > 0
    agents = (polynomial_agent([[1.0, [2]], [0.3, [1]]], 1), polynomial_agent([[-0.3, [1]]], 1))
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    point = oracle.lifted_multipliers(p, oracle.solve_centralized(p, seed=0))
    assert not verify_minimizer(p, point.x, point.mu).blockwise_pd
    assert 0.0 <= find_cbar(p, point) <= 1e-15
    state = point.as_state(p)
    assert np.min(np.linalg.eigvalsh(hess_aug_lagrangian(p, state, 1e-6))) > 0


def test_cbar_requires_tangent_cone_positivity(nonconv3):
    # negate the objectives: the tangent-cone curvature flips sign
    neg = []
    for terms, h in (
        ([[-0.25, [4, 0]], [-0.25, [0, 4]]],
         [[1.0, [2, 0]], [1.0, [0, 2]], [-1.0, [0, 0]]]),
        ([[-0.5, [2, 0]], [2.0, [1, 0]], [-2.0, [0, 0]], [-0.5, [0, 2]]], None),
        ([[-0.5, [2, 0]], [2.0, [1, 0]], [-2.0, [0, 0]], [0.75, [0, 2]]], None),
    ):
        neg.append(polynomial_agent(terms, 2, h_terms=h))
    p = lift_problem(tuple(neg), from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    x_star = np.array([1.0, 0.0])
    mu, lam, res = least_squares_multipliers(p, x_star)
    assert res <= 1e-10
    point = StationaryPoint(x_star, mu, lam)
    assert not verify_minimizer(p, x_star, mu).tangent_cone_pd
    with pytest.raises(HypothesisViolatedError):
        find_cbar(p, point)


# --- tangent cone ------------------------------------------------------------------


def _grad_h(p, x_star):
    """The grad h rows at the tiled x*."""
    return evaluate(p, np.tile(np.asarray(x_star, dtype=float), (p.N, 1))).grad_h


def test_tangent_cone_affine2_is_zero(affine2):
    V = tangent_cone_basis(affine2.problem, _grad_h(affine2.problem, affine2.solution.x_star))
    assert V.shape == (2, 0)


def test_tangent_cone_path2_is_zero(path2):
    V = tangent_cone_basis(path2.problem, _grad_h(path2.problem, path2.solution.x_star))
    assert V.shape == (1, 0)


def test_tangent_cone_nonconv3(nonconv3):
    p = nonconv3.problem
    V = tangent_cone_basis(p, _grad_h(p, nonconv3.solution.x_star))
    assert V.shape == (p.n, p.n - p.m) == (2, 1)
    grad_h = p.agents[0].values(nonconv3.solution.x_star)[3]
    assert abs(grad_h @ V[:, 0]) <= 1e-12
    z = kron_lift(np.ones((p.N, 1)), p.n) @ V[:, 0]  # the lifted tangent vector 1 (x) v
    assert np.linalg.norm(dense_forms(p).S_lift @ z) <= 1e-12


def test_tangent_cone_rejects_dependent_constraints():
    same = [[1.0, [1, 0]], [1.0, [0, 1]], [-1.0, [0, 0]]]
    double = [[2.0, [1, 0]], [2.0, [0, 1]], [-2.0, [0, 0]]]
    agents = (
        polynomial_agent([[0.5, [2, 0]], [0.5, [0, 2]]], 2, h_terms=same),
        polynomial_agent([[0.5, [2, 0]], [0.5, [0, 2]]], 2, h_terms=double),
    )
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    x_star = np.array([0.5, 0.5])
    mu, lam, res = least_squares_multipliers(p, x_star)
    assert res <= 1e-10
    with pytest.raises(Assumption2Error):
        find_cbar(p, StationaryPoint(x_star, mu, lam))


def _rank_deficient(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 9, size=2)
    rank = rng.integers(0, min(rows, cols) + 1)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


NULL_SPACE_CASES = [_rank_deficient(seed) for seed in range(40)] + [
    np.zeros((3, 4)),
    np.zeros((0, 3)),
    np.zeros((3, 0)),
    np.eye(3),
]


@pytest.mark.parametrize("A", NULL_SPACE_CASES)
def test_null_space_matches_scipy(A):
    Q = analysis._null_space(A, rcond=analysis.EIG_ZERO_RTOL)
    expected = scipy.linalg.null_space(A, rcond=analysis.EIG_ZERO_RTOL)
    assert Q.shape == expected.shape
    assert np.allclose(Q @ Q.T, expected @ expected.T, rtol=0, atol=1e-12)


def test_the_report_and_a_certificate_evaluate_their_point_once(nonconv3):
    # the report takes sigma_min, the cone basis, the blocks and the margin
    # from one stacked and one Hessian pass; a certificate reads the
    # evaluation of its KKT test
    p, tables = counted_tables(nonconv3.problem)
    report = verify_minimizer(p, nonconv3.point.x, nonconv3.point.mu)
    assert report.tangent_cone_pd
    assert len(tables["stacked"].outputs) == len(tables["hessian"].outputs) == 1
    tables["stacked"].outputs.clear()
    certify_step_size(p, nonconv3.point, c=1.0)
    assert len(tables["stacked"].outputs) == 1


def test_second_order_margins(path2, nonconv3):
    vacuous = verify_minimizer(path2.problem, path2.point.x, path2.point.mu)
    assert vacuous.tangent_cone_pd and vacuous.tangent_cone_margin == np.inf
    report = verify_minimizer(nonconv3.problem, nonconv3.point.x, nonconv3.point.mu)
    assert report.tangent_cone_pd
    assert report.tangent_cone_margin == pytest.approx(0.5 / 3, rel=1e-9)


# --- method-of-multipliers rate machinery ---------------------------------------


def test_rate_bound_path2_value(path2):
    cert = rate_bound_mom(mom_spectrum(path2.problem, path2.point), 4.0)
    assert 0 <= cert.rate_bound < 1
    # effective eigenvalues of the multiplier map, from the eigenvalues
    # (5 +/- sqrt(17))/2 of the reduced constraint-normal matrix
    e = np.sort(cert.effective_eigenvalues[np.abs(cert.effective_eigenvalues) > 1e-12])
    expected = np.sort([2.0 / (5.0 + np.sqrt(17.0)), 2.0 / (5.0 - np.sqrt(17.0))])
    assert np.allclose(e, expected, atol=1e-10)
    assert cert.rate_bound == pytest.approx(max(expected / (expected + 4.0)), abs=1e-12)
    assert cert.admissible


def test_rate_bound_decreases_in_c(path2):
    spectrum = mom_spectrum(path2.problem, path2.point)
    rates = [rate_bound_mom(spectrum, c).rate_bound for c in (2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_effective_eigenvalues_consistent_across_c(path2):
    # sigma(c) = e/(e + c) with c-independent e: predict sigma at c = 16
    # from the effective eigenvalues of the certificate at c = 8, and observe
    # it on the N_c reference without its zeros (T's Null(S') directions)
    p, pt = path2.problem, path2.point
    e8 = rate_bound_mom(mom_spectrum(p, pt), 8.0).effective_eigenvalues
    predicted = np.sort(e8 / (e8 + 16.0))
    sigma = rate_bound_sandwich(p, pt, 16.0).eigenvalues.real
    observed = np.sort(sigma[np.abs(sigma) > 1e-9])
    assert np.allclose(predicted, observed, atol=1e-8)


def _random_quartic_problem(seed: int, N: int, n: int):
    """A problem with a known stationary point x* in [-1, 1]^n: agent i has
    f_i = b_i'x + x'A_i x / 2 + sum_j q_ij x_j^4 with A_i of either sign, and
    one random agent the constraint h = g'x + x'Qx / 2 - h(x*) with
    multiplier psi.  A_0 gains a multiple of the tangent-cone projector, so
    that the cone curvature of sum_i hess f_i + psi Q at x* is at least 0.1,
    and b_0 makes x* stationary.  Agents on a ring (a path for N = 2) with
    directed weights drawn apart in [0.5, 1.5]; returns the problem and its
    lifted stationary point."""
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=int)

    def symmetric(lo, hi):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T

    def quadratic(A):
        return [[0.5 * A[j, k] if j == k else A[j, k], (eye[j] + eye[k]).tolist()]
                for j in range(n) for k in range(j, n)]

    x_star = rng.uniform(-1.0, 1.0, n)
    A = [symmetric(-1.0, 2.0) for _ in range(N)]
    q = rng.uniform(-0.5, 0.5, (N, n))
    b = rng.uniform(-1.0, 1.0, (N, n))
    owner, psi = int(rng.integers(N)), rng.uniform(-1.0, 1.0)
    g, Qh = rng.standard_normal(n), symmetric(-1.0, 1.0)
    grad_h = g + Qh @ x_star
    V = scipy.linalg.null_space(grad_h[None, :])
    if V.shape[1]:
        H = sum(A) + np.diag(12.0 * q.sum(axis=0) * x_star**2) + psi * Qh
        A[0] = A[0] + max(0.0, 0.1 - np.min(np.linalg.eigvalsh(V.T @ H @ V))) * V @ V.T
    b[0] -= (sum(a @ x_star for a in A) + 4.0 * q.sum(axis=0) * x_star**3 + b.sum(axis=0)
             + psi * grad_h)
    agents = []
    for i in range(N):
        f = ([[b[i, j], eye[j].tolist()] for j in range(n)] + quadratic(A[i])
             + [[q[i, j], (4 * eye[j]).tolist()] for j in range(n)])
        h = None
        if i == owner:
            h = ([[g[j], eye[j].tolist()] for j in range(n)] + quadratic(Qh)
                 + [[-(g @ x_star + 0.5 * x_star @ Qh @ x_star), [0] * n]])
        agents.append(polynomial_agent(f, n, h))
    pairs = [(i, (i + 1) % N) for i in range(N if N > 2 else 1)]
    edges = [(a, c, rng.uniform(0.5, 1.5)) for i, j in pairs for a, c in ((i, j), (j, i))]
    p = lift_problem(tuple(agents), from_edges(N, edges, symmetric_weights=False))
    sol = oracle.OracleSolution(x_star=x_star, psi_star=np.array([psi]), objective=0.0,
                                kkt_residual_norm=0.0, all_roots=())
    return p, oracle.lifted_multipliers(p, sol)


def _effective(cert, c: float) -> np.ndarray:
    """The reference certificate's effective eigenvalues without the zeros of
    the Null(S') directions, which T maps to sigma = 0 (|e| <= 1e-9 c)."""
    e = cert.effective_eigenvalues
    return np.sort(e[np.abs(e) > 1e-9 * c])


def _solved(problem):
    """(problem, lifted stationary point) of a fixture by name, or of
    :func:`_random_quartic_problem` for a (seed, N, n) triple."""
    if isinstance(problem, str):
        fx = get_fixture(problem)
        sol = oracle.solve_centralized(fx.problem, x_init=fx.oracle_init, seed=0)
        return fx.problem, oracle.lifted_multipliers(fx.problem, sol)
    return _random_quartic_problem(*problem)


QUARTIC_PROBLEMS = dict(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 5), n=st.integers(1, 3))


@settings(max_examples=50)
@given(**QUARTIC_PROBLEMS)
@example(seed=1999580536, N=5, n=1)  # c = 64353: min Re eig / ||Bq||_2 = 2.4e-11
def test_certified_alpha_brackets_stability_on_quartic_problems(seed, N, n):
    # every certified bound brackets the reference crossing of rho = 1; a
    # spectrum the zero test rejects has no bound to bracket
    p, point = _random_quartic_problem(seed, N, n)
    c = 1.7 * max(find_cbar(p, point), 1.0)
    try:
        cert = certify_step_size(p, point, c)
    except CertificationError as err:
        Bq = analysis._quotient_matrix(p, point, c)
        assert not above_zero_tol(np.min(err.eigenvalues.real), Bq, floor=1.0)
        return
    assert_brackets_stability(p, point, cert.alpha_bound, c)


@settings(max_examples=50)
@given(problem=st.tuples(*QUARTIC_PROBLEMS.values()))
@example(problem="tp-path2")  # e = 2 / (5 +/- sqrt(17)), the same at every c
def test_effective_eigenvalues_do_not_depend_on_the_penalty(problem):
    # e = 1/mu for the eigenvalues mu of G'H_0^{-1}G, so the e that the N_c
    # reference reads at one penalty predict its rate_bound = max |e / (c + e)|
    # at another
    p, point = _solved(problem)
    c1, c2 = (k * max(find_cbar(p, point), 1.0) for k in (1.7, 5.0))
    one, two = rate_bound_sandwich(p, point, c1), rate_bound_sandwich(p, point, c2)
    e1, e2 = _effective(one, c1), _effective(two, c2)
    assert e1.shape == e2.shape
    assert np.allclose(e1, e2, rtol=1e-6, atol=0.0)
    assert two.rate_bound == pytest.approx(np.max(np.abs(e1 / (c2 + e1)), initial=0.0),
                                           rel=0.0, abs=1e-8)
    assert one.rate_bound == pytest.approx(np.max(np.abs(e2 / (c1 + e2)), initial=0.0),
                                           rel=0.0, abs=1e-8)


@settings(max_examples=50)
@given(**QUARTIC_PROBLEMS)
def test_cbar_and_admissibility_follow_the_effective_eigenvalues(seed, N, n):
    # hess L_c is singular exactly at c = -e: c_bar = max(0, -min e) over the
    # N_c reference's e, and the certificate's admissibility test is c > 2 c_bar
    p, point = _random_quartic_problem(seed, N, n)
    c_bar = find_cbar(p, point)
    c1 = 1.7 * max(c_bar, 1.0)
    t = max(0.0, -np.min(_effective(rate_bound_sandwich(p, point, c1), c1), initial=0.0))
    assert abs(c_bar - t) <= 1e-9 * max(c_bar, 1.0)
    spectrum = mom_spectrum(p, point)
    for c in (c1, 5.0 * max(c_bar, 1.0)) + ((1.5 * t, 2.5 * t) if t else ()):
        assert rate_bound_mom(spectrum, c).admissible == (c > 2.0 * t)


@settings(max_examples=50)
@given(**QUARTIC_PROBLEMS, k=st.sampled_from([0.5, 1.7, 5.0, 20.0]))
def test_rate_bound_matches_the_n_c_reference(seed, N, n, k):
    # one penalty-free pencil against the per-penalty N_c sandwich, wherever
    # the sandwich issues a certificate
    p, point = _random_quartic_problem(seed, N, n)
    c_bar = find_cbar(p, point)
    spectrum = mom_spectrum(p, point)
    assert spectrum.c_bar == c_bar
    c = k * max(c_bar, 1.0)
    cert = rate_bound_mom(spectrum, c)
    assert cert.admissible == (c > 2.0 * c_bar)
    try:
        reference = rate_bound_sandwich(p, point, c)
    except SingularHessianError:
        return
    assert cert.rate_bound == pytest.approx(reference.rate_bound, rel=1e-10, abs=0.0)


def test_rate_bound_nonconv3_needs_admissible_c(nonconv3):
    spectrum = mom_spectrum(nonconv3.problem, nonconv3.point)
    low = rate_bound_mom(spectrum, 4.0)
    assert not low.verdict  # rate above one or inadmissible penalty
    high = rate_bound_mom(spectrum, 16.0)
    assert high.verdict
    assert high.rate_bound < 1
    assert np.min(high.effective_eigenvalues) < 0  # indefinite directions persist


def test_multiplier_iteration_exactly_linear_on_quadratic(path2):
    # quadratic objectives and affine constraints: eta' - eta* =
    # T N_c T (eta - eta*); along the dominant eigenvector the observed
    # ratio equals the rate bound
    p, pt = path2.problem, path2.point
    c = 4.0
    cert = rate_bound_mom(mom_spectrum(p, pt), c)
    Hc = hess_aug_lagrangian(p, pt.as_state(p), c)
    from lagnet.problem import constraint_jacobian, evaluate

    dense = dense_forms(p)
    Gh = constraint_jacobian(p, evaluate(p, pt.lifted_x(p.N)).grad_h)
    G = np.hstack([Gh, dense.S_lift.T])
    Nc = np.eye(G.shape[1]) - c * G.T @ np.linalg.solve(Hc, G)
    T = np.eye(G.shape[1])
    T[p.m :, p.m :] = np.eye(p.num_pairs * p.n) - dense.J_lift
    Nt = T @ Nc @ T
    w, V = np.linalg.eigh(Nt)
    v = V[:, np.argmax(np.abs(w))]
    eta = np.concatenate([pt.mu, pt.lam.ravel()]) + 1e-3 * v
    errs = []
    x = pt.lifted_x(p.N)
    for _ in range(6):
        mu, lam = eta[: p.m], eta[p.m :].reshape(p.num_pairs, p.n)
        x = minimize_penalized_newton(p, mu, lam, c, x)
        h_t = np.concatenate([evaluate(p, x).h, dense.S_lift @ x.ravel()])
        eta = T @ eta + c * h_t
        err_mu = eta[: p.m] - pt.mu
        err_lam = (eta[p.m :] - pt.lam.ravel()).reshape(p.num_pairs, p.n)
        err_lam = err_lam - dense.J @ err_lam
        errs.append(float(np.sqrt(np.sum(err_mu**2) + np.sum(err_lam**2))))
    ratios = np.array(errs[1:]) / np.array(errs[:-1])
    assert np.allclose(ratios, cert.rate_bound, atol=1e-3)


# --- distance to the multiplier set ------------------------------------------------


def _trace_dist(p, lam, lam_star) -> float:
    """dist_lambda of the start row of an a1 trace at lam, with reference
    multiplier lam*."""
    x = np.zeros((p.N, p.n))
    init = MultiplierState(x, np.zeros(p.m), np.asarray(lam, dtype=float))
    reference = StationaryPoint(np.zeros(p.n), np.zeros(p.m), np.asarray(lam_star, dtype=float))
    cfg = FirstOrderConfig(algorithm="a1", alpha=0.1, init=init, max_iter=0)
    return float(run_first_order(p, cfg, reference=reference).trace.dist_lambda[0])


def test_dist_examples(path2):
    p, lam_star = path2.problem, path2.point.lam
    assert _trace_dist(p, lam_star + 5.0, lam_star) <= 1e-12
    assert _trace_dist(p, np.zeros((2, 1)), lam_star) == pytest.approx(
        np.linalg.norm([0.75, -0.75])
    )
    assert _trace_dist(p, lam_star, lam_star) == 0.0


def test_dist_without_edges_is_zero():
    p = lift_problem((polynomial_agent([[0.5, [2, 0]], [0.5, [0, 2]]], 2),), from_edges(1, []))
    assert p.num_pairs == 0
    assert _trace_dist(p, np.zeros((0, 2)), np.zeros((0, 2))) == 0.0


# --- empirical rate fits --------------------------------------------------------


def test_rate_fit_exact_geometric():
    errs = 0.5 ** np.arange(60)
    fit = estimate_linear_rate(errs)
    assert fit.contraction == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_sublinear_has_lower_quality():
    errs = 1.0 / np.arange(1, 200)
    geometric = estimate_linear_rate(0.5 ** np.arange(200))
    sublinear = estimate_linear_rate(errs)
    assert sublinear.r_squared < geometric.r_squared


def test_rate_fit_truncates_at_zero_floor():
    errs = np.concatenate([0.5 ** np.arange(40), np.zeros(10)])
    fit = estimate_linear_rate(errs)
    assert fit.contraction == pytest.approx(0.5, abs=1e-6)


def test_rate_fit_needs_enough_records():
    with pytest.raises(ValueError):
        estimate_linear_rate(0.5 ** np.arange(10))


# --- Jacobian arbiter ------------------------------------------------------------


@pytest.mark.parametrize("c", [0.0, 1.0])
def test_numeric_jacobian_matches_I_minus_alpha_B(path2, c):
    p, pt = path2.problem, path2.point
    alpha = 0.1
    fd = numeric_iteration_jacobian(p, pt, alpha, c)
    analytic = np.eye(fd.shape[0]) - alpha * iteration_matrix(p, pt, alpha, c).matrix
    assert np.max(np.abs(fd - analytic)) <= 1e-6


# --- multiplier uniqueness and structure ------------------------------------------


def test_least_squares_multipliers_match_oracle(all_solved):
    for solved in all_solved:
        mu, lam, res = least_squares_multipliers(solved.problem, solved.solution.x_star)
        assert res <= 1e-10
        assert np.linalg.norm(mu - solved.solution.psi_star) <= 1e-8
        assert np.linalg.norm(lam - solved.point.lam) <= 1e-8


def test_constraint_matrix_nullspace_has_zero_mu_component(all_solved):
    import scipy.linalg

    from lagnet.problem import constraint_jacobian, evaluate

    for solved in all_solved:
        p = solved.problem
        Gh = constraint_jacobian(p, evaluate(p, solved.point.lifted_x(p.N)).grad_h)
        A = np.hstack([Gh, dense_forms(p).S_lift.T])
        basis = scipy.linalg.null_space(A, rcond=1e-10)
        assert basis.shape[1] == p.n * (p.num_pairs - p.N + 1)
        if p.m:
            assert np.max(np.abs(basis[: p.m, :])) <= 1e-10


def test_lambda_star_orthogonal_to_nullspace(all_solved):
    for solved in all_solved:
        p = solved.problem
        J = dense_forms(p).J
        assert np.max(np.abs(J @ solved.point.lam)) <= 1e-10


# --- implicit-minimizer shift sampling ---------------------------------------------


def test_minimizer_shift_ratio_bounded_and_stable(path2, nonconv3):
    # sample strictly inside the positive-definite region: at the bisected
    # threshold itself ||hess L_c^{-1}|| blows up and so does the constant
    for solved in (path2, nonconv3):
        c_bar = find_cbar(solved.problem, solved.point)
        base = max(1.25 * c_bar, 1.0)
        ratios = minimizer_shift_ratios(
            solved.problem, solved.point, [base, 2 * base, 4 * base], samples=100
        )
        values = np.array(list(ratios.values()))
        assert np.all(np.isfinite(values))
        assert np.max(values) > 0
        assert np.max(values) / np.min(values) <= 4.0


# --- certificate shortcuts against their full-decomposition references -------------


def _zero_tol_matrix(kind: str, rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.standard_normal((rows, cols))
    if kind == "rank-1":
        return np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    if kind == "orthonormal":  # equal singular values: the lower bound is tight
        Q = np.linalg.qr(rng.standard_normal((max(rows, cols), min(rows, cols))))[0]
        return Q if rows >= cols else Q.T
    return np.zeros((rows, cols))


def _zero_tol_values(B: np.ndarray, floor: float) -> list[float]:
    """Values at, and one ulp and 1e-13 either side of, both bracket edges
    and the exact threshold, plus a few far from all three."""
    fro = np.linalg.norm(B)
    thresholds = [
        1e-10 * max(fro, floor) * (1 + 1e-12),
        1e-10 * max(fro / np.sqrt(min(B.shape)), floor) * (1 - 1e-12),
        1e-10 * max(np.linalg.norm(B, 2), floor),
    ]
    values = [-1.0, 0.0, 1.0, 1e-300]
    for t in thresholds:
        values += [t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                   t * (1 + 1e-13), t * (1 - 1e-13)]
    return values


@settings(max_examples=150)
@given(kind=st.sampled_from(["random", "rank-1", "orthonormal", "zero"]),
       rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-9, 1.0, 1e9]), floor=st.sampled_from([0.0, 1.0]))
@example(kind="rank-1", rows=120, cols=100, seed=0, scale=1.0, floor=0.0)
@example(kind="orthonormal", rows=100, cols=120, seed=1, scale=1.0, floor=1.0)
@example(kind="random", rows=100, cols=100, seed=2, scale=1e-9, floor=1.0)
def test_zero_tol_bracket_matches_the_svd_rule(kind, rows, cols, seed, scale, floor):
    B = scale * _zero_tol_matrix(kind, rows, cols, seed)
    for value in _zero_tol_values(B, floor):
        assert analysis._above_zero_tol(value, B, floor) == above_zero_tol(value, B, floor)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_cbar_is_the_eigvalsh_crossing_on_fixtures(name):
    fx = get_fixture(name)
    sol = oracle.solve_centralized(fx.problem, x_init=fx.oracle_init, seed=0)
    point = oracle.lifted_multipliers(fx.problem, sol)
    assert_cbar_crossing(fx.problem, point, find_cbar(fx.problem, point))


def _quadratic_terms(A: np.ndarray, b: np.ndarray) -> list:
    """Term list of x'Ax / 2 + b'x for symmetric A, n = 1 or 2."""
    if len(b) == 1:
        return [[0.5 * A[0, 0], [2]], [b[0], [1]]]
    return [[0.5 * A[0, 0], [2, 0]], [A[0, 1], [1, 1]], [0.5 * A[1, 1], [0, 2]],
            [b[0], [1, 0]], [b[1], [0, 1]]]


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 4), n=st.integers(1, 2),
       constrained=st.booleans())
def test_cbar_is_the_eigvalsh_crossing_on_random_problems(seed, N, n, constrained):
    # indefinite local curvatures whose sum is positive definite: c_bar > 0
    # is typical, and tangent-cone positivity holds
    rng = np.random.default_rng(seed)
    curvatures = []
    for _ in range(N):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = Q @ np.diag(rng.uniform(-1.0, 2.0, n)) @ Q.T
        curvatures.append((A + A.T) / 2)
    shift = 0.1 - np.min(np.linalg.eigvalsh(sum(curvatures)))
    if shift > 0:
        curvatures[0] = curvatures[0] + shift * np.eye(n)
    agents = [polynomial_agent(_quadratic_terms(A, rng.uniform(-1, 1, n)), n)
              for A in curvatures]
    if constrained:  # g'x = 0.3 on agent 0
        g = rng.standard_normal(n)
        h = [[g[k], np.eye(n, dtype=int)[k].tolist()] for k in range(n)] + [[-0.3, [0] * n]]
        agents[0] = polynomial_agent(_quadratic_terms(curvatures[0], np.zeros(n)), n, h)
    pairs = [(i, i + 1) for i in range(N - 1)] + ([(N - 1, 0)] if N > 2 else [])
    edges = [(a, b, rng.uniform(0.5, 1.5)) for i, j in pairs for a, b in ((i, j), (j, i))]
    p = lift_problem(tuple(agents), from_edges(N, edges, symmetric_weights=False))
    sol = oracle.solve_centralized(p, x_init=np.zeros(n), seed=0)
    point = oracle.lifted_multipliers(p, sol)
    assert_cbar_crossing(p, point, find_cbar(p, point))


def test_cbar_below_one_half_matches_the_closed_form():
    # f_1 = x^2 - x (curvature a = 2), f_2 = -0.05 x^2 (curvature -b = -0.1)
    # with unit weights: det hess L_c = -ab + 2c(a - b) vanishes at
    # c = ab / (2(a - b)) = 0.0526...
    agents = (polynomial_agent([[1.0, [2]], [-1.0, [1]]], 1),
              polynomial_agent([[-0.05, [2]]], 1))
    p = lift_problem(agents, from_edges(2, [(0, 1, 1.0)]))
    point = oracle.lifted_multipliers(p, oracle.solve_centralized(p, seed=0))
    exact = 2.0 * 0.1 / (2.0 * (2.0 - 0.1))
    c_bar = find_cbar(p, point)
    assert c_bar == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert_cbar_crossing(p, point, c_bar)


def _random_cone_problem(seed: int, N: int, n: int, m: int):
    """A problem with x* = 0 stationary: quadratic agents with curvatures of
    either sign, and m constraints h_k = g_k'x + x'Q_k x / 2 on distinct
    agents, so that mu_k hess h_k enters the margin; a ring (a path for
    N = 2) plus random chords with directed weights drawn apart."""
    rng = np.random.default_rng(seed)

    def symmetric(lo, hi):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return Q @ np.diag(rng.uniform(lo, hi, n)) @ Q.T

    def terms(A, b):
        out = [[b[j], np.eye(n, dtype=int)[j].tolist()] for j in range(n)]
        for j in range(n):
            for k in range(j, n):
                exp = [0] * n
                exp[j] += 1
                exp[k] += 1
                out.append([0.5 * A[j, j] if j == k else A[j, k], exp])
        return out

    owners = rng.choice(N, m, replace=False).tolist()
    g = rng.standard_normal((m, n))
    psi = rng.uniform(-1.0, 1.0, m)
    b = rng.uniform(-1.0, 1.0, (N, n))
    b[0] -= b.sum(axis=0) + psi @ g  # sum_i grad f_i(0) + sum_k psi_k g_k = 0
    agents = []
    for i in range(N):
        h = None
        if i in owners:
            k = owners.index(i)
            h = terms(symmetric(-1.0, 1.0), g[k])
        agents.append(polynomial_agent(terms(symmetric(-1.0, 2.0), b[i]), n, h))
    pairs = {tuple(sorted((i, (i + 1) % N))) for i in range(N)}
    for _ in range(int(rng.integers(0, N))):
        pairs.add(tuple(sorted(rng.choice(N, 2, replace=False).tolist())))
    edges = [(a, c, rng.uniform(0.5, 1.5)) for i, j in sorted(pairs) for a, c in ((i, j), (j, i))]
    p = lift_problem(tuple(agents), from_edges(N, edges, symmetric_weights=False))
    psi = psi[np.argsort(owners)]  # multipliers in constrained-agent order
    sol = oracle.OracleSolution(x_star=np.zeros(n), psi_star=psi, objective=0.0,
                                kkt_residual_norm=0.0, all_roots=())
    return p, oracle.lifted_multipliers(p, sol)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 6), n=st.integers(1, 3),
       m=st.integers(0, 3))
def test_unlifted_cone_matches_the_lifted_reference(seed, N, n, m):
    m = min(m, n, N)
    p, point = _random_cone_problem(seed, N, n, m)
    ref = lifted_cone(p, point.x, point.mu)
    assert ref.dimension == p.n - p.m
    V = tangent_cone_basis(p, _grad_h(p, point.x))
    Z = kron_lift(np.ones((p.N, 1)) / np.sqrt(p.N), p.n) @ V
    assert V.shape == (p.n, p.n - p.m)
    assert np.allclose(Z @ Z.T, ref.basis @ ref.basis.T, rtol=0, atol=1e-12)
    report = verify_minimizer(p, point.x, point.mu)
    assert report.tangent_cone_margin == pytest.approx(ref.margin, rel=1e-12)
    assert report.tangent_cone_pd == (ref.margin > 0)
    if report.tangent_cone_pd:
        assert_cbar_crossing(p, point, find_cbar(p, point))
    else:
        with pytest.raises(HypothesisViolatedError):
            find_cbar(p, point)
