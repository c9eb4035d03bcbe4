from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from lagnet import oracle
from lagnet.fixtures import get_fixture
from lagnet.problem import LiftedProblem, StationaryPoint

# every property test draws the same examples on every run; a test's own
# @settings sets only its max_examples
settings.register_profile("lagnet", derandomize=True, deadline=None)
settings.load_profile("lagnet")


def kron_lift(A, n: int) -> np.ndarray:
    """Kronecker lift A (x) I_n: the dense form of A acting on agent-major arrays."""
    return np.kron(np.asarray(A, dtype=float), np.eye(n))


@dataclass(frozen=True)
class DenseForms:
    """Dense graph algebra of a lifted problem, built apart from the package
    as an independent reference: J projects onto Null(S') (from scipy's
    ``null_space``), and S_lift and J_lift are the lifts of S and J."""

    J: np.ndarray
    S_lift: np.ndarray
    J_lift: np.ndarray


def dense_forms(p: LiftedProblem) -> DenseForms:
    U = scipy.linalg.null_space(p.incidence.S.T, rcond=1e-10)
    J = U @ U.T
    return DenseForms(J, kron_lift(p.incidence.S, p.n), kron_lift(J, p.n))


@dataclass(frozen=True)
class Solved:
    name: str
    problem: LiftedProblem
    solution: oracle.OracleSolution
    point: StationaryPoint
    oracle_init: object


def _solve(name: str) -> Solved:
    fx = get_fixture(name)
    sol = oracle.solve_centralized(fx.problem, x_init=fx.oracle_init, seed=0)
    point = oracle.lifted_multipliers(fx.problem, sol)
    return Solved(name, fx.problem, sol, point, fx.oracle_init)


@pytest.fixture(scope="session")
def path2() -> Solved:
    return _solve("tp-path2")


@pytest.fixture(scope="session")
def affine2() -> Solved:
    return _solve("tp-affine2")


@pytest.fixture(scope="session")
def nonconv3() -> Solved:
    return _solve("tp-nonconv3")


@pytest.fixture(scope="session")
def all_solved(path2, affine2, nonconv3):
    return (path2, affine2, nonconv3)
