"""Built-in test problems with known solutions.

The convergence theory here is local and the certification machinery needs
ground truth, so the package ships three desk-scale fixtures:

* ``tp-path2``   — two agents on one edge, scalar states, one affine
  constraint; every hypothesis (blockwise and tangent-cone positivity)
  holds, and the KKT system solves by hand.
* ``tp-affine2`` — two agents, n = 2, two affine constraints that pin the
  minimizer at their intersection (0.5, 0.5).
* ``tp-nonconv3`` — three agents on a path, n = 2, a quartic objective
  term and one circle constraint; blockwise Hessians are indefinite
  (agent 3 has negative curvature in its second coordinate) while the
  tangent-cone Hessian is positive, so the plain first-order multiplier
  method fails where the augmented variants succeed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgraph import GraphSpec, from_edges
from .problem import LiftedProblem, lift_problem, polynomial_agent


@dataclass(frozen=True)
class Fixture:
    problem: LiftedProblem
    oracle_init: np.ndarray     # initial point pinning the oracle to the known x*


def _path_graph(num_agents: int) -> GraphSpec:
    return from_edges(num_agents, [(i, i + 1, 1.0) for i in range(num_agents - 1)])


def tp_path2() -> Fixture:
    # f1 = (x-1)^2/2, f2 = (x+1)^2/2, h1 = x - 0.5; x* = 0.5, psi* = -1
    agents = (
        polynomial_agent([[0.5, [2]], [-1.0, [1]], [0.5, [0]]], 1,
                         h_terms=[[1.0, [1]], [-0.5, [0]]]),
        polynomial_agent([[0.5, [2]], [1.0, [1]], [0.5, [0]]], 1),
    )
    problem = lift_problem(agents, _path_graph(2))
    return Fixture(problem=problem, oracle_init=np.array([0.0]))


def tp_affine2() -> Fixture:
    # f_i = ||x - a_i||^2/2 with a_1 = (1,0), a_2 = (0,1);
    # h1 = x1 + x2 - 1, h2 = x1 - x2 force x* = (0.5, 0.5), psi* = 0
    f1 = [[0.5, [2, 0]], [-1.0, [1, 0]], [0.5, [0, 0]], [0.5, [0, 2]]]
    f2 = [[0.5, [2, 0]], [0.5, [0, 2]], [-1.0, [0, 1]], [0.5, [0, 0]]]
    agents = (
        polynomial_agent(f1, 2, h_terms=[[1.0, [1, 0]], [1.0, [0, 1]], [-1.0, [0, 0]]]),
        polynomial_agent(f2, 2, h_terms=[[1.0, [1, 0]], [-1.0, [0, 1]]]),
    )
    problem = lift_problem(agents, _path_graph(2))
    return Fixture(problem=problem, oracle_init=np.array([0.0, 0.0]))


def tp_nonconv3() -> Fixture:
    # f1 = (x1^4 + x2^4)/4, f2 = (x1-2)^2/2 + x2^2/2,
    # f3 = (x1-2)^2/2 - 0.75 x2^2, h1 = x1^2 + x2^2 - 1.
    # x* = (1, 0), psi* = 0.5; agent-3 block of the Lagrangian Hessian is
    # diag(1, -1.5) so blockwise positivity fails, while the tangent-cone
    # direction (0, 1) sees curvature 1 + 1 - 1.5 = 0.5 > 0.
    f1 = [[0.25, [4, 0]], [0.25, [0, 4]]]
    f2 = [[0.5, [2, 0]], [-2.0, [1, 0]], [2.0, [0, 0]], [0.5, [0, 2]]]
    f3 = [[0.5, [2, 0]], [-2.0, [1, 0]], [2.0, [0, 0]], [-0.75, [0, 2]]]
    circle = [[1.0, [2, 0]], [1.0, [0, 2]], [-1.0, [0, 0]]]
    agents = (
        polynomial_agent(f1, 2, h_terms=circle),
        polynomial_agent(f2, 2),
        polynomial_agent(f3, 2),
    )
    problem = lift_problem(agents, _path_graph(3))
    return Fixture(problem=problem, oracle_init=np.array([0.9, 0.1]))


FIXTURES = {
    "tp-path2": tp_path2,
    "tp-affine2": tp_affine2,
    "tp-nonconv3": tp_nonconv3,
}


def get_fixture(name: str) -> Fixture:
    try:
        builder = FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {sorted(FIXTURES)}"
        ) from None
    return builder()
