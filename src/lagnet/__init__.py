"""Distributed Lagrangian and method-of-multipliers solvers over
communication graphs, with spectral convergence certification."""

from .fixtures import FIXTURES, get_fixture
from .netgraph import GraphSpec, build_incidence, laplacian
from .problem import (
    LiftedProblem,
    LocalProblem,
    MultiplierState,
    StationaryPoint,
    lift_problem,
)
from .solvers import FirstOrderConfig, run_first_order
from .multipliers import MoMConfig, run_a3
from .oracle import lifted_multipliers, solve_centralized

__all__ = [
    "FIXTURES",
    "FirstOrderConfig",
    "GraphSpec",
    "LiftedProblem",
    "LocalProblem",
    "MoMConfig",
    "MultiplierState",
    "StationaryPoint",
    "build_incidence",
    "get_fixture",
    "laplacian",
    "lift_problem",
    "lifted_multipliers",
    "run_a3",
    "run_first_order",
    "solve_centralized",
]
