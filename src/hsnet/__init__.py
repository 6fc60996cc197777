"""Exact analysis of a zero-sum hide-and-seek game played on graphs.

One player designs a network on n nodes and hides at a node; the other
inspects a node, capturing the hider anywhere in its closed neighborhood and
deleting it from the graph.  Escaping is worth an increasing function of the
hider's residual component size; capture costs a fixed penalty.

The package computes, entirely in rational arithmetic: payoff matrices and
exact game values for fixed graphs, the closed-form equilibrium bounds and
mixing weights, optimal network constructions with certified equilibrium
strategies, and a brute-force verifier that enumerates all small graphs up
to isomorphism and confirms the closed forms against exact LP solutions.

Names outside this short list are imported from their submodules
(``hsnet.graphs``, ``hsnet.matrix_game``, ``hsnet.oracle`` and so on).
"""

from .designer import build_cycle, build_maximal_cp, design_optimal
from .graphs import Graph, to_dot
from .matrix_game import solve_zero_sum
from .oracle import exhaustive_optimum
from .payoff import UtilitySpec, capture_probability, payoff_matrix
from .rationals import format_rational

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "UtilitySpec",
    "build_cycle",
    "build_maximal_cp",
    "capture_probability",
    "design_optimal",
    "exhaustive_optimum",
    "format_rational",
    "payoff_matrix",
    "solve_zero_sum",
    "to_dot",
]
