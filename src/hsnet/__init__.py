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
"""

from .graphs import (
    CANONICAL_MAX_NODES,
    ComponentPartition,
    Graph,
    GraphError,
    GraphFormatError,
    SeekerPartition,
    canonical_form,
    classify,
    components,
    format_graph_text,
    graph_from_canonical_key,
    graph_from_json_dict,
    graph_to_json_dict,
    induced_subgraph,
    is_connected,
    is_two_connected,
    parse_graph_text,
    to_dot,
)
from .payoff import (
    UtilityError,
    UtilitySpec,
    builtin_utilities,
    capture_probability,
    payoff_matrix,
)
from .matrix_game import (
    GameSolution,
    MixedStrategy,
    best_response_gap,
    game_value,
    max_optimal_mass,
    solve_zero_sum,
    strategy_payoff,
)
from . import closed_form
from .designer import (
    CorePeripherySpec,
    DesignError,
    DesignResult,
    DesignTopology,
    build_chorded_cycle,
    build_core_periphery,
    build_cycle,
    build_maximal_cp,
    chorded_cycle_designated,
    chorded_cycle_equilibrium,
    design_optimal,
    design_topology,
    hider_strategy,
    is_maximal_core_periphery,
    seeker_strategy,
)
from .oracle import (
    EnumerationError,
    EnumerationReport,
    StructuralCheck,
    check_structure,
    enumerate_graphs,
    exhaustive_optimum,
    hider_value,
    verify_grid,
)
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_MAX_NODES",
    "ComponentPartition",
    "CorePeripherySpec",
    "DesignError",
    "DesignResult",
    "DesignTopology",
    "EnumerationError",
    "EnumerationReport",
    "GameSolution",
    "Graph",
    "GraphError",
    "GraphFormatError",
    "MixedStrategy",
    "SeekerPartition",
    "StructuralCheck",
    "UtilityError",
    "UtilitySpec",
    "best_response_gap",
    "build_chorded_cycle",
    "build_core_periphery",
    "build_cycle",
    "build_maximal_cp",
    "builtin_utilities",
    "canonical_form",
    "capture_probability",
    "check_structure",
    "chorded_cycle_designated",
    "chorded_cycle_equilibrium",
    "classify",
    "closed_form",
    "components",
    "design_optimal",
    "design_topology",
    "enumerate_graphs",
    "exhaustive_optimum",
    "format_graph_text",
    "format_rational",
    "game_value",
    "graph_from_canonical_key",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "hider_strategy",
    "hider_value",
    "induced_subgraph",
    "is_connected",
    "is_maximal_core_periphery",
    "is_two_connected",
    "max_optimal_mass",
    "parse_graph_text",
    "parse_rational",
    "payoff_matrix",
    "seeker_strategy",
    "solve_zero_sum",
    "strategy_payoff",
    "to_dot",
    "verify_grid",
]
