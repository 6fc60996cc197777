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
``parse_int``, the grammar of the integers read from the command line and
the environment, is defined here, so that reading one loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each top-level name and the submodule that defines it.  A name is imported
# on first use (PEP 562), so ``import hsnet.graphs`` loads nothing else.
_SOURCES = {
    "Graph": "graphs",
    "UtilitySpec": "payoff",
    "build_cycle": "designer",
    "build_maximal_cp": "designer",
    "capture_probability": "matrix_game",
    "design_optimal": "designer",
    "exhaustive_optima": "oracle",
    "format_rational": "rationals",
    "integer_payoffs": "matrix_game",
    "solve_zero_sum": "matrix_game",
    "to_dot": "graphs",
}

__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def parse_int(text: str) -> int:
    """An int from ASCII digits with an optional sign and optional
    whitespace around the whole, as ``hsnet.rationals.parse_rational``
    reads p; anything else (an underscore, another script's digits, inner
    spaces) is a ValueError."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if digits.isascii() and digits.isdigit():
        return int(body)
    raise ValueError(f"invalid int value: {text!r}")
