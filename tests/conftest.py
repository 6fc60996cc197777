"""Shared fixtures: utility constructors, the test oracles that the program
itself has no use for, and a session-wide oracle cache.

``payoff_matrix`` is the Fraction view of ``integer_payoffs``,
``enumerate_graphs`` the Graphs of ``enumerate_keys`` and
``key_to_json_dict`` a key's JSON graph: no command builds any of them, and
the tests read all three.  Exhaustive sweeps at n=7 cost seconds each,
and several test modules (the oracle unit tests and the acceptance battery)
look at the same cells, so reports are memoized for the whole test run, one
sweep per n filling every grid cell.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

import hsnet
from hsnet.canonical import canonical_key_edges, enumerate_keys, graph_from_canonical_key
from hsnet.designer import (
    ATTACHMENT, RESIDUAL, RESIDUAL_LEAF, RESIDUAL_PAIR, SINGLETON, SINGLETON_LEAF, classify,
)
from hsnet.graphs import Graph
from hsnet.matrix_game import integer_payoffs
from hsnet.oracle import exhaustive_optima, grid_utilities
from hsnet.payoff import MixedStrategy, UtilitySpec


def identity_u(beta=0) -> UtilitySpec:
    return UtilitySpec.linear(1, beta)


def square_u(beta=0) -> UtilitySpec:
    return UtilitySpec.power(2, beta)


def ratio_u(beta=0) -> UtilitySpec:
    return UtilitySpec.ratio_power(2, beta)


def payoff_matrix(g, u) -> tuple:
    """The matrix of ``integer_payoffs`` as a tuple of rows of Fractions, each
    entry its integer over D."""
    rows, den = integer_payoffs(g, u)
    view = {v: Fraction(v, den) for v in set().union(*rows)}
    return tuple(tuple(view[v] for v in row) for row in rows)


def conditioned(strategy: MixedStrategy, nodes) -> MixedStrategy:
    """The strategy conditioned on a node set: its weights there over their
    total."""
    weights = [w if v in nodes else 0 for v, w in enumerate(strategy.weights)]
    return MixedStrategy.from_weights(weights, sum(weights))


def key_to_json_dict(key: tuple[int, int]) -> dict:
    """The JSON form of the representative graph of a canonical key, built
    from the key alone; edges are ``(i, j)`` tuples, which serialize as
    ``graph_to_json_dict``'s lists do.  The oracle of ``hsnet enumerate``'s
    report writer."""
    return {"n": key[0], "edges": canonical_key_edges(key)}


def enumerate_graphs(n: int) -> tuple:
    """All graphs on n nodes up to isomorphism, canonical representatives in
    a deterministic order, as a tuple of Graphs."""
    return tuple(graph_from_canonical_key(k) for k in enumerate_keys(n))


def strategy_payoff(matrix, row, col):
    """The hider's expected payoff row . M . col of a pair of mixed
    strategies, summed over the dense matrix."""
    if len(row) != len(matrix) or len(col) != len(matrix[0]):
        raise ValueError("strategy dimensions do not match the matrix")
    total = Fraction(0)
    for p, r in zip(row, matrix):
        if p:
            total += p * sum(v * q for v, q in zip(r, col))
    return total


def uniform_over(indices, n):
    """The mixed strategy uniform on the distinct ``indices`` among n
    actions."""
    idx = sorted(set(indices))
    if not idx:
        raise ValueError("uniform_over needs a nonempty index set")
    p = Fraction(1, len(idx))
    probs = [Fraction(0)] * n
    for i in idx:
        probs[i] = p
    return MixedStrategy(probs)


BETA_GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5), Fraction(50))

_REPORTS = {}
GRID = grid_utilities()


@pytest.fixture(scope="session")
def oracle_report():
    """Memoized exhaustive_optima, keyed by (n, utility).  The first report
    asked for at an n fills every cell of the verify grid there from one
    sweep; a utility off the grid is swept alone."""

    def get(n, u):
        if (n, u) not in _REPORTS:
            cells = GRID if u in GRID else [u]
            for cell, report in zip(cells, exhaustive_optima(n, cells)):
                _REPORTS[n, cell] = report
        return _REPORTS[n, u]

    return get


def run_child(args, timeout=None):
    """Run python with ``args`` in a separate process, so an uncaught
    exception would show its traceback on stderr."""
    src = os.path.dirname(os.path.dirname(hsnet.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable] + args, capture_output=True, text=True, env=env, timeout=timeout
    )


def class_sets(g):
    """``classify(g)`` as node sets, each built once: ``singletons``,
    ``singleton_leaves``, ``m_nodes`` (the attachment nodes), ``r_nodes``
    (the residual set), its leaves ``r_leaves`` and 2-node pieces ``d_gr``,
    and ``leaves``, the nodes of degree 1; ``kinds`` is the bytes read."""
    kinds = classify(g)

    def nodes(*wanted):
        return frozenset(v for v, kind in enumerate(kinds) if kind in wanted)

    return SimpleNamespace(
        kinds=kinds,
        singletons=nodes(SINGLETON),
        singleton_leaves=nodes(SINGLETON_LEAF),
        m_nodes=nodes(ATTACHMENT),
        r_nodes=nodes(RESIDUAL, RESIDUAL_LEAF, RESIDUAL_PAIR),
        r_leaves=nodes(RESIDUAL_LEAF),
        d_gr=nodes(RESIDUAL_PAIR),
        leaves=frozenset(v for v in range(g.node_count) if g.degree(v) == 1),
    )


def relabel(g, perm):
    return Graph(g.node_count, [(perm[i], perm[j]) for (i, j) in g.edges])


@st.composite
def graphs(draw, min_nodes=0, max_nodes=8):
    """A labelled graph: a node count, then each possible edge kept or not."""
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep])


@st.composite
def graph_and_permutation(draw, min_nodes=0, max_nodes=8):
    g = draw(graphs(min_nodes, max_nodes))
    return g, draw(st.permutations(range(g.node_count)))
