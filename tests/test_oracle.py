"""Graph enumeration and the brute-force design verifier."""

import collections
import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hsnet.canonical import (
    EnumerationError,
    canonical_form,
    enumerate_keys,
    graph_from_canonical_key,
)
from hsnet.graphs import Graph
import hsnet.oracle
from hsnet.oracle import (
    _values_chunk,
    _worker_count,
    check_structure,
    exhaustive_optima,
    grid_utilities,
    is_maximal_core_periphery,
    is_two_connected,
    verify_grid,
)

from hsnet.cli import format_json
from hsnet.closed_form import maximal_leaf_count
from hsnet.designer import design_topology
from hsnet.matrix_game import game_value, integer_payoffs, max_optimal_mass, solve_zero_sum
from hsnet.payoff import UtilitySpec, builtin_utilities

from conftest import (
    enumerate_graphs,
    graph_and_permutation,
    identity_u,
    payoff_matrix,
    relabel,
    square_u,
)
from test_graphs import reached_by_bitmasks, reference_canonical_form


KNOWN_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}  # OEIS A000088


def test_enumeration_counts():
    for n, expect in KNOWN_COUNTS.items():
        assert len(enumerate_graphs(n)) == expect


def test_enumeration_distinct_keys():
    for n in range(0, 7):
        keys = [canonical_form(g) for g in enumerate_graphs(n)]
        assert len(keys) == len(set(keys))


def brute_unlabeled_count(n):
    # independent reference: dedup all labeled graphs by the minimum edge
    # list over every relabeling
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        key = min(
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
            for p in itertools.permutations(range(n))
        )
        seen.add(key)
    return len(seen)


def test_enumeration_against_independent_bruteforce():
    for n in range(0, 6):
        assert len(enumerate_graphs(n)) == brute_unlabeled_count(n)


def test_enumeration_bound():
    with pytest.raises(EnumerationError):
        enumerate_graphs(9)


@pytest.mark.parametrize("n", [3, 2, 1, 0, -1, "5", 5.0, True], ids=repr)
def test_sweep_refuses_fewer_than_four_nodes(monkeypatch, n):
    # The closed forms claim n >= 4 only (at n = 3 one edge beside an
    # isolated node beats every context), so a smaller sweep, or an n that
    # is not exactly an int, is refused before any graph is listed.
    monkeypatch.setattr(hsnet.oracle, "enumerate_keys", lambda n: pytest.fail("enumerated"))
    with pytest.raises(EnumerationError, match=rf"^a sweep needs n >= 4 nodes, got n={n!r}$"):
        exhaustive_optima(n, [identity_u(1)])


@functools.lru_cache(maxsize=None)
def unfiltered_keys(n):
    # Reference enumerator: the reference search's key of every one-vertex
    # extension of every class on n - 1 nodes, with no filter of any kind.
    if n == 0:
        return ((0, 0),)
    keys = set()
    for smaller in unfiltered_keys(n - 1):
        base = list(graph_from_canonical_key(smaller).edges)
        for mask in range(1 << (n - 1)):
            extra = [(j, n - 1) for j in range(n - 1) if mask >> j & 1]
            keys.add(reference_canonical_form(Graph(n, base + extra)))
    return tuple(sorted(keys))


def test_filtered_enumeration_matches_unfiltered_reference():
    for n in range(0, 8):
        assert enumerate_keys(n) == unfiltered_keys(n)


# SHA-256 of repr(enumerate_keys(n)), taken before the clique-cell search,
# the twin-class extensions and the automorphism-orbit extensions: the key
# set must not move.
REPRESENTATIVE_KEYS_SHA256 = {
    7: "5d4edbcba7ce5aa430569f98e8310968f02886fe308dcac12d057e81c589f095",
    8: "ee0cda005a219fe316f87fda84b2587ebf784647692ec29b6b3af69a164dc554",
}


@pytest.mark.parametrize("n", sorted(REPRESENTATIVE_KEYS_SHA256))
def test_representative_keys_pinned(n):
    digest = hashlib.sha256(repr(enumerate_keys(n)).encode()).hexdigest()
    assert digest == REPRESENTATIVE_KEYS_SHA256[n]


def test_exhaustive_optimum_small(oracle_report):
    rep = oracle_report(4, identity_u(0))
    assert rep.graph_count == 11
    assert rep.best_value == 1
    assert rep.value_match
    rep = oracle_report(6, identity_u(2))
    assert rep.value_match
    # the 7-node x^2 cell from the sanity grid: cycle regime, unique argmax
    rep = oracle_report(7, square_u(F(1, 2)))
    assert rep.value_match
    assert canonical_form(Graph(7, [(i, (i + 1) % 7) for i in range(7)])) in rep.argmax_keys


def test_structural_checks_pass_clean_cells(oracle_report):
    # cells where the small-component boundary cannot bite
    for (n, u) in [(5, identity_u(2)), (6, identity_u(5)), (6, square_u(0))]:
        rep = oracle_report(n, u)
        assert rep.all_passed(), [
            (c.name, c.detail) for c in rep.structural_checks if not c.passed
        ]


def test_cp_uniqueness_cell(oracle_report):
    # square utility at beta below threshold forces the cycle regime;
    # identity at beta=5, n=6 forces the core-periphery regime with a
    # unique argmax layout
    rep = oracle_report(6, identity_u(5))
    names = {c.name: c for c in rep.structural_checks}
    assert names["cp_regime_unique_topology"].passed
    assert len(rep.argmax_keys) == 1


def test_known_boundary_ties_at_four_nodes(oracle_report):
    # Two disjoint edges give capture probability 1/2 with residual pairs,
    # the same payoff profile as the 4-node core-periphery design, so they
    # tie whenever that design is optimal.  The verifier must report this
    # honestly rather than hide it.
    rep = oracle_report(4, identity_u(0))
    tied = {frozenset(g.edges) for g in rep.argmax_graphs}
    assert frozenset({(0, 1), (2, 3)}) in tied
    names = {c.name: c for c in rep.structural_checks}
    assert not names["no_small_components"].passed
    # the value equality and the constructed design's membership still hold
    assert rep.value_match
    assert names["constructed_design_in_argmax"].passed


# SHA-256 over the 48 reports of the default grid at n = 4..7, one
# format_json(to_json_dict()) line each, taken while the sweep and the
# structural checks still solved Fraction matrices, and while the
# hider_avoids_busy_nodes check read the solver's own vertex alone at n = 7.
# It now probes every optimal strategy at every n, and the bytes hold.  The
# CLI pins the verify bytes up to n = 6, to keep the tier-1 run short.
ORACLE_REPORTS_N7_SHA256 = "38a3044e3ac7fbf99a71f8978af6626089f5bd24e4a36342950ed7183652b883"


def test_oracle_reports_pinned_up_to_seven(oracle_report):
    digest = hashlib.sha256()
    for n in range(4, 8):
        for u in grid_utilities():
            digest.update((format_json(oracle_report(n, u).to_json_dict()) + "\n").encode())
    assert digest.hexdigest() == ORACLE_REPORTS_N7_SHA256


def test_hider_value_parallel_workers_match(monkeypatch):
    # determinism does not depend on the worker count: every report of a
    # whole-grid sweep is the same with one worker and with three
    grid = grid_utilities()
    monkeypatch.setenv("HSNET_THREADS", "1")
    serial = exhaustive_optima(5, grid)
    monkeypatch.setenv("HSNET_THREADS", "3")
    parallel = exhaustive_optima(5, grid)
    assert [r.utility for r in serial] == grid
    for one, many in zip(serial, parallel, strict=True):
        assert one == many  # every field: best value, argmax keys, checks
        assert format_json(one.to_json_dict()) == format_json(many.to_json_dict())


def plain_path(n, u):
    """(values, denominators): each graph on n nodes solved on the plain
    path, its own integer payoffs, with the value divided by their D."""
    games = [integer_payoffs(graph_from_canonical_key(k), u) for k in enumerate_keys(n)]
    return [game_value(rows) / den for rows, den in games], [den for _, den in games]


def sweep_utilities():
    """The twelve grid utilities, a seeded random table and a float-backed
    power, whose tables over 0..n-1 hold larger denominators than most
    single games do."""
    rng = random.Random(25)
    values = [F(0)]
    for _ in range(6):
        values.append(values[-1] + F(rng.randint(1, 30), rng.randint(1, 8)))
    table = UtilitySpec.table(values, F(rng.randint(0, 40), rng.randint(1, 4)))
    return grid_utilities() + [table, UtilitySpec.power(F(3, 2), F(1, 3))]


def test_one_pass_sweep_matches_the_plain_path():
    utilities = sweep_utilities()
    for n in range(1, 7):
        keys = enumerate_keys(n)
        rows = _values_chunk((n, keys, utilities))
        assert len(rows) == len(keys)
        for u, values in zip(utilities, zip(*rows), strict=True):
            plain, dens = plain_path(n, u)
            assert list(values) == plain, (n, u)
            if n == 6 and u in utilities[-2:]:
                # D' is a proper multiple of some game's own D.
                assert min(dens) < u.integer_table(range(n))[1], u


def test_sweep_builds_each_pattern_once_and_reads_one_table_per_utility(monkeypatch):
    patterns, tables = [], []
    capture_pattern, integer_table = hsnet.oracle.capture_pattern, UtilitySpec.integer_table

    def counted_pattern(g):
        patterns.append(canonical_form(g))
        return capture_pattern(g)

    def counted_table(self, sizes):
        sizes = tuple(sizes)
        tables.append((self, sizes))
        return integer_table(self, sizes)

    monkeypatch.setenv("HSNET_THREADS", "1")
    monkeypatch.setattr(hsnet.oracle, "capture_pattern", counted_pattern)
    monkeypatch.setattr(UtilitySpec, "integer_table", counted_table)
    # The structural checks read tables of their own (the design's, and the
    # argmax games'); the sweep is counted without them.
    monkeypatch.setattr(hsnet.oracle, "check_structure", lambda n, u, keys, best, star: ())
    grid = grid_utilities()
    reports = exhaustive_optima(6, grid)
    assert [r.utility for r in reports] == grid
    assert len(patterns) == 156
    assert sorted(patterns) == list(enumerate_keys(6))
    assert tables == [(u, tuple(range(6))) for u in grid]


# A 2-connected graph on six nodes with three degree-2 nodes, so in the
# cycle regime of x ** 2 at beta = 2 it passes cycle_regime_structure.  Some
# optimal hider strategies put a third of their mass on nodes 1 and 4, of
# degree 3, while the solver's own vertex puts none on any busy node: the
# case that a check of that vertex alone misses.
BUSY_MASS_EDGES = [(0, 1), (0, 2), (1, 2), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)]


def test_hider_avoids_busy_nodes_fails_where_an_optimal_strategy_uses_one():
    g, u = Graph(6, BUSY_MASS_EDGES), builtin_utilities("power", beta=F(2))
    busy = [v for v in range(6) if g.degree(v) > 2]
    assert busy == [1, 2, 4] and is_two_connected(g)
    rows, den = integer_payoffs(g, u)
    sol = solve_zero_sum(rows)
    assert [sol.row_strategy[v] for v in busy] == [0, 0, 0]
    assert [max_optimal_mass(rows, sol.value, [v]) for v in busy] == [F(1, 3), 0, F(1, 3)]
    assert max_optimal_mass(rows, sol.value, busy) == F(1, 3)
    checks = {c.name: c for c in check_structure(6, u, (canonical_form(g),), sol.value / den, (0,))}
    assert checks["cycle_regime_structure"].passed
    assert not checks["hider_avoids_busy_nodes"].passed
    assert checks["hider_avoids_busy_nodes"].detail.startswith("1 argmax graphs")


# -- the core-periphery recognizer -------------------------------------------


def two_connected_within(g, nodes):
    """Whether the bitmask ``nodes`` induces a 2-connected graph: at least 3
    nodes, and a search inside it, and inside it less any one node, reaches
    every node left."""
    members = [v for v in range(g.node_count) if nodes >> v & 1]
    return len(members) >= 3 and all(
        reached_by_bitmasks(g, rest) == rest
        for rest in [nodes] + [nodes & ~(1 << v) for v in members]
    )


def core_periphery_by_bitmasks(g):
    """The maximal core-periphery recognizer in its first form, on neighbour
    bitmasks: g is connected on k >= 4 nodes; its leaves are its degree-1
    nodes and its core the rest; no core node has two leaves; there are k/2
    leaves when k is even, and (k-3)/2 when odd; the core is one edge or
    2-connected; and when k is odd exactly three core nodes hold no leaf, one
    of them adjacent to exactly the other two."""
    k = g.node_count
    full = (1 << k) - 1
    if k < 4 or reached_by_bitmasks(g, full) != full:
        return False
    masks = [g.neighbor_mask(v) for v in range(k)]
    leaves = sum(1 << v for v in range(k) if masks[v].bit_count() == 1)
    core = full & ~leaves
    held = [v for v in range(k) if core >> v & 1 and masks[v] & leaves]
    if any((masks[v] & leaves).bit_count() > 1 for v in held):
        return False
    if leaves.bit_count() != (k // 2 if k % 2 == 0 else (k - 3) // 2):
        return False
    if core.bit_count() == 2:
        return all(masks[v] & core for v in range(k) if core >> v & 1)
    if not two_connected_within(g, core):
        return False
    if k % 2 == 0:
        return True
    orphans = core & ~sum(1 << v for v in held)
    return orphans.bit_count() == 3 and any(
        masks[v] == orphans & ~(1 << v) for v in range(k) if orphans >> v & 1)


def test_recognizer_matches_the_bitmask_oracle_on_every_small_graph():
    accepted = collections.Counter()
    for n in range(9):
        for g in enumerate_graphs(n):
            verdict = is_maximal_core_periphery(g)
            assert verdict == core_periphery_by_bitmasks(g), sorted(g.edges)
            if verdict:
                accepted[n] += 1
    assert accepted == {4: 1, 5: 2, 6: 1, 7: 8, 8: 3}


def test_recognizer_matches_the_bitmask_oracle_on_layouts_and_their_edge_flips():
    for x in range(4, 41):
        part = design_topology(x, 0, maximal_leaf_count(x)).graph
        assert is_maximal_core_periphery(part) and core_periphery_by_bitmasks(part), x
        if x > 14:
            continue
        edges = part.edges
        for pair in itertools.combinations(range(x), 2):
            g = Graph(x, edges ^ {pair})
            assert is_maximal_core_periphery(g) == core_periphery_by_bitmasks(g), (x, pair)


def test_worker_count_validated_and_capped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("HSNET_THREADS", raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv("HSNET_THREADS", "12346")
    assert _worker_count() == 2
    monkeypatch.setenv("HSNET_THREADS", " +2 ")
    assert _worker_count() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count() == 1
    for raw in ("0", "-3", "2.5", "four", "", "1_0", "\u0662", "+-2"):
        monkeypatch.setenv("HSNET_THREADS", raw)
        with pytest.raises(EnumerationError):
            _worker_count()


def test_interior_singleton_design_matches_bruteforce():
    # one isolated node plus a 4-node core-periphery part is strictly best
    # at n=5 under a moderate penalty; the exhaustive sweep must agree
    u = identity_u(F(3))
    (rep,) = exhaustive_optima(5, [u])
    assert rep.value_match
    assert rep.best_value == F(5, 17)
    counts = {len(g.isolated_nodes()) for g in rep.argmax_graphs}
    assert counts == {1}
    assert rep.all_passed(), [c for c in rep.structural_checks if not c.passed]


def test_beta_monotonicity_of_best_value(oracle_report):
    for n in (4, 5):
        values = [
            oracle_report(n, identity_u(b)).best_value for b in (F(0), F(1), F(5))
        ]
        assert values == sorted(values, reverse=True)


def test_verify_grid_mutation_mode():
    cells, ok = verify_grid(4, families=("linear",), betas=("2",))
    assert ok
    cells, ok = verify_grid(4, families=("linear",), betas=("2",), mutate=True)
    assert not ok


def test_report_json_shape(oracle_report):
    data = oracle_report(4, identity_u(2)).to_json_dict()
    assert data["n"] == 4
    assert isinstance(data["checks"], list)
    assert all(set(c) >= {"name", "passed"} for c in data["checks"])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    graph_and_permutation(min_nodes=1, max_nodes=7),
    st.sampled_from(["linear", "power", "ratio_power"]),
    st.fractions(min_value=0, max_value=50, max_denominator=12),
)
def test_hider_value_invariant_under_relabelling(case, family, beta):
    # The defaults: f(x) = x, x ** 2 and x ** 2 / (x + 1), at the drawn beta.
    g, perm = case
    u = builtin_utilities(family, beta=beta)
    assert game_value(payoff_matrix(relabel(g, perm), u)) == game_value(payoff_matrix(g, u))
