"""Builders, strategies, and certified optimal designs."""

import collections
import functools
import hashlib
import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import hsnet.closed_form as cf
import hsnet.designer as dz
from hsnet.cli import format_json
from hsnet.designer import classify, strategy_payoffs
from hsnet.graphs import Graph
from hsnet.matrix_game import best_response_gap, capture_probability, solve_zero_sum
from hsnet.oracle import (
    components,
    induced_subgraph,
    is_maximal_core_periphery,
    is_two_connected,
)
from hsnet.payoff import MixedStrategy, UtilitySpec, gap_from_payoffs
from hsnet.rationals import format_rational

from conftest import (
    BETA_GRID,
    class_sets,
    enumerate_graphs,
    graph_and_permutation,
    identity_u,
    payoff_matrix,
    ratio_u,
    relabel,
    square_u,
    strategy_payoff,
    uniform_over,
)
from test_closed_form import (
    ref_bounds, ref_component_hide_weight, ref_interior_seek_weight, ref_periphery_hide_weight,
    seeker_bound,
)


def test_build_cycle():
    for k in (3, 4, 12):
        g = dz.build_cycle(k)
        assert all(g.degree(v) == 2 for v in range(k))
    assert is_two_connected(dz.build_cycle(12))
    with pytest.raises(dz.DesignError):
        dz.build_cycle(2)


# -- core-periphery layouts from a spec, for the classifier ------------------


@dataclass(frozen=True)
class CorePeripherySpec:
    """Core graph plus a one-leaf-per-core-node attachment plan.

    q core nodes (ids 0..q-1) carry the edges in core_edges; periphery node i
    (graph id q+i) attaches to core node pairing[i].  Needs m <= q, a
    connected core, and pairwise distinct attachment targets.
    """

    q: int
    m: int
    core_edges: frozenset
    pairing: tuple[int, ...]

    def validate(self):
        if self.q < 1 or self.m < 0:
            raise dz.DesignError("need q >= 1 and m >= 0")
        if self.m > self.q:
            raise dz.DesignError(
                f"{self.m} periphery nodes cannot attach to {self.q} distinct cores"
            )
        if len(self.pairing) != self.m:
            raise dz.DesignError("pairing length must equal periphery count")
        if len(set(self.pairing)) != self.m:
            raise dz.DesignError("periphery nodes must attach to distinct core nodes")
        for c in self.pairing:
            if not 0 <= c < self.q:
                raise dz.DesignError(f"attachment target {c} outside the core")
        core = Graph(self.q, self.core_edges)
        if self.q > 1 and len(components(core)) != 1:
            raise dz.DesignError("core must be connected")


def build_core_periphery(spec):
    """Realize a core-periphery spec as a graph on q+m nodes."""
    spec.validate()
    edges = list(spec.core_edges)
    for i, c in enumerate(spec.pairing):
        edges.append((c, spec.q + i))
    return Graph(spec.q + spec.m, edges)


def test_build_core_periphery():
    spec = CorePeripherySpec(
        q=4, m=4, core_edges=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
        pairing=(0, 1, 2, 3),
    )
    g = build_core_periphery(spec)
    part = class_sets(g)
    assert part.m_nodes == frozenset(range(4))
    assert part.singleton_leaves == frozenset(range(4, 8))

    spec = CorePeripherySpec(
        q=5, m=3,
        core_edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}),
        pairing=(0, 1, 2),
    )
    g = build_core_periphery(spec)
    part = class_sets(g)
    assert part.m_nodes == frozenset({0, 1, 2})
    assert len(part.r_nodes) == 2  # the orphans

    # a large layout with many orphaned core nodes
    big = CorePeripherySpec(
        q=24, m=15,
        core_edges=frozenset((i, (i + 1) % 24) for i in range(24)),
        pairing=tuple(range(15)),
    )
    g = build_core_periphery(big)
    assert g.node_count == 39
    assert len(class_sets(g).singleton_leaves) == 15

    with pytest.raises(dz.DesignError):
        CorePeripherySpec(q=2, m=3, core_edges=frozenset({(0, 1)}), pairing=(0, 1, 0)).validate()
    with pytest.raises(dz.DesignError):
        CorePeripherySpec(q=3, m=2, core_edges=frozenset(), pairing=(0, 1)).validate()


def test_build_maximal_cp_shapes():
    g8 = dz.build_maximal_cp(8)
    part = class_sets(g8)
    assert len(part.singleton_leaves) == 4 and len(part.r_nodes) == 0

    g16 = dz.build_maximal_cp(16)
    part = class_sets(g16)
    assert len(part.singleton_leaves) == 8
    assert is_two_connected(Graph(8, dz.build_cycle(8).edges))

    g17 = dz.build_maximal_cp(17)
    part = class_sets(g17)
    assert len(part.singleton_leaves) == 7
    topo = dz.design_topology(17, 0, 7)
    mid = topo.middle_orphan
    assert set(g17.neighbors(mid)) == set(topo.orphan_nodes) - {mid}
    assert g17.degree(mid) == 2

    # the 4-node layout degenerates to the path
    g4 = dz.build_maximal_cp(4)
    degs = sorted(g4.degrees())
    assert degs == [1, 1, 2, 2]

    with pytest.raises(dz.DesignError):
        dz.build_maximal_cp(3)


def expected_layout(x, m):
    """The tag of the design layout with m leaves on x connected nodes, or
    None where there is none."""
    if m == 0:
        return dz.ALL_SINGLETONS if x == 0 else dz.CYCLE if x >= 3 else None
    if x >= 4 and m == (x // 2 if x % 2 == 0 else (x - 3) // 2):
        return dz.MAXIMAL_CP_ODD if x % 2 else dz.MAXIMAL_CP_EVEN
    return None


def test_design_topology_accepts_exactly_the_four_layouts():
    seen = collections.Counter()
    for x in range(13):
        for s in (0, 2):
            for m in range(x + 1):
                tag = expected_layout(x, m)
                if tag is None:
                    message = f"^no design has m={m} leaves on {x} connected nodes$"
                    with pytest.raises(dz.DesignError, match=message):
                        dz.design_topology(x + s, s, m)
                    continue
                topo = dz.design_topology(x + s, s, m)
                seen[tag] += 1
                assert topo.topology == tag, (x, s, m)
                assert topo.component_nodes == tuple(range(x))
                assert topo.singleton_nodes == tuple(range(x, x + s))
                assert len(topo.periphery_nodes) == m
                assert len(topo.graph.isolated_nodes()) == s
                part = induced_subgraph(topo.graph, topo.component_nodes)
                if tag == dz.CYCLE:
                    assert is_two_connected(part) and set(part.degrees()) == {2}
                elif tag != dz.ALL_SINGLETONS:
                    assert is_maximal_core_periphery(part), (x, s, m)
    assert seen == {dz.ALL_SINGLETONS: 2, dz.CYCLE: 20, dz.MAXIMAL_CP_EVEN: 10,
                    dz.MAXIMAL_CP_ODD: 8}


@pytest.mark.parametrize("n", [5.0, True, F(5), "5", None], ids=repr)
def test_node_count_must_be_an_int(monkeypatch, n):
    # Refused before any work: the closed-form scan never starts.
    monkeypatch.setattr(cf, "_best", lambda *args: pytest.fail("the scan started"))
    u = identity_u(2)
    with pytest.raises(cf.DomainError, match="need an int n >= 1"):
        dz.design_optimal(n, u)
    with pytest.raises(cf.DomainError, match="need an int n >= 1"):
        cf.optimal_singleton_counts(n, u)
    for s, m in ((0, 0), (0, 2), (n, 0)):
        with pytest.raises(dz.DesignError, match="need ints 0 <= s <= n"):
            dz.design_topology(n, s, m)
    with pytest.raises(dz.DesignError, match="need ints 0 <= s <= n"):
        dz.design_topology(5, n, 0)
    with pytest.raises(dz.DesignError, match="no design has m="):
        dz.design_topology(8, 0, n)
    assert dz.design_topology(5, 5, 0).graph == Graph(5)


def test_maximal_cp_recognizer():
    for k in (4, 5, 6, 8, 11, 16, 17):
        assert is_maximal_core_periphery(dz.build_maximal_cp(k)), k
    assert not is_maximal_core_periphery(dz.build_cycle(6))
    assert not is_maximal_core_periphery(Graph(4, [(0, 1), (1, 2), (2, 3)][:2]))
    # star: too many leaves on one attachment
    assert not is_maximal_core_periphery(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    # right leaf count but orphan wiring wrong: orphans spread out on the core
    q = 5
    core = [(i, (i + 1) % q) for i in range(q)]
    g = Graph(7, core + [(0, 5), (2, 6)])  # orphans 1, 3, 4 not consecutive
    assert not is_maximal_core_periphery(g)


# -- chord-augmented cycles (alternate optima in the cycle regime) ---------


def chorded_cycle_designated(t: int) -> tuple[int, ...]:
    """The degree-2 designated nodes: every third node of the base cycle."""
    return tuple(3 * i for i in range(t))


def build_chorded_cycle(t: int, chords) -> Graph:
    """Base cycle on 3t nodes plus chords avoiding the designated nodes.

    Any two designated nodes are separated by two ordinary nodes along the
    cycle, and chords may only join ordinary nodes, so every designated node
    keeps degree exactly 2.
    """
    if t < 2:
        raise dz.DesignError(f"need t >= 2, got {t}")
    size = 3 * t
    designated = set(chorded_cycle_designated(t))
    edges = set(dz.build_cycle(size).edges)
    for chord in chords:
        a, b = chord
        if not (0 <= a < size and 0 <= b < size) or a == b:
            raise dz.DesignError(f"bad chord ({a},{b})")
        if a in designated or b in designated:
            raise dz.DesignError(f"chord ({a},{b}) touches a designated degree-2 node")
        key = (min(a, b), max(a, b))
        if key in edges:
            raise dz.DesignError(f"chord ({a},{b}) duplicates an existing edge")
        edges.add(key)
    g = Graph(size, edges)
    assert all(g.degree(v) == 2 for v in designated)
    return g


def chorded_cycle_equilibrium(t: int, chords):
    """(graph, hider, seeker) with the hider uniform on the designated
    degree-2 nodes and the seeker uniform on the whole part.

    Every node of the part sees exactly one designated node in its closed
    neighborhood, so this pair equalizes both players regardless of the
    chord set; with no chords the hider margin extends to the full cycle.
    """
    g = build_chorded_cycle(t, chords)
    hider = uniform_over(chorded_cycle_designated(t), g.node_count)
    seeker = MixedStrategy.uniform(g.node_count)
    return g, hider, seeker


def test_chorded_cycle_validation():
    g = build_chorded_cycle(4, [])
    assert g.edges == dz.build_cycle(12).edges
    g = build_chorded_cycle(4, [(1, 5), (2, 7)])
    for v in chorded_cycle_designated(4):
        assert g.degree(v) == 2
    with pytest.raises(dz.DesignError):
        build_chorded_cycle(4, [(0, 5)])  # touches a designated node
    with pytest.raises(dz.DesignError):
        build_chorded_cycle(4, [(1, 2)])  # duplicates a cycle edge
    with pytest.raises(dz.DesignError):
        build_chorded_cycle(1, [])


def test_seeker_strategy_shapes():
    u = identity_u(1)
    assert dz.seeker_strategy(Graph(5), u).probs == (F(1, 5),) * 5
    assert dz.seeker_strategy(dz.build_cycle(6), u).probs == (F(1, 6),) * 6
    s = dz.seeker_strategy(dz.build_maximal_cp(8), u)
    assert s.probs == (F(1, 4),) * 4 + (F(0),) * 4
    # arbitrary graphs still get a valid distribution
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        g = Graph(n, edges)
        strat = dz.seeker_strategy(g, u)
        assert sum(strat.probs) == 1 and all(p >= 0 for p in strat.probs)


def test_seeker_strategy_residual_mass_shift():
    # pendant chain: leaf of the residual subgraph hands its mass to its
    # neighbor; 2-node residual pieces keep theirs
    g = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)])  # edge + cycle4
    s = dz.seeker_strategy(g, identity_u(1))
    assert s[0] == s[1] == F(1, 6)  # the isolated edge is a residual pair
    assert all(s[v] == F(1, 6) for v in (2, 3, 4, 5))


def test_seeker_strategy_secures_bound_on_every_small_graph():
    # the closed-form bound is a guarantee, not just an equilibrium value:
    # against the constructed seeker mix, no hider position on any graph
    # (4..6 nodes, admissible singleton count) beats -Q(n, m, s).  Graphs
    # with 2-node components are excluded: the classification deliberately
    # routes those endpoints to the residual set, where the guarantee
    # arithmetic does not apply (and such graphs are never optimal).
    tested = 0
    for n in range(4, 7):
        for g in enumerate_graphs(n):
            if any(len(c) == 2 for c in components(g)):
                continue
            part = class_sets(g)
            s, m = len(part.singletons), len(part.m_nodes)
            if not (s <= n - 4 or s == n):
                continue
            for u in (identity_u(2), square_u(F(1, 2)), identity_u(0)):
                sigma = dz.seeker_strategy(g, u)
                mat = payoff_matrix(g, u)
                worst = max(
                    sum(mat[h][k] * sigma[k] for k in range(n))
                    for h in range(n)
                )
                bound = seeker_bound(n, m, s, u)  # B, in the s = n row, when s = n
                assert -worst >= bound, (n, sorted(g.edges), u.family)
                tested += 1
    assert tested > 500


# -- the residual-subgraph classification, kept as the oracle --------------


def residual_subgraph(g, part):
    """(gr_nodes, gr, sizes): the subgraph induced on the residual set of
    ``class_sets(g)``, relabelled in sorted order, and the size of each gr
    node's component."""
    gr_nodes = tuple(sorted(part.r_nodes))
    gr = induced_subgraph(g, gr_nodes)
    size = {i: len(c) for c in components(gr) for i in c}
    return gr_nodes, gr, [size[i] for i in range(gr.node_count)]


def residual_classes_by_subgraph(g, part):
    """(r_leaves, d_gr) read off the residual subgraph and its components:
    the leaves outside 2-node pieces, and the nodes of 2-node pieces."""
    gr_nodes, gr, sizes = residual_subgraph(g, part)
    pairs = frozenset(v for i, v in enumerate(gr_nodes) if sizes[i] == 2)
    leaves = frozenset(v for i, v in enumerate(gr_nodes) if gr.degree(i) == 1)
    return leaves - pairs, pairs


def seeker_strategy_by_subgraph(g, u, part):
    """The closed-form seeker with the residual masses spread over the
    residual subgraph: a non-leaf takes its own share plus one per leaf
    neighbour, a leaf of a 2-node component keeps its share.  ``part`` is
    ``class_sets(g)``."""
    n = g.node_count
    s, m, r = len(part.singletons), len(part.m_nodes), len(part.r_nodes)
    if s == n:
        return MixedStrategy.uniform(n)
    lam_s = ref_bounds(n, s, u, [m])[0][1] if s and n - s >= 4 else F(0)
    if r == 0:
        lam_r = F(0)
    else:
        lam_r = F(1) if m == 0 else ref_interior_seek_weight(n, m, s, u)
    probs = [F(0)] * n
    for v in part.singletons:
        probs[v] = lam_s / s
    rest = 1 - lam_s
    gr_nodes, gr, sizes = residual_subgraph(g, part)
    gr_leaves = {i for i in range(gr.node_count) if gr.degree(i) == 1}
    for i, v in enumerate(gr_nodes):
        if i not in gr_leaves:
            leaf_neighbors = sum(1 for j in gr.neighbors(i) if j in gr_leaves)
            probs[v] += rest * lam_r * F(leaf_neighbors + 1, r)
        elif sizes[i] == 2:
            probs[v] += rest * lam_r * F(1, r)
    for v in part.m_nodes:
        probs[v] += rest * (1 - lam_r) / m
    return MixedStrategy(probs)


ORACLE_UTILITIES = (identity_u(2), square_u(F(1, 2)), ratio_u(1), identity_u(0))


def assert_seeker_matches_subgraph_oracle(g):
    part = class_sets(g)
    assert (part.r_leaves, part.d_gr) == residual_classes_by_subgraph(g, part), g
    if g.node_count:
        for u in ORACLE_UTILITIES:
            want = seeker_strategy_by_subgraph(g, u, part).probs
            assert dz.seeker_strategy(g, u).probs == want, (g, u)


def test_seeker_matches_subgraph_oracle_on_every_graph_up_to_seven():
    rng = random.Random(15)
    for n in range(0, 8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            assert_seeker_matches_subgraph_oracle(g)
            assert_seeker_matches_subgraph_oracle(relabel(g, perm))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_and_permutation(max_nodes=12))
def test_seeker_matches_subgraph_oracle_under_relabelling(case):
    g, perm = case
    assert_seeker_matches_subgraph_oracle(g)
    assert_seeker_matches_subgraph_oracle(relabel(g, perm))


def test_classify_residual_pieces():
    # An isolated edge, a path 2-3-4 (its middle node holds two leaves, so
    # none of the three is claimed) and a triangle: all residual, and only
    # the edge is a 2-node piece.
    g = Graph(8, [(0, 1), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
    part = class_sets(g)
    assert part.r_nodes == frozenset(range(8))
    # Residual degree 1 at 0, 1, 2 and 4: the edge's ends and the path's.
    assert part.r_leaves == frozenset({2, 4})
    assert part.d_gr == frozenset({0, 1})


# -- no bitmask or subgraph on the payoff and design paths ------------------


def count_calls(monkeypatch):
    """Counter of Graph constructions and of neighbor_mask and
    induced_subgraph calls, however they are reached, while the test runs."""
    calls = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Graph, "__init__", counted("Graph", Graph.__init__))
    monkeypatch.setattr(Graph, "neighbor_mask", counted("neighbor_mask", Graph.neighbor_mask))
    wrapped = counted("induced_subgraph", induced_subgraph)
    for name, module in list(sys.modules.items()):
        if name.startswith("hsnet.") and hasattr(module, "induced_subgraph"):
            monkeypatch.setattr(module, "induced_subgraph", wrapped)
    return calls


def test_design_builds_one_graph_and_no_mask_or_subgraph(monkeypatch):
    cases = [
        (5, identity_u(50), dz.ALL_SINGLETONS),
        (10, square_u(F(1, 2)), dz.CYCLE),
        (10, identity_u(2), dz.MAXIMAL_CP_EVEN),
        (9, identity_u(2), dz.MAXIMAL_CP_ODD),
        (7, identity_u(13), dz.MAXIMAL_CP_EVEN),  # one isolated node
    ]
    calls = count_calls(monkeypatch)
    for n, u, tag in cases:
        calls.clear()
        assert dz.design_optimal(n, u).topology == tag
        assert calls == {"Graph": 1}, (n, tag)


@pytest.mark.parametrize("n, u, tag, tables", [
    (5, UtilitySpec.power(2, 0), dz.CYCLE, 2),
    (6, identity_u(0), dz.MAXIMAL_CP_EVEN, 2),
    (5, identity_u(0), dz.MAXIMAL_CP_ODD, 3),
    (5, UtilitySpec.power(F(1, 2), F(1, 2)), dz.MAXIMAL_CP_EVEN, 3),  # one isolated node
    (5, identity_u(5), dz.ALL_SINGLETONS, 2),
], ids=lambda v: v if isinstance(v, str) else None)
def test_design_table_reads_pinned(monkeypatch, n, u, tag, tables):
    # The design's row, which the hider reads too, one row for the seeker
    # when it needs lambda_S or rho, and the certificate's table: each one
    # integer table.
    calls = []
    integer_table = UtilitySpec.integer_table
    monkeypatch.setattr(UtilitySpec, "integer_table",
                        lambda self, sizes: calls.append(sizes) or integer_table(self, sizes))
    assert dz.design_optimal(n, u).topology == tag
    assert len(calls) == tables, calls


def test_payoff_and_seeker_queries_build_no_mask_or_subgraph(monkeypatch):
    graphs = [
        dz.build_cycle(6),
        dz.build_maximal_cp(9),
        Graph(8, [(0, 1), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)]),
        Graph(7, [(0, 1), (1, 2), (1, 3), (3, 4)]),
    ]
    u = identity_u(2)
    calls = count_calls(monkeypatch)
    for g in graphs:
        uniform = MixedStrategy.uniform(g.node_count)
        payoff_matrix(g, u)
        capture_probability(g, uniform, uniform)
        classify(g)
        dz.seeker_strategy(g, u)
    assert calls == {}


# -- the integer-weight strategies against their Fraction builders -----------


def fraction_seeker_strategy(g, u):
    """The seeker's closed-form probabilities, one Fraction per node: the
    oracle of ``seeker_strategy``'s integer weights."""
    n = g.node_count
    part = class_sets(g)
    s, m, r = len(part.singletons), len(part.m_nodes), len(part.r_nodes)
    if s == n:
        return [F(1, n)] * n
    lam_s = ref_bounds(n, s, u, [m])[0][1] if s and n - s >= 4 else F(0)
    if r == 0:
        lam_r = F(0)
    elif m == 0:
        lam_r = F(1)
    else:
        lam_r = ref_interior_seek_weight(n, m, s, u)
    rest = 1 - lam_s
    per_s = lam_s / s if s else F(0)
    per_m = rest * (1 - lam_r) / m if m else F(0)
    per_r = rest * lam_r / r if r else F(0)
    # A residual node's neighbours off the residual set are attachment nodes.
    r_degree = [g.degree(v) - len(part.m_nodes.intersection(g.neighbors(v)))
                if v in part.r_nodes else 0 for v in range(n)]
    probs = [F(0)] * n
    for v in range(n):
        if v in part.r_nodes:
            if r_degree[v] != 1:
                probs[v] = per_r * (1 + sum(r_degree[j] == 1 for j in g.neighbors(v)))
            elif v in part.d_gr:
                probs[v] = per_r
        elif v in part.m_nodes:
            probs[v] = per_m
        elif v in part.singletons:
            probs[v] = per_s
    return probs


def fraction_hider_strategy(topo, u):
    """The hider's closed-form probabilities, one Fraction per node: the
    oracle of ``hider_strategy``'s integer weights."""
    n = topo.graph.node_count
    s = len(topo.singleton_nodes)
    if s == n:
        return [F(1, n)] * n
    abar = ref_bounds(n, s, u, [len(topo.periphery_nodes)])[0][0]
    kappa = ref_component_hide_weight(n, s, u, abar)
    probs = [F(0)] * n
    spread = kappa
    if topo.middle_orphan is not None:
        mu = ref_periphery_hide_weight(n, s, u)
        spread = kappa * mu
        probs[topo.middle_orphan] = kappa * (1 - mu)
    hide = topo.periphery_nodes or topo.component_nodes
    for v in hide:
        probs[v] = spread / len(hide)
    for v in topo.singleton_nodes:
        probs[v] = (1 - kappa) / s
    return probs


def hider_on(topo, u):
    """hider_strategy on topo, with its context's row under u."""
    n, s = topo.graph.node_count, len(topo.singleton_nodes)
    return dz.hider_strategy(topo, cf.value_row(n, s, len(topo.periphery_nodes), u))


@pytest.mark.parametrize("n", [1000, 5000])
def test_integer_strategies_match_fraction_builders(n):
    # linear beta 2 builds core-periphery parts of either parity; x^2 beta 50
    # builds a cycle.
    cases = [(n, identity_u(2)), (n + 1, identity_u(2)), (n, square_u(50))]
    seen = set()
    for size, u in cases:
        res = dz.design_optimal(size, u)
        seen.add(res.topology)
        want_hider = [format_rational(p) for p in fraction_hider_strategy(res, u)]
        want_seeker = [format_rational(p) for p in fraction_seeker_strategy(res.graph, u)]
        assert res.hider.to_pq() == want_hider, (size, u)
        assert res.seeker.to_pq() == want_seeker, (size, u)
    assert seen == {dz.CYCLE, dz.MAXIMAL_CP_EVEN, dz.MAXIMAL_CP_ODD}
    # Isolated nodes beside a core-periphery part (odd at 1000, even at
    # 5000), under a beta large enough that both players mix them in.
    x = n - n // 3
    topo = dz.design_topology(n, n // 3, x // 2 if x % 2 == 0 else (x - 3) // 2)
    u = identity_u(10**7)
    hider, seeker = hider_on(topo, u), dz.seeker_strategy(topo.graph, u)
    assert hider[n - 1] > 0 and seeker[n - 1] > 0
    assert hider.to_pq() == [format_rational(p) for p in fraction_hider_strategy(topo, u)]
    assert seeker.to_pq() == [format_rational(p) for p in fraction_seeker_strategy(topo.graph, u)]


def test_hider_strategy_shapes():
    u = identity_u(2)
    topo = dz.design_topology(8, 0, 4)
    h = hider_on(topo, u)
    assert h.probs == (F(0),) * 4 + (F(1, 4),) * 4
    topo = dz.design_topology(6, 0, 0)
    h = hider_on(topo, u)
    assert h.probs == (F(1, 6),) * 6
    # odd layout: periphery mass plus middle orphan mass sums to one
    topo = dz.design_topology(9, 0, 3)
    h = hider_on(topo, u)
    assert sum(h.probs) == 1
    assert h[topo.middle_orphan] > 0
    # a row of another context is refused
    for s, m in ((0, 2), (1, 3), (9, 0)):
        with pytest.raises(dz.DesignError, match="is not this design's"):
            dz.hider_strategy(topo, cf.value_row(9, s, m, u))


def test_design_optimal_examples():
    res = dz.design_optimal(4, identity_u(0))
    assert res.topology == dz.MAXIMAL_CP_EVEN and res.s_star == 0
    assert res.predicted_value == 1

    res = dz.design_optimal(12, square_u(1))
    assert res.topology == dz.CYCLE
    assert res.predicted_value == F(181, 2)

    res = dz.design_optimal(8, identity_u(2))
    assert res.topology == dz.MAXIMAL_CP_EVEN
    assert res.predicted_value == 4

    res = dz.design_optimal(6, identity_u(1000))
    assert res.topology == dz.ALL_SINGLETONS
    assert res.predicted_value == -cf_singleton(6, 1000)

    res = dz.design_optimal(5, identity_u(2))
    assert res.topology == dz.MAXIMAL_CP_ODD
    assert res.predicted_value == F(8, 11)


def cf_singleton(n, beta):
    return cf.value_row(n, n, 0, identity_u(beta)).singleton


def test_design_optimal_certifies_equilibrium_grid():
    # moderate grid here; the full acceptance battery covers n up to 12
    for n in range(4, 10):
        for u in (identity_u(0), identity_u(2), square_u(1), ratio_u(F(1, 2))):
            res = dz.design_optimal(n, u)
            assert len(res.graph.isolated_nodes()) == res.s_star
            m = payoff_matrix(res.graph, u)
            assert best_response_gap(m, res.hider, res.seeker) == (0, 0)
            assert strategy_payoff(m, res.hider, res.seeker) == res.predicted_value


def test_design_with_interior_singleton_count():
    # odd budgets handicap the fully connected design (its odd layout keeps
    # three orphans), so a moderate penalty makes one isolated node plus a
    # 4-node core-periphery part strictly best; both players then genuinely
    # mix between the component and the singleton
    cases = [
        (5, identity_u(3), F(5, 17)),
        (5, square_u(17), F(-7, 3)),
        (7, identity_u(13), F(-47, 65)),
    ]
    for n, u, value in cases:
        res = dz.design_optimal(n, u)
        assert res.s_star == 1
        assert res.topology == dz.MAXIMAL_CP_EVEN
        assert res.predicted_value == value
        assert res.hider[res.singleton_nodes[0]] > 0
        assert res.seeker[res.singleton_nodes[0]] > 0
        m = payoff_matrix(res.graph, u)
        assert best_response_gap(m, res.hider, res.seeker) == (0, 0)
        assert solve_zero_sum(m).value == value


def test_design_interior_tie_returns_both_counts():
    counts, bound = cf.optimal_singleton_counts(5, identity_u(4))
    assert counts == (1, 5) and bound == 0
    # smallest-count policy picks the more connected design
    res = dz.design_optimal(5, identity_u(4))
    assert res.s_star == 1 and res.predicted_value == 0


def test_design_json_and_dot():
    res = dz.design_optimal(9, identity_u(2))
    data = res.to_json_dict()
    assert data["topology"] in ("cycle", "maximal_cp_even", "maximal_cp_odd", "all_singletons")
    assert len(data["hider_strategy"]) == 9
    dot = res.to_dot()
    assert "--" in dot


# The verify grid (linear and power x^2 at every beta of BETA_GRID), plus
# ratio_power gamma = 2 and the float-backed power gamma = 3/2.
DESIGN_GRID = tuple(
    make(beta)
    for make in (identity_u, square_u, ratio_u, lambda b: UtilitySpec.power(F(3, 2), b))
    for beta in BETA_GRID
)

# SHA-256 over format_json(to_json_dict()) then to_dot() of design_optimal(n, u)
# for each u of DESIGN_GRID and n = 4..40, the closed forms' domain, taken
# before designs refused n < 4 (over n = 1..40 the same bytes gave 363f46ec...).
DESIGN_GRID_SHA256 = "bedf3723b9d3adb85b3922e5bd53b9c11b9f15a99335f63781e84203df756947"


@functools.lru_cache(maxsize=None)
def grid_designs():
    return tuple((n, dz.design_optimal(n, u)) for u in DESIGN_GRID for n in range(4, 41))


def test_design_bytes_pinned_over_the_grid():
    digest = hashlib.sha256()
    for _, res in grid_designs():
        digest.update(format_json(res.to_json_dict()).encode())
        digest.update(res.to_dot().encode())
    assert digest.hexdigest() == DESIGN_GRID_SHA256


def test_design_roles_are_those_of_its_topology():
    for n, res in grid_designs():
        topo = dz.design_topology(n, res.s_star, len(res.periphery_nodes))
        for name in dz.DesignTopology._fields:
            assert getattr(res, name) == getattr(topo, name), (n, name)


def test_cycle_and_cp_capture_rates():
    u = identity_u(1)
    for k in range(4, 13):
        topo = dz.design_topology(k, 0, 0)
        h = hider_on(topo, u)
        s = dz.seeker_strategy(topo.graph, u)
        assert capture_probability(topo.graph, h, s) == F(3, k)
        if k % 2 == 0:
            topo = dz.design_topology(k, 0, k // 2)
            h = hider_on(topo, u)
            s = dz.seeker_strategy(topo.graph, u)
            assert capture_probability(topo.graph, h, s) == F(2, k)


def test_chorded_cycle_values_match_plain_cycle():
    u = square_u(1)
    base = solve_zero_sum(payoff_matrix(dz.build_cycle(12), u)).value
    for chords in ([], [(1, 5)], [(2, 7), (8, 10)]):
        g, h, s = chorded_cycle_equilibrium(4, chords)
        m = payoff_matrix(g, u)
        assert best_response_gap(m, h, s) == (0, 0)
        assert strategy_payoff(m, h, s) == base


# -- the certificate read off the graph, against the dense matrix -----------


def graph_gap(g, u, hider, seeker):
    rows, cols, den = strategy_payoffs(g, u, hider, seeker)
    return tuple(regret / den for regret in gap_from_payoffs(hider, rows, cols))


def test_design_certificate_matches_dense_gap_up_to_fifty():
    # linear beta 50 builds every core-periphery layout, with one isolated
    # node at n = 11; x^2 beta 50 builds cycles; linear beta 1000 keeps
    # isolated nodes beside large parts (n = 35, 37, 39) and is all
    # singletons below.
    seen = set()
    for u in (identity_u(50), square_u(50), identity_u(1000)):
        for n in range(4, 51):
            res = dz.design_optimal(n, u)
            dense = best_response_gap(payoff_matrix(res.graph, u), res.hider, res.seeker)
            assert graph_gap(res.graph, u, res.hider, res.seeker) == dense == (0, 0)
            seen.add((res.topology, res.s_star > 0))
    assert {
        (dz.CYCLE, False),
        (dz.MAXIMAL_CP_EVEN, False),
        (dz.MAXIMAL_CP_ODD, False),
        (dz.MAXIMAL_CP_EVEN, True),
        (dz.ALL_SINGLETONS, True),
    } <= seen


def shift_half(strategy, src, dst):
    probs = list(strategy)
    probs[dst] += probs[src] / 2
    probs[src] /= 2
    return MixedStrategy(probs)


def test_perturbed_design_gap_matches_dense():
    cases = [(12, square_u(1)), (10, identity_u(2)), (9, identity_u(2)), (11, identity_u(50))]
    for n, u in cases:
        res = dz.design_optimal(n, u)
        m = payoff_matrix(res.graph, u)
        src = res.hider.support()[0]
        for dst in (src + 1, n - 1):
            hider = shift_half(res.hider, src, dst)
            gap = best_response_gap(m, hider, res.seeker)
            assert gap != (0, 0)
            assert graph_gap(res.graph, u, hider, res.seeker) == gap
            seeker = shift_half(res.seeker, res.seeker.support()[0], dst)
            gap = best_response_gap(m, res.hider, seeker)
            assert gap != (0, 0)
            assert graph_gap(res.graph, u, res.hider, seeker) == gap


def test_design_certifies_at_a_thousand_and_one_nodes():
    # A dense certificate would build a 1001 x 1001 matrix of Fractions.
    res = dz.design_optimal(1001, identity_u(2))
    assert res.topology == dz.MAXIMAL_CP_ODD and res.s_star == 0
    assert res.graph.node_count == 1001
