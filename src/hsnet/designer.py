"""Optimal-network constructors and the equilibrium strategies played on them.

An optimal design is a number of isolated nodes plus one connected part:
a cycle when the growth threshold clears the capture penalty, otherwise a
maximal core-periphery layout (half leaves when the part has even size; with
three orphaned core nodes, the middle one wired to exactly the other two,
when odd).  ``design_optimal`` picks the best isolated-node count, builds the
layout, attaches both players' closed-form strategies, and certifies the
pair by a zero best-response gap.  The gap is computed exactly from the graph
(``payoff.strategy_payoffs``) without building the n x n payoff matrix.
"""

from __future__ import annotations

from fractions import Fraction

from . import closed_form as cf
from .graphs import (
    Graph,
    classify,
    graph_to_json_dict,
    induced_subgraph,
    is_connected,
    is_two_connected,
    to_dot,
)
from .matrix_game import MixedStrategy, gap_from_payoffs
from .payoff import UtilitySpec, strategy_payoffs
from .rationals import format_rational
from .records import Record

ZERO = Fraction(0)
ONE = Fraction(1)

CYCLE = "cycle"
MAXIMAL_CP_EVEN = "maximal_cp_even"
MAXIMAL_CP_ODD = "maximal_cp_odd"
ALL_SINGLETONS = "all_singletons"


class DesignError(ValueError):
    pass


def build_cycle(k: int) -> Graph:
    if k < 3:
        raise DesignError(f"a cycle needs at least 3 nodes, got {k}")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


class DesignTopology(Record):
    """A built design with its node roles recorded by id.

    Strategies read the roles from here rather than re-deriving them, so the
    middle orphan of an odd layout is never ambiguous.  Node roles are tuples
    of ids; ``middle_orphan`` is an id or None.
    """

    __slots__ = _fields = (
        "tag", "graph", "component_nodes", "core_nodes", "periphery_nodes",
        "orphan_nodes", "middle_orphan", "singleton_nodes",
    )


def _maximal_cp_topology(k: int) -> DesignTopology:
    if k < 4:
        raise DesignError(f"a maximal core-periphery part needs >= 4 nodes, got {k}")
    if k % 2 == 0:
        q = k // 2
        # A 2-node core degenerates to a single edge; otherwise a cycle is
        # the simplest 2-connected choice.
        edges = [(0, 1)] if q == 2 else list(build_cycle(q).edges)
        for i in range(q):
            edges.append((i, q + i))
        g = Graph(k, edges)
        return DesignTopology(
            tag=MAXIMAL_CP_EVEN,
            graph=g,
            component_nodes=tuple(range(k)),
            core_nodes=tuple(range(q)),
            periphery_nodes=tuple(range(q, k)),
            orphan_nodes=(),
            middle_orphan=None,
            singleton_nodes=(),
        )
    p = (k - 3) // 2
    q = p + 3
    edges = list(build_cycle(q).edges)
    for j in range(p):
        edges.append((j, q + j))
    g = Graph(k, edges)
    # Orphans sit consecutively on the core cycle; the middle one is then
    # adjacent to exactly the other two.
    orphans = (q - 3, q - 2, q - 1)
    return DesignTopology(
        tag=MAXIMAL_CP_ODD,
        graph=g,
        component_nodes=tuple(range(k)),
        core_nodes=tuple(range(q)),
        periphery_nodes=tuple(range(q, k)),
        orphan_nodes=orphans,
        middle_orphan=q - 2,
        singleton_nodes=(),
    )


def build_maximal_cp(k: int) -> Graph:
    """Maximal core-periphery layout on k nodes (k >= 4)."""
    return _maximal_cp_topology(k).graph


def _with_singletons(topo: DesignTopology, s: int) -> DesignTopology:
    if s == 0:
        return topo
    k = topo.graph.node_count
    g = Graph(k + s, topo.graph.edges)
    return DesignTopology(
        tag=topo.tag,
        graph=g,
        component_nodes=topo.component_nodes,
        core_nodes=topo.core_nodes,
        periphery_nodes=topo.periphery_nodes,
        orphan_nodes=topo.orphan_nodes,
        middle_orphan=topo.middle_orphan,
        singleton_nodes=tuple(range(k, k + s)),
    )


def design_topology(n: int, s: int, tag: str) -> DesignTopology:
    """The design with s isolated nodes and the given connected-part layout."""
    if not 0 <= s <= n:
        raise DesignError(f"need 0 <= s <= n, got s={s}")
    if tag == ALL_SINGLETONS:
        if s != n:
            raise DesignError("all-singleton design needs s = n")
        return DesignTopology(
            tag=ALL_SINGLETONS,
            graph=Graph(n),
            component_nodes=(),
            core_nodes=(),
            periphery_nodes=(),
            orphan_nodes=(),
            middle_orphan=None,
            singleton_nodes=tuple(range(n)),
        )
    x = n - s
    if tag == CYCLE:
        base = build_cycle(x)
        topo = DesignTopology(
            tag=CYCLE,
            graph=base,
            component_nodes=tuple(range(x)),
            core_nodes=(),
            periphery_nodes=(),
            orphan_nodes=(),
            middle_orphan=None,
            singleton_nodes=(),
        )
    elif tag in (MAXIMAL_CP_EVEN, MAXIMAL_CP_ODD):
        topo = _maximal_cp_topology(x)
        if topo.tag != tag:
            raise DesignError(f"component size {x} has the wrong parity for {tag}")
    else:
        raise DesignError(f"unknown topology tag {tag!r}")
    return _with_singletons(topo, s)


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
        raise DesignError(f"need t >= 2, got {t}")
    size = 3 * t
    designated = set(chorded_cycle_designated(t))
    edges = set(build_cycle(size).edges)
    for chord in chords:
        a, b = chord
        if not (0 <= a < size and 0 <= b < size) or a == b:
            raise DesignError(f"bad chord ({a},{b})")
        if a in designated or b in designated:
            raise DesignError(f"chord ({a},{b}) touches a designated degree-2 node")
        key = (min(a, b), max(a, b))
        if key in edges:
            raise DesignError(f"chord ({a},{b}) duplicates an existing edge")
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
    hider = MixedStrategy.uniform_over(chorded_cycle_designated(t), g.node_count)
    seeker = MixedStrategy.uniform(g.node_count)
    return g, hider, seeker


# -- recognizer used by the brute-force verifier ----------------------------


def is_maximal_core_periphery(g: Graph) -> bool:
    """Whether a connected graph is a maximal core-periphery layout."""
    k = g.node_count
    if k < 4 or not is_connected(g):
        return False
    leaves = [v for v in range(k) if g.degree(v) == 1]
    core = [v for v in range(k) if g.degree(v) != 1]
    leaf_set = set(leaves)
    attach_counts = {
        c: sum(1 for w in g.neighbors(c) if w in leaf_set) for c in core
    }
    if any(cnt > 1 for cnt in attach_counts.values()):
        return False
    core_graph = induced_subgraph(g, core)
    if k % 2 == 0:
        if len(leaves) != k // 2:
            return False
        if len(core) == 2:
            return core_graph.edges == frozenset({(0, 1)})
        return is_two_connected(core_graph)
    if len(leaves) != (k - 3) // 2:
        return False
    orphans = [c for c in core if attach_counts[c] == 0]
    if len(orphans) != 3:
        return False
    if not is_two_connected(core_graph):
        return False
    orphan_set = set(orphans)
    return any(
        set(g.neighbors(o)) == orphan_set - {o} for o in orphans
    )


# -- strategies -------------------------------------------------------------


def seeker_strategy(g: Graph, u: UtilitySpec) -> MixedStrategy:
    """The seeker's closed-form mixed strategy for an arbitrary graph.

    Mass lands on isolated nodes, on leaf attachments, and inside the
    residual set (where leaves of the residual subgraph shed their mass onto
    their neighbors, except in 2-node pieces).  Degenerate classes get zero
    weight, so the result is a valid distribution for every graph.
    """
    n = g.node_count
    if n == 0:
        raise DesignError("seeker strategy needs at least one node")
    part = classify(g)
    s = part.singleton_count
    m = part.m_count
    probs = [ZERO] * n
    if s == n:
        return MixedStrategy.uniform(n)

    if s == 0:
        lam_s = ZERO
    elif n - s >= 4:
        lam_s = cf.singleton_seek_weight(n, m, s, u)
    else:
        lam_s = ZERO  # tiny connected parts: all mass stays outside singletons
    if part.r_count == 0:
        lam_r = ZERO
    elif m == 0:
        lam_r = ONE
    else:
        lam_r = cf.interior_seek_weight(n, m, s, u)

    if s:
        for v in part.singletons:
            probs[v] = lam_s / s
    rest = ONE - lam_s
    if part.r_count:
        r = part.r_count
        gr = part.gr
        gr_leaves = {i for i in range(gr.node_count) if gr.degree(i) == 1}
        for i, v in enumerate(part.gr_nodes):
            if i not in gr_leaves:
                leaf_neighbors = sum(1 for j in gr.neighbors(i) if j in gr_leaves)
                probs[v] += rest * lam_r * Fraction(leaf_neighbors + 1, r)
            elif v in part.d_gr:
                probs[v] += rest * lam_r * Fraction(1, r)
    if m:
        for v in part.m_nodes:
            probs[v] += rest * (ONE - lam_r) / m
    return MixedStrategy(probs)


def hider_strategy(topo: DesignTopology, u: UtilitySpec) -> MixedStrategy:
    """The hider's closed-form strategy on a design built by this module,
    whose DesignTopology record names the node roles."""
    n = topo.graph.node_count
    s = len(topo.singleton_nodes)
    probs = [ZERO] * n
    if topo.tag == ALL_SINGLETONS:
        return MixedStrategy.uniform(n)
    x = n - s
    if topo.tag == CYCLE:
        abar = cf.component_guarantee(n, 0, s, u)
        kappa = cf.component_hide_weight(n, s, u, abar)
        for v in topo.component_nodes:
            probs[v] = kappa / x
    elif topo.tag == MAXIMAL_CP_EVEN:
        m = x // 2
        abar = cf.component_guarantee(n, m, s, u)
        kappa = cf.component_hide_weight(n, s, u, abar)
        for v in topo.periphery_nodes:
            probs[v] = kappa / m
    elif topo.tag == MAXIMAL_CP_ODD:
        m = (x - 3) // 2
        abar = cf.component_guarantee(n, m, s, u)
        kappa = cf.component_hide_weight(n, s, u, abar)
        mu = cf.periphery_hide_weight(n, s, u)
        for v in topo.periphery_nodes:
            probs[v] = kappa * mu / m
        probs[topo.middle_orphan] = kappa * (ONE - mu)
    else:
        raise DesignError(f"unknown topology tag {topo.tag!r}")
    if s:
        for v in topo.singleton_nodes:
            probs[v] = (ONE - kappa) / s
    return MixedStrategy(probs)


# -- full design ------------------------------------------------------------


class DesignResult(Record):
    """An optimal design together with its certified equilibrium: the
    topology tag, the graph, both strategies, the predicted value (the
    hider's) and the node roles of its DesignTopology."""

    __slots__ = _fields = (
        "n", "s_star", "topology", "graph", "hider", "seeker", "predicted_value",
        "component_nodes", "core_nodes", "periphery_nodes", "orphan_nodes",
        "middle_orphan", "singleton_nodes",
    )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "s_star": self.s_star,
            "topology": self.topology,
            "graph": graph_to_json_dict(self.graph),
            "hider_strategy": self.hider.to_pq(),
            "seeker_strategy": self.seeker.to_pq(),
            "predicted_value": format_rational(self.predicted_value),
            "component_nodes": list(self.component_nodes),
            "core_nodes": list(self.core_nodes),
            "periphery_nodes": list(self.periphery_nodes),
            "orphan_nodes": list(self.orphan_nodes),
            "middle_orphan": self.middle_orphan,
            "singleton_nodes": list(self.singleton_nodes),
        }

    def dot_roles(self) -> dict[int, str]:
        roles = {}
        for v in self.core_nodes:
            roles[v] = "core"
        for v in self.orphan_nodes:
            roles[v] = "orphan"
        if self.middle_orphan is not None:
            roles[self.middle_orphan] = "middle_orphan"
        for v in self.periphery_nodes:
            roles[v] = "periphery"
        for v in self.singleton_nodes:
            roles[v] = "singleton"
        return roles

    def to_dot(self) -> str:
        return to_dot(self.graph, self.dot_roles())


def design_optimal(n: int, u: UtilitySpec) -> DesignResult:
    """Best design for n nodes under u, with both equilibrium strategies.

    Ties in the optimal isolated-node count resolve to the smallest (most
    connected) choice.  The returned strategies are certified: their exact
    best-response gap is (0, 0) and the achieved payoff equals the predicted
    value.  Both come from M.seeker and hider.M, read off the graph by one
    low-link DFS without building the payoff matrix M.
    """
    counts, bound = cf.optimal_singleton_counts(n, u)
    s = counts[0]
    if s == n:
        tag = ALL_SINGLETONS
    else:
        t = cf.topology_threshold(n, s, u)
        if t >= u.beta:
            tag = CYCLE
        else:
            tag = MAXIMAL_CP_EVEN if (n - s) % 2 == 0 else MAXIMAL_CP_ODD
    topo = design_topology(n, s, tag)
    hider = hider_strategy(topo, u)
    seeker = seeker_strategy(topo.graph, u)
    predicted = -bound
    row_payoffs, col_payoffs = strategy_payoffs(topo.graph, u, hider, seeker)
    gap = gap_from_payoffs(hider, row_payoffs, col_payoffs)
    if gap != (ZERO, ZERO):
        raise AssertionError(f"constructed strategies are not an equilibrium: {gap}")
    # At a zero gap every row the hider plays earns the pair's payoff.
    achieved = row_payoffs[hider.support()[0]]
    if achieved != predicted:
        raise AssertionError(
            f"equilibrium payoff {achieved} differs from predicted {predicted}"
        )
    return DesignResult(
        n=n,
        s_star=s,
        topology=tag,
        graph=topo.graph,
        hider=hider,
        seeker=seeker,
        predicted_value=predicted,
        component_nodes=topo.component_nodes,
        core_nodes=topo.core_nodes,
        periphery_nodes=topo.periphery_nodes,
        orphan_nodes=topo.orphan_nodes,
        middle_orphan=topo.middle_orphan,
        singleton_nodes=topo.singleton_nodes,
    )
