"""Optimal-network constructors and the equilibrium strategies played on them.

An optimal design is a number of isolated nodes plus one connected part:
a cycle when the growth threshold clears the capture penalty, otherwise a
maximal core-periphery layout (half leaves when the part has even size; with
three orphaned core nodes, the middle one wired to exactly the other two,
when odd).  ``design_topology`` is the one builder: it writes a layout's edges
and node roles in one pass.  ``design_optimal`` picks the best isolated-node
count, builds the layout, attaches both players' closed-form strategies (the
hider's read off the roles, the seeker's off ``classify``, which counts each
node's leaf and residual neighbours in its neighbour tuple and builds no
subgraph), and certifies the pair by a zero best-response gap.  The gap is
computed in integers from the graph (``payoff.strategy_payoffs`` and
``payoff.gap_from_payoffs``), without building the n x n payoff matrix, so
no game solver is loaded.  The verifier's shape recognizer lives with the
verifier, in ``hsnet.oracle``.
"""

from __future__ import annotations

from fractions import Fraction

from . import closed_form as cf
from .graphs import Graph, graph_to_json_dict, to_dot
from .payoff import MixedStrategy, UtilitySpec, gap_from_payoffs, strategy_payoffs
from .rationals import format_rational, over_common_denominator
from .records import Record

ZERO = Fraction(0)
ONE = Fraction(1)

CYCLE = "cycle"
MAXIMAL_CP_EVEN = "maximal_cp_even"
MAXIMAL_CP_ODD = "maximal_cp_odd"
ALL_SINGLETONS = "all_singletons"


class DesignError(ValueError):
    pass


class DesignTopology(Record):
    """A built design with its node roles recorded by id.

    Strategies read the roles from here rather than re-deriving them, so the
    middle orphan of an odd layout is never ambiguous.  Node roles are tuples
    of ids; ``middle_orphan`` is an id or None.
    """

    __slots__ = _fields = (
        "topology", "graph", "component_nodes", "core_nodes", "periphery_nodes",
        "orphan_nodes", "middle_orphan", "singleton_nodes",
    )


def design_topology(n: int, s: int, tag: str) -> DesignTopology:
    """The design with s isolated nodes and the given connected-part layout.

    The part takes nodes 0..x-1, x = n - s, and the isolated nodes come last.
    A cycle is a ring on the whole part.  A maximal core-periphery part rings
    its q core nodes first (a 2-node core is one edge) and hangs periphery
    node q + j off core node j; an odd part leaves the last three core nodes
    orphaned, consecutive on the ring, so the middle one is adjacent to
    exactly the other two.
    """
    if type(n) is not int or type(s) is not int or not 0 <= s <= n:
        raise DesignError(f"need ints 0 <= s <= n, got s={s!r}, n={n!r}")
    x = n - s
    m = 0
    if tag == ALL_SINGLETONS:
        if s != n:
            raise DesignError("all-singleton design needs s = n")
    elif tag == CYCLE:
        if x < 3:
            raise DesignError(f"a cycle needs at least 3 nodes, got {x}")
    elif tag in (MAXIMAL_CP_EVEN, MAXIMAL_CP_ODD):
        if x < 4:
            raise DesignError(f"a maximal core-periphery part needs >= 4 nodes, got {x}")
        if x % 2 != (tag == MAXIMAL_CP_ODD):
            raise DesignError(f"component size {x} has the wrong parity for {tag}")
        m = x // 2 if x % 2 == 0 else (x - 3) // 2
    else:
        raise DesignError(f"unknown topology tag {tag!r}")
    q = x - m
    edges = [(0, 1)] if q == 2 else [(i, (i + 1) % q) for i in range(q)]
    edges.extend((j, q + j) for j in range(m))
    core = orphans = ()
    middle = None
    if m:
        core = tuple(range(q))
        if x % 2:
            orphans, middle = (q - 3, q - 2, q - 1), q - 2
    return DesignTopology(
        tag, Graph(n, edges), tuple(range(x)), core, tuple(range(q, x)),
        orphans, middle, tuple(range(x, n)),
    )


def build_cycle(k: int) -> Graph:
    return design_topology(k, 0, CYCLE).graph


def build_maximal_cp(k: int) -> Graph:
    """Maximal core-periphery layout on k nodes (k >= 4)."""
    return design_topology(k, 0, MAXIMAL_CP_ODD if k % 2 else MAXIMAL_CP_EVEN).graph


# -- strategies -------------------------------------------------------------


class SeekerPartition(Record):
    """Disjoint node classes driving the seeker's mixed strategy.

    singletons: degree-0 nodes.
    singleton_leaves: leaves whose (unique) neighbor has no other leaf.
    m_nodes: the attachment nodes of singleton leaves, one per leaf.
    r_nodes: everything else, the residual set.  ``r_degree[v]`` is v's
    degree in the subgraph induced on r_nodes, and 0 for v outside it;
    ``d_gr`` holds the residual nodes of residual degree 1 whose one
    residual neighbour has residual degree 1: the 2-node pieces of that
    subgraph.  No subgraph is built.

    The classes are pairwise disjoint and cover all nodes, so
    ``len(r_nodes) == n - s - 2m`` always holds.
    """

    __slots__ = _fields = (
        "singletons", "leaves", "leaf_neighbor_count", "m_nodes",
        "singleton_leaves", "r_nodes", "r_degree", "d_gr",
    )


def classify(g: Graph) -> SeekerPartition:
    """Compute the seeker's node classification from degrees and neighbour
    tuples, in O(n + e).

    A node joins ``m_nodes`` when it has exactly one leaf neighbor and is not
    itself a leaf; the non-leaf condition keeps the classes disjoint on
    2-node components (both endpoints of an isolated edge would otherwise
    count as attachment node and leaf at once).  Endpoints of isolated edges
    therefore land in ``r_nodes`` and in ``d_gr``.
    """
    n = g.node_count
    degrees = g.degrees()
    adjacency = list(map(g.neighbors, range(n)))
    singletons = frozenset(i for i in range(n) if degrees[i] == 0)
    leaves = frozenset(i for i in range(n) if degrees[i] == 1)
    is_leaf = [d == 1 for d in degrees].__getitem__
    lcount = tuple(sum(map(is_leaf, nbrs)) for nbrs in adjacency)
    m_nodes = frozenset(
        i for i in range(n) if lcount[i] == 1 and i not in leaves
    )
    singleton_leaves = frozenset(i for i in leaves if g.neighbors(i)[0] in m_nodes)
    claimed = singletons | singleton_leaves | m_nodes
    residual = [i not in claimed for i in range(n)]
    r_degree = tuple(sum(map(residual.__getitem__, nbrs)) if own else 0
                     for own, nbrs in zip(residual, adjacency))
    r_nodes = frozenset(i for i in range(n) if residual[i])
    # Off r_nodes the residual degree is 0, so the one neighbour of residual
    # degree 1 is the residual one.
    d_gr = frozenset(
        i for i in r_nodes
        if r_degree[i] == 1 and any(r_degree[j] == 1 for j in g.neighbors(i))
    )
    assert len(m_nodes) == len(singleton_leaves)
    assert len(r_nodes) == n - len(singletons) - 2 * len(m_nodes)
    return SeekerPartition(
        singletons, leaves, lcount, m_nodes, singleton_leaves, r_nodes, r_degree, d_gr,
    )


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
    s, m, r = len(part.singletons), len(part.m_nodes), len(part.r_nodes)
    if s == n:
        return MixedStrategy.uniform(n)

    # Tiny connected parts (n - s < 4) keep all mass outside the singletons.
    lam_s = cf.singleton_seek_weight(n, m, s, u) if s and n - s >= 4 else ZERO
    lam_r = ZERO if r == 0 else ONE if m == 0 else cf.interior_seek_weight(n, m, s, u)

    # Each class's share of one node, as integer weights over one
    # denominator; a residual node that is not a leaf of the residual
    # subgraph also takes the share of each leaf hanging off it.
    rest = ONE - lam_s
    (w_s, w_m, w_r), den = over_common_denominator((
        lam_s / s if s else ZERO, rest * (ONE - lam_r) / m if m else ZERO,
        rest * lam_r / r if r else ZERO))
    r_leaf = [d == 1 for d in part.r_degree]  # residual leaves: r_degree is 0 off r_nodes
    weights = [0] * n
    for v in part.r_nodes:
        if not r_leaf[v]:
            weights[v] = w_r * (1 + sum(map(r_leaf.__getitem__, g.neighbors(v))))
        elif v in part.d_gr:
            weights[v] = w_r
    for nodes, w in ((part.m_nodes, w_m), (part.singletons, w_s)):
        for v in nodes:
            weights[v] = w
    return MixedStrategy.from_weights(weights, den)


def hider_strategy(topo: DesignTopology, u: UtilitySpec) -> MixedStrategy:
    """The hider's closed-form strategy on a design built by this module,
    read off the node roles its DesignTopology names.

    The part gets weight kappa, spread evenly over its m periphery nodes (the
    whole part of a cycle, where m = 0), except that an odd layout's middle
    orphan takes the share 1 - mu of it; the isolated nodes share 1 - kappa.
    """
    n = topo.graph.node_count
    s = len(topo.singleton_nodes)
    if s == n:
        return MixedStrategy.uniform(n)
    abar = cf.component_guarantee(n, len(topo.periphery_nodes), s, u)
    kappa = cf.component_hide_weight(n, s, u, abar)
    mu = ONE if topo.middle_orphan is None else cf.periphery_hide_weight(n, s, u)
    hide = topo.periphery_nodes or topo.component_nodes
    (w_hide, w_middle, w_single), den = over_common_denominator(
        (kappa * mu / len(hide), kappa * (ONE - mu), (ONE - kappa) / s if s else ZERO))
    middle = () if topo.middle_orphan is None else (topo.middle_orphan,)
    weights = [0] * n
    for nodes, w in ((hide, w_hide), (middle, w_middle), (topo.singleton_nodes, w_single)):
        for v in nodes:
            weights[v] = w
    return MixedStrategy.from_weights(weights, den)


# -- full design ------------------------------------------------------------


class DesignResult(DesignTopology):
    """An optimal design, as the DesignTopology it was built as, together with
    its certified equilibrium: both strategies and the predicted value (the
    hider's) at the optimal isolated-node count s_star."""

    __slots__ = ("n", "s_star", "hider", "seeker", "predicted_value")
    _fields = DesignTopology._fields + __slots__

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
    row_payoffs, col_payoffs, den = strategy_payoffs(topo.graph, u, hider, seeker)
    gap = gap_from_payoffs(hider, row_payoffs, col_payoffs)
    if gap != (ZERO, ZERO):
        raise AssertionError(f"constructed strategies are not an equilibrium: {gap} over {den}")
    # At a zero gap every row the hider plays earns the pair's payoff.
    achieved = Fraction(row_payoffs[hider.support()[0]], den)
    if achieved != predicted:
        raise AssertionError(
            f"equilibrium payoff {achieved} differs from predicted {predicted}"
        )
    return DesignResult(*topo._values(), n, s, hider, seeker, predicted)
