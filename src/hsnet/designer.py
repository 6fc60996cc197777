"""Optimal-network constructors and the equilibrium strategies played on them.

An optimal design is a number of isolated nodes plus one connected part:
a cycle when the growth threshold clears the capture penalty, otherwise a
maximal core-periphery layout (half leaves when the part has even size; with
three orphaned core nodes, the middle one wired to exactly the other two,
when odd).  ``closed_form.design_row`` decides which, once: its row names
the isolated-node count s and the leaf count m.  ``design_topology`` is the
one builder: from (n, s, m) it writes a layout's edges and node roles in one
pass.  ``design_optimal`` builds the layout of that row, attaches both
players' closed-form strategies (the hider's read off the roles and the row,
the seeker's off ``classify``, one class byte per node counted in place from
the neighbour tuples), and certifies the pair by a zero best-response gap.
The gap is computed in integers from the graph, by ``strategy_payoffs`` here
and ``payoff.gap_from_payoffs``, without building the n x n payoff matrix,
so no game solver is loaded.  The verifier's shape recognizer,
``hsnet.oracle.is_maximal_core_periphery``, reads a layout off ``classify``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm

from . import closed_form as cf
from .graphs import Graph, GraphError, _deletion_pieces, _dfs_low_links, graph_to_json_dict, to_dot
from .payoff import MixedStrategy, UtilitySpec, _weights, gap_from_payoffs
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


def design_topology(n: int, s: int, m: int) -> DesignTopology:
    """The design with s isolated nodes and m leaves in its connected part.

    The part takes nodes 0..x-1, x = n - s, and the isolated nodes come last.
    Its q = x - m core nodes form a ring (a 2-node core is one edge), and
    leaf q + j hangs off core node j.  The layout, and so the tag, follows
    from (x, m): no part (all singletons), a ring on x >= 3 nodes with no
    leaves (a cycle), or a maximal core-periphery part on x >= 4 nodes, with
    ``cf.maximal_leaf_count(x)`` leaves; when x is odd its last three core
    nodes are orphaned, consecutive on the ring, so the middle one is
    adjacent to exactly the other two.  Any other (x, m) is a DesignError.
    """
    if type(n) is not int or type(s) is not int or not 0 <= s <= n:
        raise DesignError(f"need ints 0 <= s <= n, got s={s!r}, n={n!r}")
    x = n - s
    if type(m) is not int or not (m == 0 and x not in (1, 2)
                                  or x >= 4 and m == cf.maximal_leaf_count(x)):
        raise DesignError(f"no design has m={m!r} leaves on {x} connected nodes")
    q = x - m
    edges = [(0, 1)] if q == 2 else [(i, (i + 1) % q) for i in range(q)]
    edges.extend((j, q + j) for j in range(m))
    tag, core, orphans, middle = CYCLE if x else ALL_SINGLETONS, (), (), None
    if m:
        tag, core = MAXIMAL_CP_EVEN, tuple(range(q))
    if m and x % 2:
        tag, orphans, middle = MAXIMAL_CP_ODD, (q - 3, q - 2, q - 1), q - 2
    return DesignTopology(
        tag, Graph(n, edges), tuple(range(x)), core, tuple(range(q, x)),
        orphans, middle, tuple(range(x, n)),
    )


def build_cycle(k: int) -> Graph:
    """The cycle on k >= 3 nodes."""
    if k == 0:  # design_topology(0, 0, 0) is the empty all-singletons design
        raise DesignError("a cycle needs at least 3 nodes, got 0")
    return design_topology(k, 0, 0).graph


def build_maximal_cp(k: int) -> Graph:
    """The maximal core-periphery layout on k >= 4 nodes."""
    topo = design_topology(k, 0, cf.maximal_leaf_count(k))
    if not topo.periphery_nodes:
        raise DesignError(f"a maximal core-periphery part needs >= 4 nodes, got {k}")
    return topo.graph


# -- strategies -------------------------------------------------------------


# A node's class, one byte per node in what ``classify`` returns.
SINGLETON, SINGLETON_LEAF, ATTACHMENT = 0, 1, 2
RESIDUAL, RESIDUAL_LEAF, RESIDUAL_PAIR = 3, 4, 5


def classify(g: Graph) -> bytes:
    """The seeker's node classes, one byte per node, counted in place from
    degrees and neighbour tuples: past passes over the degrees, only leaves
    and the neighbours of attachment nodes are visited.

    A SINGLETON has degree 0.  A SINGLETON_LEAF is a leaf whose neighbour,
    its ATTACHMENT node, has exactly one leaf neighbour and is not itself a
    leaf; the non-leaf condition keeps the classes disjoint on 2-node
    components (both endpoints of an isolated edge would otherwise count as
    attachment node and leaf at once), so those endpoints land in the
    residual set.  The rest is the residual set: its nodes are RESIDUAL_LEAF
    or RESIDUAL_PAIR when they are leaves or in 2-node pieces of the
    subgraph induced on it, and RESIDUAL otherwise.  The classes cover all
    nodes, so the residual set has n - s - 2m nodes.
    """
    n = g.node_count
    degrees = g.degrees()
    neighbors = g.neighbors
    leaves = [v for v, d in enumerate(degrees) if d == 1]
    lcount = [0] * n
    for v in leaves:
        lcount[neighbors(v)[0]] += 1
    kinds = bytearray(RESIDUAL if d else SINGLETON for d in degrees)
    attachments = []
    for v in leaves:
        p = neighbors(v)[0]
        if lcount[p] == 1 and degrees[p] != 1:
            kinds[v], kinds[p] = SINGLETON_LEAF, ATTACHMENT
            attachments.append(p)
    # A residual node's residual degree is its degree less its attachment
    # neighbours: a singleton leaf neighbours only its attachment node.
    r_degree = [d if kind == RESIDUAL else 0 for d, kind in zip(degrees, kinds)]
    touched = []
    for p in attachments:
        for w in neighbors(p):
            if kinds[w] == RESIDUAL:
                r_degree[w] -= 1
                touched.append(w)
    # So a residual degree of 1 is a leaf's or a touched node's.  Off the
    # residual set it is 0, so the one neighbour where it is not 0 is the
    # residual one, in the same 2-node piece when its residual degree is 1.
    for v in leaves + touched:
        if kinds[v] == RESIDUAL and r_degree[v] == 1:
            w = next(w for w in neighbors(v) if r_degree[w])
            if r_degree[w] == 1:
                kinds[v] = kinds[w] = RESIDUAL_PAIR
            else:
                kinds[v] = RESIDUAL_LEAF
    assert kinds.count(ATTACHMENT) == kinds.count(SINGLETON_LEAF)
    return bytes(kinds)


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
    kinds = classify(g)
    s, m = kinds.count(SINGLETON), kinds.count(ATTACHMENT)
    r = n - s - 2 * m
    if s == n:
        return MixedStrategy.uniform(n)

    # Tiny connected parts (n - s < 4, so m = 0) keep all mass outside the
    # singletons.  Otherwise lambda_S and rho, when either is needed, come
    # from the context's row: rho is 1 with no attachments (m = 0) and 0
    # with no residual set (r = 0).
    lam_s, lam_r = ZERO, ZERO if m else ONE
    if n - s >= 4 and (s or m and r):
        row = cf.value_row(n, s, m, u)
        lam_s, lam_r = row.singleton_weight, row.residual_weight

    # Each class's share of one node, as integer weights over one
    # denominator; a residual node that is not a leaf of the residual
    # subgraph also takes the share of each leaf hanging off it.
    rest = ONE - lam_s
    (w_s, w_m, w_r), den = over_common_denominator((
        lam_s / s if s else ZERO, rest * (ONE - lam_r) / m if m else ZERO,
        rest * lam_r / r if r else ZERO))
    share = (w_s, 0, w_m, w_r, 0, w_r)  # by kind, SINGLETON to RESIDUAL_PAIR
    weights = list(map(share.__getitem__, kinds))
    if RESIDUAL_LEAF in kinds:  # its one residual neighbour is RESIDUAL
        for v, kind in enumerate(kinds):
            if kind == RESIDUAL_LEAF:
                for w in g.neighbors(v):
                    if kinds[w] == RESIDUAL:
                        weights[w] += w_r
    return MixedStrategy.from_weights(weights, den)


def hider_strategy(topo: DesignTopology, row: cf.ValueReport) -> MixedStrategy:
    """The hider's closed-form strategy on a design built by this module,
    read off the node roles its DesignTopology names and the weights of its
    context's row, ``cf.value_row(n, s, m, u)``.

    The part gets weight kappa, spread evenly over its m periphery nodes (the
    whole part of a cycle, where m = 0), except that an odd layout's middle
    orphan takes the share 1 - mu of it; the isolated nodes share 1 - kappa.
    """
    n = topo.graph.node_count
    s = len(topo.singleton_nodes)
    if (row.n, row.s, row.m) != (n, s, len(topo.periphery_nodes)):
        raise DesignError(f"the row of (n, s, m) = {(row.n, row.s, row.m)} is not this design's")
    if s == n:
        return MixedStrategy.uniform(n)
    kappa = row.hide_weight
    mu = ONE if topo.middle_orphan is None else row.periphery_weight
    hide = topo.periphery_nodes or topo.component_nodes
    (w_hide, w_middle, w_single), den = over_common_denominator(
        (kappa * mu / len(hide), kappa * (ONE - mu), (ONE - kappa) / s if s else ZERO))
    middle = () if topo.middle_orphan is None else (topo.middle_orphan,)
    weights = [0] * n
    for nodes, w in ((hide, w_hide), (middle, w_middle), (topo.singleton_nodes, w_single)):
        for v in nodes:
            weights[v] = w
    return MixedStrategy.from_weights(weights, den)


# -- the certificate --------------------------------------------------------


def strategy_payoffs(g: Graph, u: UtilitySpec, hider, seeker) -> tuple:
    """(rows, cols, D): M.seeker and hider.M of g's hider-payoff matrix M, as
    lists of integers over one denominator D, without M.  Each strategy is a
    MixedStrategy, read as its weights by ``payoff._weights``.

    Deleting k leaves its separated DFS child subtrees, the rest of k's
    component and the other components (``graphs._deletion_pieces``).  A
    part is held when k leaves a node of it uncaught.  One pass records each
    held part's size and uncaught hider mass, and where k's seeker weight
    earns its f: ranges of preorder positions less some points.  Then
    ``u.integer_table`` is read once, over those sizes, which cells of M
    hold.  Captures (size 0, as in ``integer_payoffs``) and the other
    components are per-node and per-component sums.  No Fraction is built.
    Cost: O((n + e) log max-degree) integer operations.
    """
    n = g.node_count
    if n < 1:
        raise GraphError("payoff matrix needs at least one node")
    rho, rho_den = _weights(hider)
    sigma, sigma_den = _weights(seeker)
    if len(rho) != n or len(sigma) != n:
        raise GraphError("strategy length must equal node count")
    links = _dfs_low_links(g)
    order, tin, _, size, comp_start = links
    prefix = list(accumulate((rho[v] for v in order), initial=0))
    sigma_at, rho_at = sigma.__getitem__, rho.__getitem__
    caught_rows, caught_cols = [0] * n, [0] * n  # sigma(N[h]) and rho(N[k])
    # The rest of each k: its size, its uncaught hider mass and, when it is
    # held and k has seeker weight, k's neighbours outside its held pieces,
    # which with k earn less than the range add over k's component.
    rest_size, rest_mass, rest_points = [0] * n, [0] * n, [None] * n
    held_pieces = []  # (k, start, size, uncaught hider mass, k's neighbours in it)
    for k in range(n):
        a, nbrs = comp_start[k], g.neighbors(k)
        caught_rows[k] = sigma[k] + sum(map(sigma_at, nbrs))
        caught_cols[k] = rho[k] + sum(map(rho_at, nbrs))
        c = size[order[a]]
        pieces, rest = _deletion_pieces(links, k) if size[k] > 1 else ((), c - 1)
        left = prefix[a + c] - prefix[a] - caught_cols[k]
        points, near = nbrs, len(nbrs)
        if pieces:
            starts = [tin[ch] for ch in pieces]
            points, inside = [], [[] for _ in pieces]
            for w in nbrs:
                tw = tin[w]
                i = bisect_right(starts, tw) - 1
                if i >= 0 and tw < starts[i] + size[pieces[i]]:
                    inside[i].append(w)
                else:
                    points.append(w)
            near = len(points)
            for t, ch, hit in zip(starts, pieces, inside):
                x = size[ch]
                if len(hit) == x:  # fully caught: its nodes earn a capture
                    points.extend(hit)
                    continue
                m = prefix[t + x] - prefix[t] - sum(map(rho_at, hit))
                left -= m
                held_pieces.append((k, t, x, m, hit))
        rest_size[k], rest_mass[k] = rest, left
        if sigma[k] and near < rest:
            rest_points[k] = tuple(points)

    # Hiding in another component earns f(its size) whatever k is deleted.
    roots = [t for t, v in enumerate(order) if comp_start[v] == t]
    several = len(roots) > 1
    held = (x for x, m, p in zip(rest_size, rest_mass, rest_points) if m or p is not None)
    sizes = sorted({0, *held, *(x for _, _, x, _, _ in held_pieces),
                    *(size[order[t]] for t in roots if several)})
    values, den = u.integer_table(sizes)
    table = dict(zip(sizes, values))
    rows = [table[0] * w for w in caught_rows]
    cols = [table[0] * m for m in caught_cols]
    shift = [0] * (n + 1)
    for k in range(n):
        x, points = rest_size[k], rest_points[k]
        if rest_mass[k]:
            cols[k] += table[x] * rest_mass[k]
        if points is not None:
            v = table[x] * sigma[k]
            a = comp_start[k]
            shift[a] += v
            shift[a + size[order[a]]] -= v
            rows[k] -= v
            for w in points:
                rows[w] -= v
    for k, t, x, m, hit in held_pieces:
        cols[k] += table[x] * m
        v = table[x] * sigma[k]
        for w in hit:
            rows[w] -= v
        if rest_points[k] is not None:
            v -= table[rest_size[k]] * sigma[k]
        shift[t] += v
        shift[t + x] -= v
    for v, acc in zip(order, accumulate(shift)):
        rows[v] += acc
    if several:
        sigma_prefix = list(accumulate((sigma[v] for v in order), initial=0))
        earned = [(t, size[order[t]]) for t in roots]
        everywhere = sum(table[c] * (prefix[t + c] - prefix[t]) for t, c in earned)
        for t, c in earned:
            outside = sigma_prefix[n] - sigma_prefix[t + c] + sigma_prefix[t]
            elsewhere = everywhere - table[c] * (prefix[t + c] - prefix[t])
            for v in order[t : t + c]:
                rows[v] += table[c] * outside
                cols[v] += elsewhere
    # Rows are over D sigma_den and columns over D rho_den: bring both over one.
    common = lcm(rho_den, sigma_den)
    rows = [v * (common // sigma_den) for v in rows]
    cols = [v * (common // rho_den) for v in cols]
    return rows, cols, den * common


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

    The design, and the hider's weights, are those of ``cf.design_row``,
    whose ties in the optimal isolated-node count resolve to the smallest
    (most connected) choice.  The returned strategies are certified: their
    exact best-response gap is (0, 0) and the achieved payoff equals the
    predicted value.  Both come from M.seeker and hider.M, read off the graph
    by one low-link DFS without building the payoff matrix M.
    """
    row = cf.design_row(n, u)
    topo = design_topology(n, row.s, row.m)
    hider = hider_strategy(topo, row)
    seeker = seeker_strategy(topo.graph, u)
    predicted = -row.best_bound
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
    return DesignResult(*topo._values(), n, row.s, hider, seeker, predicted)
