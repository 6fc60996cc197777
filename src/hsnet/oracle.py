"""Brute-force verification: enumerate all small graphs, solve every game
exactly, and confirm the closed-form design claims.

For a node budget n the verifier walks every graph up to isomorphism,
computes the exact game value of each, and checks that

* the best achievable hider value equals minus the minimum closed-form
  seeker bound over admissible isolated-node counts;
* the constructed optimal design is among the argmax graphs;
* argmax graphs never contain 2- or 3-node components.  This check and
  the one on isolated counts are stated without an n = 4 exception, so at
  n = 4 they report the two exact ties there as failures: two disjoint
  edges (wherever the 4-node core-periphery path is optimal) and one edge
  plus two isolated nodes (where that path ties the empty graph);
* in the core-periphery regime the connected part of every argmax graph is
  a maximal core-periphery layout, and in the cycle regime it is
  2-connected with enough degree-2 nodes, and no optimal hider strategy
  puts mass on a node of degree > 2: one LP per graph, over every optimal
  strategy, at every n.

One sweep per n serves every utility of the grid.  It walks the canonical
keys of ``hsnet.canonical.enumerate_keys``, exact up to n = 8, builds each
key's Graph and its utility-free ``hsnet.matrix_game.capture_pattern`` once,
and maps the pattern through each utility's integer table over the sizes
0..n-1, read once per chunk of keys.  Those rows are a positive multiple of
``integer_payoffs``'s, with the same smallest integer image, so each LP
pivots as on them.  A sweep takes n >= 4, the closed forms' domain; the
n = 8 sweep sits behind ``verify_grid``'s one size guard, ``--long``.  Chunks
are solved in parallel when HSNET_THREADS asks for more than one worker;
results do not depend on it.  The structure queries of the checks live
here with their only caller: the components and 2-connectivity of a graph,
read off one low-link DFS, its induced subgraphs, and
``is_maximal_core_periphery``, the shape recognizer of the core-periphery
check, which reads the seeker's classes (``hsnet.designer.classify``) and
the designs' leaf count (``closed_form.maximal_leaf_count``).
"""

from __future__ import annotations

import math
import os

from . import closed_form as cf, parse_int
from .canonical import (
    CANONICAL_MAX_NODES,
    EnumerationError,
    canonical_form,
    enumerate_keys,
    graph_from_canonical_key,
)
from .designer import ATTACHMENT, SINGLETON_LEAF, classify, design_optimal
from .graphs import Graph, GraphError, _deletion_pieces, _dfs_low_links, graph_to_json_dict
from .matrix_game import capture_pattern, game_value, integer_payoffs, max_optimal_mass
from .payoff import UtilitySpec, builtin_utilities
from .rationals import format_rational
from .records import Record

DEFAULT_LIMIT = 7


def _values_chunk(args):
    """One row per key: the exact game value (the hider's payoff) of the
    key's graph under each utility, from one table per utility and one
    capture pattern per graph."""
    n, keys, utilities = args
    tables = [u.integer_table(range(n)) for u in utilities]
    rows = []
    for key in keys:
        pattern = capture_pattern(graph_from_canonical_key(key))
        rows.append([game_value([[values[c] for c in row] for row in pattern]) / den
                     for values, den in tables])
    return rows


def _worker_count() -> int:
    """Worker processes for a sweep: HSNET_THREADS (default 1), read by
    ``hsnet.parse_int``, capped at the CPU count."""
    raw = os.environ.get("HSNET_THREADS", "1")
    try:
        count = parse_int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise EnumerationError(f"HSNET_THREADS must be an integer >= 1, got {raw!r}")
    return min(count, os.cpu_count() or 1)


class StructuralCheck(Record):
    __slots__ = _fields = ("name", "passed", "detail")


class EnumerationReport(Record):
    """Outcome of one cell of an exhaustive sweep, at fixed (n, utility),
    with its structural checks."""

    __slots__ = _fields = (
        "n", "utility", "graph_count", "best_value", "argmax_keys",
        "closed_form_value", "structural_checks",
    )

    @property
    def argmax_graphs(self) -> tuple[Graph, ...]:
        return tuple(graph_from_canonical_key(k) for k in self.argmax_keys)

    @property
    def value_match(self) -> bool:
        return self.best_value == self.closed_form_value

    def all_passed(self) -> bool:
        return self.value_match and all(c.passed for c in self.structural_checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "utility": self.utility.to_json_dict(),
            "graph_count": self.graph_count,
            "best_value": format_rational(self.best_value),
            "closed_form_value": format_rational(self.closed_form_value),
            "value_match": self.value_match,
            "argmax_graphs": [
                graph_to_json_dict(g) for g in self.argmax_graphs
            ],
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.structural_checks
            ],
        }


def exhaustive_optima(n: int, utilities) -> list:
    """Solve every graph on n nodes under each utility and compare against
    the closed forms: one EnumerationReport per utility, in order.  The
    closed forms claim n >= 4 only, so a smaller n, or one that is not
    exactly an int, is refused before any graph is listed;
    ``enumerate_keys`` bounds n from above."""
    if type(n) is not int or n < 4:
        raise EnumerationError(f"a sweep needs n >= 4 nodes, got n={n!r}")
    utilities = tuple(utilities)
    keys = enumerate_keys(n)
    workers = min(_worker_count(), len(keys))
    if workers > 1:
        # Imported here: only multi-worker sweeps pay for multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        chunk = math.ceil(len(keys) / workers)
        pieces = [(n, keys[i : i + chunk], utilities) for i in range(0, len(keys), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for part in pool.map(_values_chunk, pieces) for row in part]
    else:
        rows = _values_chunk((n, keys, utilities))
    reports = []
    for u, values in zip(utilities, zip(*rows)):
        best = max(values)
        # The keys are sorted, so the argmax keys are too.
        argmax_keys = tuple(k for k, v in zip(keys, values) if v == best)
        star, bound = cf.optimal_singleton_counts(n, u)
        reports.append(EnumerationReport(n, u, len(keys), best, argmax_keys, -bound,
                                         check_structure(n, u, argmax_keys, best, star)))
    return reports


# -- structural checks -------------------------------------------------------


def components(g: Graph) -> tuple[frozenset, ...]:
    """The connected components as node sets, ordered by smallest member."""
    order, tin, _, size, comp_start = _dfs_low_links(g)
    # A root is the smallest member of its component, and its subtree is it.
    return tuple(frozenset(order[tin[v] : tin[v] + size[v]])
                 for v in range(g.node_count) if tin[v] == comp_start[v])


def induced_subgraph(g: Graph, nodes) -> Graph:
    """Subgraph on ``nodes`` with exactly the internal edges, relabeled in
    sorted-node order.  Each id must be exactly an int in 0..n-1 (a bool, a
    float or a str is a GraphError)."""
    nodes = list(nodes)
    for v in nodes:
        if type(v) is not int or not 0 <= v < g.node_count:
            raise GraphError(f"node {v!r} is not a node id in 0..{g.node_count - 1}")
    order = sorted(set(nodes))
    index = {v: i for i, v in enumerate(order)}
    return Graph(len(order), [(index[i], index[j]) for i in order
                              for j in g.neighbors(i) if j > i and j in index])


def is_two_connected(g: Graph) -> bool:
    """True iff g has at least 3 nodes, is connected, and deleting any single
    node leaves at most one nonempty piece.  Graphs on <= 2 nodes are never
    considered 2-connected."""
    n = g.node_count
    if n < 3:
        return False
    links = _dfs_low_links(g)
    if links[3][0] != n:  # size[0]: node 0, the first root, reaches every node
        return False
    for k in range(n):
        pieces, rest = _deletion_pieces(links, k)
        if len(pieces) + (rest > 0) > 1:
            return False
    return True


def is_maximal_core_periphery(g: Graph) -> bool:
    """Whether g is a maximal core-periphery layout.  Its core is the nodes
    that ``classify`` does not make a SINGLETON_LEAF.  g has k >= 4 nodes and
    ``cf.maximal_leaf_count(k)`` outside the core; no core node has degree
    < 2; the core is one edge or induces a 2-connected graph; and when some
    core nodes are not ATTACHMENTs (the odd layout's three orphans), one of
    them is adjacent to exactly the other two.  Connectivity follows."""
    k = g.node_count
    if k < 4:
        return False
    kinds = classify(g)
    core = [v for v in range(k) if kinds[v] != SINGLETON_LEAF]
    if k - len(core) != cf.maximal_leaf_count(k) or any(g.degree(v) < 2 for v in core):
        return False
    if len(core) == 2:
        return g.has_edge(*core)
    if not is_two_connected(induced_subgraph(g, core)):
        return False
    orphans = {v for v in core if kinds[v] != ATTACHMENT}
    return not orphans or any(set(g.neighbors(o)) == orphans - {o} for o in orphans)


def check_structure(n: int, u: UtilitySpec, argmax_keys: tuple, best, star) -> tuple:
    """Named pass/fail results (StructuralChecks) over the argmax graphs of a
    sweep, given by their canonical keys, in one pass.  ``best`` is the cell's
    value, at which every argmax game ties, and ``star`` the closed form's
    optimal isolated counts.  In the cycle regime one LP per graph bounds the
    mass that any optimal hider strategy puts on the nodes of degree > 2."""
    small, bad_s, cp_fail, cyc_fail, support_fail = [], [], [], [], []
    counts = set()
    for key in argmax_keys:
        g = graph_from_canonical_key(key)
        s = len(g.isolated_nodes())
        counts.add(s)
        if any(len(c) in (2, 3) for c in components(g)):
            small.append(key)
        if s > n - 4:
            if s < n:
                bad_s.append(key)
            continue
        t = cf.value_row(n, s, 0, u).threshold
        part = induced_subgraph(g, [v for v in range(n) if g.degree(v)])
        if t < u.beta:
            if not is_maximal_core_periphery(part):
                cp_fail.append(key)
        elif t > u.beta:
            deg2 = sum(1 for v in range(part.node_count) if part.degree(v) == 2)
            busy = [v for v in range(n) if g.degree(v) > 2]
            if not is_two_connected(part) or deg2 < math.ceil((n - s) / 3):
                cyc_fail.append(key)
            elif busy:
                rows, den = integer_payoffs(g, u)  # values in D's units
                if max_optimal_mass(rows, best * den, busy):
                    support_fail.append(key)
    counts, star = sorted(counts), list(star)
    design = design_optimal(n, u)
    return tuple(StructuralCheck(name, passed, detail) for name, passed, detail in (
        ("no_small_components", not small,
         f"{len(small)} argmax graphs with a 2- or 3-node component"),
        ("singleton_count_range", not bad_s,
         f"{len(bad_s)} argmax graphs with s in {{n-3, n-2, n-1}}"),
        ("optimal_singleton_sets_agree", counts == star,
         f"argmax singleton counts {counts} vs closed form {star}"),
        ("constructed_design_in_argmax", canonical_form(design.graph) in argmax_keys,
         f"design topology {design.topology}"),
        ("cp_regime_unique_topology", not cp_fail,
         f"{len(cp_fail)} argmax graphs not maximal core-periphery"),
        ("cycle_regime_structure", not cyc_fail,
         f"{len(cyc_fail)} argmax graphs not 2-connected with enough degree-2 nodes"),
        ("hider_avoids_busy_nodes", not support_fail,
         f"{len(support_fail)} argmax graphs with optimal mass on degree>2 nodes"),
    ))


# -- grid driver --------------------------------------------------------------


DEFAULT_FAMILIES = ("linear", "power")
DEFAULT_BETAS = ("0", "1/2", "1", "2", "5", "50")


def grid_utilities(families=DEFAULT_FAMILIES, betas=DEFAULT_BETAS):
    """The utility of every grid cell, each family at its default parameter;
    a family, or a beta compared as a rational, listed twice is an
    ``EnumerationError``, and a family with no default (a table) or none at
    all a ``UtilityError``."""
    from .rationals import parse_rational

    betas = [parse_rational(b) for b in betas]
    for what, items in (("family", families), ("beta", betas)):
        for i, item in enumerate(items):
            if item in items[:i]:
                raise EnumerationError(f"the grid lists {what} {item} twice")
    return [builtin_utilities(fam, beta=beta) for fam in families for beta in betas]


def verify_grid(
    n_max: int,
    families=DEFAULT_FAMILIES,
    betas=DEFAULT_BETAS,
    long_run: bool = False,
    mutate: bool = False,
):
    """Run the verifier over n in 4..n_max and the utility grid.

    Returns (cells, all_passed); each cell is a dict ready for JSON.  With
    ``mutate`` the expected value is deliberately shifted by one, which must
    make every cell fail; it exists to prove the harness can catch errors.
    """
    limit = CANONICAL_MAX_NODES if long_run else DEFAULT_LIMIT
    if n_max < 4:
        raise EnumerationError("verification needs n_max >= 4")
    if n_max > limit:
        allowed = "" if long_run or n_max > CANONICAL_MAX_NODES else f" (--long allows {n_max})"
        raise EnumerationError(f"n_max={n_max} above limit {limit}{allowed}")
    grid = grid_utilities(families, betas)
    cells = []
    for n in range(4, n_max + 1):
        for report in exhaustive_optima(n, grid):
            if mutate:
                fields = dict(zip(report._fields, report._values()))
                fields["closed_form_value"] += 1
                report = EnumerationReport(**fields)
            data = report.to_json_dict()
            data["cell_passed"] = report.all_passed()
            cells.append(data)
    return cells, all(data["cell_passed"] for data in cells)
