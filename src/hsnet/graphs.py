"""Undirected simple graphs, their deletion structure, and serialization.

Graphs are immutable after construction (nodes are 0..n-1, each node's
neighbours a sorted tuple, off which the edges are read), so every derived
object in this module can be shared freely across worker processes.

The seeker's inspection deletes a node, and every structure query about
such deletions is answered by one low-link depth-first search (Tarjan, SIAM
J. Comput. 1, 1972), ``_dfs_low_links``, and the pieces it leaves,
``_deletion_pieces``.  Their callers live with the code that runs them: the
payoff matrix in ``hsnet.matrix_game``, the design certificate in
``hsnet.designer``, and the components, 2-connectivity and induced subgraphs
of the verifier's shape checks in ``hsnet.oracle``.  Besides those, this
module provides the text, JSON and DOT formats, whose readers refuse a node
count above ``GRAPH_MAX_NODES`` before building anything per node.
Canonical forms and enumeration of small graphs, the only code that builds
neighbour bitmasks (``neighbor_mask``), live in ``hsnet.canonical``; this
module imports no other hsnet module, only the package's ``parse_int``.
"""

from __future__ import annotations

import gc

from . import parse_int

GRAPH_MAX_NODES = 10**6  # the most nodes a graph file may hold, and design --n's limit


class GraphError(ValueError):
    """Structural violation: bad node ids, self loops, duplicate edges."""


class GraphFormatError(GraphError):
    """Parse failure in the text or JSON graph formats; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Undirected simple graph over nodes 0..node_count-1.

    Each node's neighbours are stored once, as a sorted tuple, and every
    other view is read off them, so a graph takes O(n + e) memory.
    """

    __slots__ = ("node_count", "_adjacency")

    def __init__(self, node_count: int, edges=()):
        # Exactly int: a bool would otherwise pass as a node id and be kept.
        if type(node_count) is not int:
            raise GraphError(f"node_count must be an int, got {node_count!r}")
        if node_count < 0:
            raise GraphError("node_count must be nonnegative")
        edges = list(edges)
        # A million lists and tuples, none of them in a cycle, would make the
        # collector rescan every live container many times over: about half
        # the build at 10^6 edges.
        collecting = gc.isenabled()
        gc.disable()
        try:
            # A bad edge stops the scan, and the refusal rescans from the
            # first edge, duplicates included, to name the first bad one.
            adjacency = [[] for _ in range(node_count)]
            bad = True
            try:
                for i, j in edges:
                    if type(i) is not int or type(j) is not int or i == j:
                        break
                    if not (0 <= i < node_count and 0 <= j < node_count):
                        break
                    adjacency[i].append(j)
                    adjacency[j].append(i)
                else:
                    bad = False
            except (TypeError, ValueError):  # an edge that is not a pair
                pass
            for v, a in enumerate(adjacency):  # each list freed as its tuple is made
                a.sort()
                # A repeated edge leaves two equal neighbours side by side.
                bad = bad or len(a) > 1 and not all(map(int.__lt__, a, a[1:]))
                adjacency[v] = tuple(a)
            if bad:
                _refuse_edges(node_count, edges)
        finally:
            if collecting:
                gc.enable()
        self.node_count = node_count
        self._adjacency = tuple(adjacency)

    # -- queries ---------------------------------------------------------

    @property
    def edges(self) -> frozenset:
        """The edges as a frozenset of sorted pairs, built on each read."""
        return frozenset(self.sorted_edges())

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[i]

    def neighbor_mask(self, i: int) -> int:
        """Node i's neighbours as a bitmask, built on each call."""
        return sum(1 << j for j in self._adjacency[i])

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self._adjacency))

    def has_edge(self, i: int, j: int) -> bool:
        return 0 <= i < self.node_count and j in self._adjacency[i]

    def isolated_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self._adjacency) if not a)

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Each edge (i, j), i < j, in increasing order, read off the tuples."""
        return [(i, j) for i, a in enumerate(self._adjacency) for j in a if j > i]

    def __eq__(self, other):
        return isinstance(other, Graph) and self._adjacency == other._adjacency

    def __hash__(self):
        return hash(self._adjacency)

    def __repr__(self):
        return f"Graph({self.node_count}, {self.sorted_edges()})"


def _refuse_edges(node_count: int, edges: list):
    """Raise the GraphError (or unpacking error) for the first bad edge, in
    the order the edges were given; called only when one is bad."""
    seen = set()
    for e in edges:
        i, j = e
        if type(i) is not int or type(j) is not int:
            raise GraphError(f"edge ({i!r},{j!r}) has a node id that is not an int")
        if i == j:
            raise GraphError(f"self loop at node {i}")
        if not (0 <= i < node_count) or not (0 <= j < node_count):
            raise GraphError(f"edge ({i},{j}) out of range for n={node_count}")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise GraphError(f"duplicate edge ({i},{j})")
        seen.add((i, j))


def _dfs_low_links(g: Graph) -> tuple:
    """One iterative depth-first search over every component.

    Returns (order, tin, low, size, comp_start): nodes in preorder, each
    node's preorder index, its low link, its subtree size, and the preorder
    index of its component's root.  Roots are taken in increasing id;
    components and subtrees are contiguous in preorder.  The stack is the
    tree path, ints only: a deep search builds no container per node for the
    garbage collector to scan.
    """
    adjacency = g._adjacency
    n = g.node_count
    order: list = []
    tin = [-1] * n
    low = [0] * n
    size = [1] * n
    comp_start = [0] * n
    scanned = [0] * n  # neighbours of each node already looked at
    for root in range(n):
        if tin[root] >= 0:
            continue
        start = len(order)
        tin[root] = low[root] = start
        order.append(root)
        path = [root]
        while path:
            v = path[-1]
            nbrs, i = adjacency[v], scanned[v]
            parent = path[-2] if len(path) > 1 else -1
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                if tin[w] < 0:
                    break
                if w != parent and tin[w] < low[v]:
                    low[v] = tin[w]
            else:
                path.pop()
                if path:
                    p = path[-1]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    size[p] += size[v]
                continue
            scanned[v] = i
            tin[w] = low[w] = len(order)
            order.append(w)
            path.append(w)
        for v in order[start:]:
            comp_start[v] = start
    return order, tin, low, size, comp_start


def _deletion_pieces(links: tuple, k: int) -> tuple[list, int]:
    """What deleting k leaves of k's component, from ``_dfs_low_links``:
    (pieces, rest).  ``pieces`` are k's separated tree children, those c with
    low[c] >= tin[k] (every child of a root), each the root of one piece of
    size[c] nodes, contiguous in preorder; ``rest`` is the size of what is
    left, 0 when nothing is.  Other components are untouched.  k's first
    child follows k in preorder, and each next one the previous subtree."""
    order, tin, low, size, comp_start = links
    tk = tin[k]
    pieces, p, end = [], tk + 1, tk + size[k]
    while p < end:
        c = order[p]
        if low[c] >= tk:
            pieces.append(c)
        p += size[c]
    return pieces, size[order[comp_start[k]]] - 1 - sum(size[c] for c in pieces)


# -- serialization ---------------------------------------------------------


def format_graph_text(g: Graph) -> str:
    """Bit-exact text form: ``n <count>`` then sorted ``e <i> <j>`` lines."""
    lines = [f"n {g.node_count}"]
    lines.extend(f"e {i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def _refuse_node_count(n: int, line: int | None = None):
    if n < 0:
        raise GraphFormatError("node count must be nonnegative", line)
    if n > GRAPH_MAX_NODES:
        raise GraphFormatError(f"node count must be at most {GRAPH_MAX_NODES}, got {n}", line)


def parse_graph_text(text: str) -> Graph:
    """Parse the text format; raises GraphFormatError naming the bad line."""
    node_count = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if node_count is not None:
                raise GraphFormatError("repeated 'n' line", lineno)
            if len(parts) != 2:
                raise GraphFormatError("expected 'n <count>'", lineno)
            try:
                node_count = parse_int(parts[1])
            except ValueError:
                raise GraphFormatError(f"bad node count {parts[1]!r}", lineno)
            _refuse_node_count(node_count, lineno)
        elif parts[0] == "e":
            if node_count is None:
                raise GraphFormatError("edge before 'n' line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("expected 'e <i> <j>'", lineno)
            try:
                i, j = parse_int(parts[1]), parse_int(parts[2])
            except ValueError:
                raise GraphFormatError("edge endpoints must be integers", lineno)
            if not (0 <= i < j < node_count):
                raise GraphFormatError(
                    f"edge ({i},{j}) must satisfy 0 <= i < j < {node_count}", lineno
                )
            if (i, j) in seen:
                raise GraphFormatError(f"duplicate edge ({i},{j})", lineno)
            seen.add((i, j))
            edges.append((i, j))
        else:
            raise GraphFormatError(f"unknown directive {parts[0]!r}", lineno)
    if node_count is None:
        raise GraphFormatError("missing 'n' line", None)
    return Graph(node_count, edges)


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.node_count, "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_json_dict(data: dict) -> Graph:
    """The graph of an object with ``n`` and ``edges``; any other key is
    refused by name."""
    try:
        n = data["n"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise GraphFormatError("expected object with 'n' and 'edges'") from exc
    for key in data:
        if key not in ("n", "edges"):
            raise GraphFormatError(f"unknown graph key {key!r}")
    # bool is an int subclass, and int() would truncate 1.7 to 1.
    if type(n) is not int:
        raise GraphFormatError("'n' must be an integer")
    _refuse_node_count(n)
    if not isinstance(edges, (list, tuple)):
        raise GraphFormatError("'edges' must be a list")
    pairs = []
    for e in edges:
        if not (
            isinstance(e, (list, tuple))
            and len(e) == 2
            and all(type(v) is int for v in e)
        ):
            raise GraphFormatError(f"bad edge entry {e!r}")
        pairs.append(tuple(e))
    return Graph(n, pairs)


def to_dot(g: Graph, roles: dict[int, str] | None = None) -> str:
    """DOT export; optional per-node role names become fill colors."""
    palette = {
        "core": "lightblue",
        "periphery": "palegreen",
        "orphan": "gold",
        "middle_orphan": "orange",
        "singleton": "lightgray",
    }
    lines = ["graph G {", "  node [style=filled, fillcolor=white];"]
    for v in range(g.node_count):
        role = (roles or {}).get(v)
        if role:
            color = palette.get(role, "white")
            lines.append(f'  {v} [fillcolor={color}, role="{role}"];')
        else:
            lines.append(f"  {v};")
    for i, j in g.sorted_edges():
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
