"""Undirected simple graphs, their deletion structure, and enumeration.

Graphs are immutable after construction (nodes are 0..n-1, edges a frozenset
of sorted pairs, each node's neighbours a sorted tuple), so every derived
object in this module can be shared freely across worker processes.

The seeker's inspection deletes a node, and every structure query here is
about such deletions.  One low-link depth-first search (Tarjan, SIAM J.
Comput. 1, 1972) answers them all: the components, 2-connectivity, and, in
``hsnet.payoff``, the component sizes of every G - k.  Captures and the
seeker's node classes need only the neighbour tuples.  Besides those and
induced subgraphs (built only by the verifier's shape recognizers) this
module provides:

* ``canonical_form`` -- an isomorphism-invariant key for small graphs; it,
  ``twin_classes`` and enumeration are the only code that builds neighbour
  bitmasks (``neighbor_mask`` is called by ``_masks_of`` alone), for n <= 8;
* ``enumerate_graphs`` -- every graph on n <= 8 nodes up to isomorphism,
  the input of the brute-force verifier in ``hsnet.oracle``;
  ``enumerate_keys`` gives their canonical keys alone, with no Graph built.
  Each class on n - 1 nodes gains a node per orbit of its automorphisms on
  neighbourhoods; the canonical search's final frontier generates them.
"""

from __future__ import annotations

import gc
from functools import lru_cache

CANONICAL_MAX_NODES = 8
ENUMERATION_LIMIT = 8
_MEMBERS = tuple(  # _MEMBERS[mask]: the nodes in the bitmask, in increasing order
    tuple(v for v in range(CANONICAL_MAX_NODES) if m >> v & 1)
    for m in range(1 << CANONICAL_MAX_NODES)
)
_BITS = bytes(map(len, _MEMBERS))  # _BITS[mask]: the number of nodes in the bitmask


class GraphError(ValueError):
    """Structural violation: bad node ids, self loops, duplicate edges."""


class EnumerationError(ValueError):
    """A node count or setting outside what enumeration and the verifier support."""


class GraphFormatError(GraphError):
    """Parse failure in the text or JSON graph formats; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Undirected simple graph over nodes 0..node_count-1.

    Each node's neighbours are stored once, as a sorted tuple, so a graph
    takes O(n + e) memory; all queries are read-only.
    """

    __slots__ = ("node_count", "edges", "_adjacency")

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
            pairs = []
            try:
                for i, j in edges:
                    if type(i) is not int or type(j) is not int or i == j:
                        break
                    if not (0 <= i < node_count and 0 <= j < node_count):
                        break
                    if i > j:
                        i, j = j, i
                    pairs.append((i, j))
                    adjacency[i].append(j)
                    adjacency[j].append(i)
            except (TypeError, ValueError):  # an edge that is not a pair
                pass
            if len(pairs) < len(edges) or len(edge_set := frozenset(pairs)) < len(pairs):
                _refuse_edges(node_count, edges)
            for v, a in enumerate(adjacency):  # each list freed as its tuple is made
                a.sort()
                adjacency[v] = tuple(a)
        finally:
            if collecting:
                gc.enable()
        self.node_count = node_count
        self.edges = edge_set
        self._adjacency = tuple(adjacency)

    # -- queries ---------------------------------------------------------

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
        return ((i, j) if i < j else (j, i)) in self.edges

    def isolated_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self._adjacency) if not a)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.node_count == other.node_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.node_count, self.edges))

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


class ComponentPartition:
    """Connected components as disjoint node sets covering all nodes."""

    __slots__ = ("components", "component_of")

    def __init__(self, components: tuple[frozenset, ...], component_of: tuple[int, ...]):
        self.components = components
        self.component_of = component_of

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)


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


def components(g: Graph) -> ComponentPartition:
    """Connected-component partition, components ordered by smallest member."""
    order, tin, _, size, comp_start = _dfs_low_links(g)
    comp_of = [0] * g.node_count
    comps = []
    for v in order:
        if tin[v] == comp_start[v]:  # a root: the smallest member of its component
            members = order[tin[v] : tin[v] + size[v]]
            for w in members:
                comp_of[w] = len(comps)
            comps.append(frozenset(members))
    return ComponentPartition(tuple(comps), tuple(comp_of))


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
    edges = [
        (index[i], index[j]) for (i, j) in g.edges if i in index and j in index
    ]
    return Graph(len(order), edges)


def is_connected(g: Graph) -> bool:
    if g.node_count == 0:
        return False
    return len(components(g).components) == 1


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


# -- canonical forms and enumeration for small graphs -----------------------


def _masks_of(g):
    """Neighbour bitmasks, node v's at index v, of a Graph or of a sequence of
    them returned as is; a GraphError past CANONICAL_MAX_NODES nodes, checked
    before any mask is built."""
    n = g.node_count if isinstance(g, Graph) else len(g)
    if n > CANONICAL_MAX_NODES:
        raise GraphError(
            f"canonical forms support at most {CANONICAL_MAX_NODES} nodes, got {n}"
        )
    return [g.neighbor_mask(v) for v in range(n)] if isinstance(g, Graph) else g


def twin_classes(g) -> tuple[int, ...]:
    """``classes[v]``: the bitmask of v's twin class, the nodes w with
    N(v) - w == N(w) - v, v included; permuting a class is an automorphism.
    A node with a non-adjacent twin (same open neighbourhood) has no adjacent
    one (same closed neighbourhood), so each class is one of the two groups.
    ``g`` is a Graph or its neighbour bitmasks, node v's at index v."""
    masks = _masks_of(g)
    open_groups, closed_groups = {}, {}
    for v, m in enumerate(masks):
        open_groups[m] = open_groups.get(m, 0) | 1 << v
        closed_groups[m | 1 << v] = closed_groups.get(m | 1 << v, 0) | 1 << v
    return tuple(
        open_groups[m] | closed_groups[m | 1 << v] for v, m in enumerate(masks)
    )


def _maximum_cliques(masks, classes) -> list[int]:
    """The maximum cliques, as bitmasks, that take the lowest members of
    every twin class they meet: one clique per orbit of the twin swaps."""
    best, found = 0, []
    stack = [(0, (1 << len(masks)) - 1)]
    while stack:
        clique, cand = stack.pop()
        if not cand:  # no node above can join, as for every maximum clique
            size = _BITS[clique]
            if size > best:
                best, found = size, []
            if size == best:
                found.append(clique)
        elif _BITS[clique] + _BITS[cand] >= best:
            for v in reversed(_MEMBERS[cand]):  # the lowest popped first
                if not classes[v] & ((1 << v) - 1) & ~clique:  # no lower twin left out
                    stack.append((clique | 1 << v, cand & masks[v] & -(2 << v)))
    return found


def canonical_form(g) -> tuple[int, int]:
    """Isomorphism-invariant key ``(node_count, bits)`` for graphs on at most
    CANONICAL_MAX_NODES nodes: over all n! node orders, the lexicographic
    maximum of the rows (position i's adjacency bits toward positions
    0..i-1), with row i packed at offset i(i-1)/2.  ``g`` is a Graph or its
    neighbour bitmasks, node v's at index v, which enumeration labels
    without building a Graph."""
    masks = _masks_of(g)
    return (len(masks), _canonical_search(masks, twin_classes(masks))[0])


def _canonical_search(masks, classes) -> tuple[int, list]:
    """``(bits, frontier)``: the canonical key's bits, and the final frontier,
    the optimal orders up to twin swaps.  Rows 1..k are all ones exactly
    when positions 0..k form a clique, so the maximum places a maximum
    clique first, and in any order: that clique is one unordered cell.  A
    frontier entry holds the placed positions as cells, unordered runs
    stored top down (latest position first), plus the unplaced nodes.  A
    node's row toward a cell is largest with its neighbours at the top of
    the cell, so placing it splits every cell into non-neighbours, then
    neighbours, and both parts stay unordered.  Comparing rows top bit first
    means the next node has the most neighbours in the latest cell, then
    the next latest, and so on; when the latest cell is a single node that
    is an intersection with its neighbour mask.  Twin swaps are
    automorphisms, so only one clique per twin-swap orbit, and only one
    tied candidate per twin class, is branched on.
    """
    n = len(masks)
    cliques = _maximum_cliques(masks, classes)
    omega = _BITS[cliques[0]]
    key = (1 << omega * (omega - 1) // 2) - 1  # rows 1..omega-1 all ones
    frontier = [([clique], (1 << n) - 1 ^ clique) for clique in cliques]
    for level in range(omega, n):
        best = -1
        grown = []
        for cells, unplaced in frontier:
            # Narrow the candidates to those with the most neighbours in
            # each cell, and set the row's bits as they become final.
            tied, row, pos = unplaced, 0, level
            for cell in cells:
                if not cell & (cell - 1):
                    pos -= 1
                    near = tied & masks[_MEMBERS[cell][0]]
                    if near:
                        tied = near
                        row |= 1 << pos
                else:
                    size = _BITS[cell]
                    pos -= size
                    if tied & (tied - 1):
                        k = -1
                        for v in _MEMBERS[tied]:
                            c = _BITS[masks[v] & cell]
                            if c > k:
                                k, most = c, 1 << v
                            elif c == k:
                                most |= 1 << v
                        tied = most
                    else:
                        k = _BITS[masks[_MEMBERS[tied][0]] & cell]
                    row |= ((1 << k) - 1) << (pos + size - k)
                if row >> pos < best >> pos:
                    break  # below zero, row < best: this entry loses
            if row < best:
                continue
            if row > best:
                best = row
                grown = []
            kept = 0
            for v in _MEMBERS[tied]:
                if classes[v] & kept:
                    continue
                kept |= 1 << v
                split = [1 << v]
                for cell in cells:
                    near = cell & masks[v]
                    if near and near != cell:
                        split += (near, cell ^ near)
                    else:
                        split.append(cell)
                grown.append((split, unplaced ^ 1 << v))
        frontier = grown
        key |= best << (level * (level - 1) // 2)
    return key, frontier


def _automorphism_images(masks) -> list[list[int]]:
    """Generators of the automorphism group of the graph with neighbour
    bitmasks ``masks``, each as its images, ``1 << s(v)`` at index v: the
    maps of the first order of the final frontier onto each other one (two
    optimal orders give the same rows), and the twin swaps.  A final cell of
    several nodes lies in the clique and was split by every later node, so
    its members are twins.  These generate the whole group, since every
    optimal order is a frontier entry's up to twin swaps."""
    classes = twin_classes(masks)
    first, *others = [
        [v for cell in cells for v in _MEMBERS[cell]]
        for cells, _ in _canonical_search(masks, classes)[1]
    ]
    moves = [dict(zip(first, order)) for order in others] + [
        {v: w, w: v} for cls in set(classes) for v, w in zip(_MEMBERS[cls], _MEMBERS[cls][1:])
    ]
    return [[1 << move.get(v, v) for v in range(len(masks))] for move in moves]


def _extension_subsets(parent) -> list[int]:
    """The neighbourhoods, as bitmasks, to try for a node joined to the graph
    with neighbour bitmasks ``parent``: of the subsets that pass the degree
    filter (the new node's degree is at least every other's after the join),
    which automorphisms preserve, the lowest of each automorphism orbit."""
    top = max(map(_BITS.__getitem__, parent), default=0)
    tops = sum(1 << j for j, m in enumerate(parent) if _BITS[m] == top)
    images = _automorphism_images(parent)
    kept, seen = [], set()
    for subset in range(1 << len(parent)):
        k = _BITS[subset]
        if k < top or k == top and subset & tops or subset in seen:
            continue
        kept.append(subset)
        seen.add(subset)
        orbit = [subset]
        for t in orbit:
            for image in images:
                u = sum(map(image.__getitem__, _MEMBERS[t]))
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
    return kept


@lru_cache(maxsize=None)
def _representative_keys(n: int) -> tuple:
    """Sorted canonical keys of the graphs on n nodes, one per class.

    Each representative P on n - 1 nodes is extended by a node n-1 joined to
    each subset of ``_extension_subsets(P)``.  An extension goes through
    ``canonical_form`` only if node n-1 has the maximum vertex invariant
    (degree, sorted neighbour degrees), the canonical-deletion test of
    McKay's canonical augmentation (J. Algorithms 26, 1998); duplicates that
    pass collapse in the key set.  No class is lost: for any graph G and
    node v of maximum invariant, G - v is isomorphic to some P, and
    extending P by the image S of N(v) gives a graph isomorphic to G whose
    new node has v's invariant.  An automorphism of P, fixing node n-1, maps
    it onto the extension by the kept subset of S's orbit; any subgroup's
    orbits would do.  No Graph is built: all are neighbour bitmasks.
    """
    if n == 0:
        return ((0, 0),)
    new = n - 1
    bit = 1 << new
    keys = set()
    for smaller in _representative_keys(new):
        parent = _key_masks(smaller)
        for subset in _extension_subsets(parent):
            masks = [m | bit if subset >> j & 1 else m for j, m in enumerate(parent)] + [subset]
            deg = [_BITS[m] for m in masks]
            mine = sorted(deg[w] for w in _MEMBERS[subset])
            if any(
                deg[j] == deg[new] and sorted(deg[w] for w in _MEMBERS[masks[j]]) > mine
                for j in range(new)
            ):
                continue
            keys.add(canonical_form(masks))
    return tuple(sorted(keys))


def enumerate_keys(n: int) -> tuple:
    """The canonical keys of all graphs on n nodes, one per isomorphism
    class, sorted.  n must be exactly an int (a bool or a float is an
    EnumerationError)."""
    if type(n) is not int or n < 0 or n > ENUMERATION_LIMIT:
        raise EnumerationError(
            f"enumeration supports 0 <= n <= {ENUMERATION_LIMIT}, got {n!r}"
        )
    return _representative_keys(n)


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n nodes up to isomorphism, canonical representatives in
    a deterministic order."""
    return tuple(graph_from_canonical_key(k) for k in enumerate_keys(n))


def _key_masks(key: tuple[int, int]) -> list[int]:
    """The neighbour bitmasks of the representative graph of a canonical key."""
    n, bits = key
    masks = [0] * n
    offset = 0
    for i in range(1, n):
        row = masks[i] = bits >> offset & ((1 << i) - 1)
        for j in _MEMBERS[row]:
            masks[j] |= 1 << i
        offset += i
    return masks


@lru_cache(maxsize=CANONICAL_MAX_NODES + 1)
def _key_pairs(n: int) -> tuple:
    """``(offset, (i, j))`` for every node pair i < j in sorted order, with
    the pair's bit offset in a canonical key."""
    return tuple(
        (j * (j - 1) // 2 + i, (i, j)) for i in range(n) for j in range(i + 1, n)
    )


def canonical_key_edges(key: tuple[int, int]) -> list[tuple[int, int]]:
    """The edges of the representative graph of a canonical key, in
    ``Graph.sorted_edges`` order."""
    n, bits = key
    return [pair for offset, pair in _key_pairs(n) if bits >> offset & 1]


def graph_from_canonical_key(key: tuple[int, int]) -> Graph:
    """Rebuild the representative graph encoded by a canonical key."""
    return Graph(key[0], canonical_key_edges(key))


# -- serialization ---------------------------------------------------------


def format_graph_text(g: Graph) -> str:
    """Bit-exact text form: ``n <count>`` then sorted ``e <i> <j>`` lines."""
    lines = [f"n {g.node_count}"]
    lines.extend(f"e {i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


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
                node_count = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"bad node count {parts[1]!r}", lineno)
            if node_count < 0:
                raise GraphFormatError("node count must be nonnegative", lineno)
        elif parts[0] == "e":
            if node_count is None:
                raise GraphFormatError("edge before 'n' line", lineno)
            if len(parts) != 3:
                raise GraphFormatError("expected 'e <i> <j>'", lineno)
            try:
                i, j = int(parts[1]), int(parts[2])
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


def key_to_json_dict(key: tuple[int, int]) -> dict:
    """The JSON form of the representative graph of a canonical key, built
    from the key alone; edges are ``(i, j)`` tuples, which serialize as
    ``graph_to_json_dict``'s lists do."""
    return {"n": key[0], "edges": canonical_key_edges(key)}


def graph_from_json_dict(data: dict) -> Graph:
    try:
        n = data["n"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise GraphFormatError("expected object with 'n' and 'edges'") from exc
    # bool is an int subclass, and int() would truncate 1.7 to 1.
    if type(n) is not int:
        raise GraphFormatError("'n' must be an integer")
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
