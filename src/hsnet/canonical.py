"""Canonical forms and enumeration of small graphs, on neighbour bitmasks.

``canonical_form`` is an isomorphism-invariant key for a Graph on at most
CANONICAL_MAX_NODES nodes; it, ``twin_classes`` and enumeration are the only
code that builds neighbour bitmasks, and ``twin_classes`` takes them as
built.  ``enumerate_keys`` gives the keys of every graph on n <= 8 nodes up
to isomorphism, with no Graph built, and caches them: each class on n - 1
nodes gains a node per orbit of its automorphisms on neighbourhoods, which
the final frontier of the canonical search that found it generates.  A
graph's cliques and twin classes are folds over its nodes, one step per
node, so an extension takes one step from its class's.  ``key_pairs`` is the
one decoder of a key's bit layout.  No hsnet module is imported when this
one loads: ``hsnet.graphs`` only inside the functions that build a Graph or
raise a GraphError.
"""

from __future__ import annotations

from functools import lru_cache

CANONICAL_MAX_NODES = 8  # the bound of canonical forms and of enumeration alike
_MEMBERS = tuple(  # _MEMBERS[mask]: the nodes in the bitmask, in increasing order
    tuple(v for v in range(CANONICAL_MAX_NODES) if m >> v & 1)
    for m in range(1 << CANONICAL_MAX_NODES)
)
_BITS = bytes(map(len, _MEMBERS))  # _BITS[mask]: the number of nodes in the bitmask


class EnumerationError(ValueError):
    """A node count or setting outside what enumeration and the verifier support."""


def _twin_step(classes, masks, subset) -> list[int]:
    """One step of the twin-class fold: the classes after node k =
    len(classes) joins ``subset`` of the graph on nodes 0..k-1 with twin
    classes ``classes`` and neighbour bitmasks ``masks`` (read at nodes
    below k, and there only their bits below k).  Two old twins stay twins
    only if both or neither join k, so each class splits by ``subset``; k's
    class is k and the nodes w whose neighbourhood, less k, is ``subset``
    less w."""
    k = len(classes)
    below = (1 << k) - 1
    twins = 1 << k
    for w in range(k):
        if not (masks[w] ^ subset) & below & ~(1 << w):
            twins |= 1 << w
    return [
        twins if twins >> v & 1 else c & subset if subset >> v & 1 else c & ~subset
        for v, c in enumerate(classes)
    ] + [twins]


def twin_classes(masks) -> tuple[int, ...]:
    """``classes[v]``: the bitmask of v's twin class, the nodes w with
    N(v) - w == N(w) - v, v included; permuting a class is an automorphism.
    A node with a non-adjacent twin (same open neighbourhood) has no adjacent
    one (same closed neighbourhood), so each class is one of the two groups.
    ``masks`` are the neighbour bitmasks, node v's at index v; the classes
    are built node by node, as enumeration extends a graph."""
    classes = []
    for v, m in enumerate(masks):
        classes = _twin_step(classes, masks, m & ((1 << v) - 1))
    return tuple(classes)


def _joined_cliques(cliques, subset, bit) -> list[int]:
    """One step of the clique fold: the cliques, as bitmasks, that node
    ``bit`` adds to ``cliques`` when it joins ``subset``: each one inside
    ``subset``, with the node.  The new cliques of k + 1 nodes come from
    those of k, so the two largest sizes of a graph give the maximum
    cliques of every one-node extension."""
    return [c | bit for c in cliques if not c & ~subset]


def _largest_cliques(masks) -> tuple[list[int], list[int]]:
    """The cliques of the largest size, and those of one node fewer, of the
    graph with neighbour bitmasks ``masks``: every clique is folded node by
    node from the empty one."""
    cliques = [0]
    for v, m in enumerate(masks):
        cliques += _joined_cliques(cliques, m & ((1 << v) - 1), 1 << v)
    omega = max(map(_BITS.__getitem__, cliques))
    return (
        [c for c in cliques if _BITS[c] == omega],
        [c for c in cliques if _BITS[c] == omega - 1],
    )


def _maximum_cliques(masks, classes, cliques) -> list[int]:
    """Of the maximum cliques ``cliques``, those that take the lowest members
    of every twin class they meet: one per orbit of the twin swaps.  A
    maximum clique that holds one of two adjacent twins holds both, and it
    holds at most one of a class of non-adjacent twins, so it passes when it
    holds no node with a lower non-adjacent twin; a lone one always does."""
    if len(cliques) > 1:
        skip = sum(1 << v for v, c in enumerate(classes) if c & ~masks[v] & ((1 << v) - 1))
        cliques = [clique for clique in cliques if not clique & skip]
    return cliques


def canonical_form(g) -> tuple[int, int]:
    """Isomorphism-invariant key ``(node_count, bits)`` for a Graph on at
    most CANONICAL_MAX_NODES nodes, a GraphError past that, raised before
    any bitmask is built: over all n! node orders, the lexicographic maximum
    of the rows (position i's adjacency bits toward positions 0..i-1), with
    row i packed at offset i(i-1)/2."""
    n = g.node_count
    if n > CANONICAL_MAX_NODES:
        from .graphs import GraphError
        raise GraphError(f"canonical forms support at most {CANONICAL_MAX_NODES} nodes, got {n}")
    masks = [g.neighbor_mask(v) for v in range(n)]
    bits, _ = _canonical_search(masks, twin_classes(masks), _largest_cliques(masks)[0])
    return (n, bits)


def _canonical_search(masks, classes, cliques) -> tuple[int, list]:
    """``(bits, frontier)``: the canonical key's bits, and the final frontier,
    the optimal orders up to twin swaps, of the graph with neighbour bitmasks
    ``masks``, twin classes ``classes`` and maximum cliques ``cliques``.
    Rows 1..k are all ones exactly when positions 0..k form a clique, so the
    maximum places a maximum clique first, and in any order: that clique is
    one unordered cell.  A frontier entry holds the placed positions as
    cells, unordered runs stored top down (latest position first), plus the
    unplaced nodes.  A node's row toward a cell is largest with its
    neighbours at the top of the cell, so placing it splits every cell into
    non-neighbours, then neighbours, and both parts stay unordered.
    Comparing rows top bit first means the next node has the most neighbours
    in the latest cell, then the next latest, and so on; when the latest
    cell is a single node that is an intersection with its neighbour mask.
    Twin swaps are automorphisms, so only one clique per twin-swap orbit
    (``_maximum_cliques``), and only one tied candidate per twin class, is
    branched on.
    """
    n = len(masks)
    omega = _BITS[cliques[0]]
    key = (1 << omega * (omega - 1) // 2) - 1  # rows 1..omega-1 all ones
    frontier = [([c], (1 << n) - 1 ^ c) for c in _maximum_cliques(masks, classes, cliques)]
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


def _automorphism_images(classes, frontier) -> list[list[int]]:
    """Generators of the automorphism group of a canonical key's graph, with
    twin classes ``classes``, each as its images, ``1 << s(v)`` at index v;
    ``frontier`` is the final frontier of the search that found the key, on
    any labelling of the graph.  Its first order lists that labelling's
    nodes by their position in the key; the generators are the maps of the
    first order onto each other one (two optimal orders give the same
    rows), relabelled by position, and the key's twin swaps.  A final cell
    of several nodes lies in the clique and was split by every later node,
    so its members are twins, in any order.  These generate the whole group,
    since every optimal order is a frontier entry's up to twin swaps."""
    moves = [{v: w, w: v} for cls in set(classes)
             for v, w in zip(_MEMBERS[cls], _MEMBERS[cls][1:])]
    if len(frontier) > 1:
        first, *others = [
            [v for cell in reversed(cells) for v in _MEMBERS[cell]] for cells, _ in frontier
        ]
        position = dict(zip(first, range(len(classes))))
        moves += [{i: position[v] for i, v in enumerate(order)} for order in others]
    return [[1 << move.get(v, v) for v in range(len(classes))] for move in moves]


def _extension_subsets(degrees, images) -> list[int]:
    """The neighbourhoods, as bitmasks, to try for a node joined to the graph
    with node degrees ``degrees``: of the subsets that pass the degree
    filter (the new node's degree is at least every other's after the join),
    which automorphisms preserve, the lowest of each orbit of the group that
    ``images`` generate.  Each generator maps every subset through one
    table, filled a node at a time: the subsets that hold node v are the
    ones below 1 << v, each with v's image added."""
    top = max(degrees, default=0)
    tops = sum(1 << j for j, d in enumerate(degrees) if d == top)
    tables = []
    for image in images:
        table = [0]
        for single in image:
            table += [t | single for t in table]
        tables.append(table)
    kept, seen = [], set()
    for subset in range(1 << len(degrees)):
        k = _BITS[subset]
        if k < top or k == top and subset & tops or subset in seen:
            continue
        kept.append(subset)
        seen.add(subset)
        orbit = [subset]
        for t in orbit:
            for table in tables:
                u = table[t]
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
    return kept


@lru_cache(maxsize=None)
def _classes(n: int) -> dict:
    """The classes of graphs on n nodes: each canonical key, unsorted, with
    the final frontier of the search that found it.

    Each class P on n - 1 nodes is extended by a node n-1 joined to each
    subset of ``_extension_subsets``, under the automorphisms that P's own
    frontier gives, so no class is searched twice.  An extension is searched
    only if node n-1 has the maximum vertex invariant (degree, sorted
    neighbour degrees), the canonical-deletion test of McKay's canonical
    augmentation (J. Algorithms 26, 1998); duplicates that pass collapse in
    the key set.  No class is lost: for any graph G and node v of maximum
    invariant, G - v is isomorphic to some P, and extending P by the image S
    of N(v) gives a graph isomorphic to G whose new node has v's invariant.
    An automorphism of P, fixing node n-1, maps it onto the extension by the
    kept subset of S's orbit; any subgroup's orbits would do.  P's twin
    classes, two largest clique sizes, degrees and orbit tables are built
    once; an extension's twin classes and maximum cliques are one step of
    each fold from P's, and its degrees one update.  No Graph is built: all
    are neighbour bitmasks.
    """
    if n == 0:
        return {(0, 0): []}  # one order, no automorphism but the identity
    new = n - 1
    bit = 1 << new
    found = {}
    for smaller, frontier in _classes(new).items():
        parent = _key_masks(smaller)
        classes = twin_classes(parent)
        top, second = _largest_cliques(parent)
        degrees = [_BITS[m] for m in parent]
        images = _automorphism_images(classes, frontier)
        for subset in _extension_subsets(degrees, images):
            masks = parent + [subset]
            deg = degrees + [_BITS[subset]]
            for j in _MEMBERS[subset]:
                masks[j] |= bit
                deg[j] += 1
            ties = [m for m, d in zip(masks, deg[:new]) if d == deg[new]]
            if ties:
                mine = sorted(map(deg.__getitem__, _MEMBERS[subset]))
                if any(sorted(map(deg.__getitem__, _MEMBERS[m])) > mine for m in ties):
                    continue
            cliques = _joined_cliques(top, subset, bit)
            if not cliques:
                cliques = top + _joined_cliques(second, subset, bit)
            bits, final = _canonical_search(masks, _twin_step(classes, parent, subset), cliques)
            found.setdefault((n, bits), final)
    return found


_sorted_keys = lru_cache(maxsize=None)(lambda n: tuple(sorted(_classes(n))))


def enumerate_keys(n: int) -> tuple:
    """The canonical keys of all graphs on n nodes, one per isomorphism
    class, sorted.  n must be exactly an int, checked before the keys' cache
    would hash it: a bool, a float or a list is an EnumerationError."""
    if type(n) is not int or n < 0 or n > CANONICAL_MAX_NODES:
        raise EnumerationError(
            f"enumeration supports 0 <= n <= {CANONICAL_MAX_NODES}, got {n!r}"
        )
    return _sorted_keys(n)


def _key_masks(key: tuple[int, int]) -> list[int]:
    """The neighbour bitmasks of the representative graph of a canonical key."""
    masks = [0] * key[0]
    for i, j in canonical_key_edges(key):
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


@lru_cache(maxsize=CANONICAL_MAX_NODES + 1)
def key_pairs(n: int) -> tuple:
    """``(offset, (i, j))`` for every node pair i < j in sorted order, with
    the pair's bit offset in a canonical key."""
    return tuple(
        (j * (j - 1) // 2 + i, (i, j)) for i in range(n) for j in range(i + 1, n)
    )


def canonical_key_edges(key: tuple[int, int]) -> list[tuple[int, int]]:
    """The edges of the representative graph of a canonical key, in
    ``Graph.sorted_edges`` order."""
    n, bits = key
    return [pair for offset, pair in key_pairs(n) if bits >> offset & 1]


def graph_from_canonical_key(key: tuple[int, int]):
    """Rebuild the representative Graph encoded by a canonical key."""
    from .graphs import Graph
    return Graph(key[0], canonical_key_edges(key))
