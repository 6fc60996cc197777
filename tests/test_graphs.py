"""Graph structure, classification, and canonical forms."""

import functools
import gc
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings

from hsnet.canonical import (
    EnumerationError,
    _automorphism_images,
    _canonical_search,
    _classes,
    _extension_subsets,
    _joined_cliques,
    _key_masks,
    _largest_cliques,
    _maximum_cliques,
    _twin_step,
    canonical_form,
    canonical_key_edges,
    enumerate_keys,
    graph_from_canonical_key,
    twin_classes,
)
from hsnet.graphs import (
    Graph,
    GraphError,
    GraphFormatError,
    format_graph_text,
    graph_from_json_dict,
    graph_to_json_dict,
    parse_graph_text,
    to_dot,
)
from hsnet import canonical as canonical_module
from hsnet.designer import (
    RESIDUAL,
    build_cycle,
    build_maximal_cp,
    design_topology,
)
from hsnet.oracle import components, induced_subgraph, is_two_connected

from conftest import (
    class_sets, enumerate_graphs, graph_and_permutation, graphs, key_to_json_dict, relabel,
)


def path(k):
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    g = Graph(4, [(2, 0), (1, 3)])
    assert g.edges == frozenset({(0, 2), (1, 3)})
    assert g.neighbors(0) == (2,)
    assert g.degree(3) == 1


def test_graph_refuses_bool_node_ids_and_counts():
    with pytest.raises(GraphError, match="not an int"):
        Graph(2, [(0, True)])
    with pytest.raises(GraphError, match="must be an int"):
        Graph(True)
    with pytest.raises(GraphError, match="not an int"):
        Graph(3, [(1.0, 2)])


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2), (0, 5)], "self loop at node 2"),
    ([(0, 1), (0, 5), (2, 2)], "edge (0,5) out of range for n=4"),
    ([(0, -1), (1, 1)], "edge (0,-1) out of range for n=4"),
    ([(0, 1), (1, 0), (3, 3)], "duplicate edge (0,1)"),
    ([[0, 1], [1, 2], [2, 1], [0, 9]], "duplicate edge (1,2)"),
    ([(3, 3), (1, "2")], "self loop at node 3"),
    ([(0, 1), (None, 2), (1, 1)], "edge (None,2) has a node id that is not an int"),
    ([(1, 2), (0, False), (0, 0)], "edge (0,False) has a node id that is not an int"),
    ([(1, 2), ([0], [1])], "edge ([0],[1]) has a node id that is not an int"),
])
def test_graph_refusal_names_the_first_bad_edge(edges, message):
    # The edges are checked all at once; the message still names the first
    # bad edge in the order given, whatever is wrong with the later ones.
    for given in (edges, iter(edges)):
        with pytest.raises(GraphError, match="^" + re.escape(message) + "$"):
            Graph(4, given)
    assert gc.isenabled()
    with pytest.raises(ValueError, match="unpack"):
        Graph(4, [(0, 1), (1, 2, 3)])
    with pytest.raises(TypeError, match="unpack"):
        Graph(4, [(0, 1), 3])


def test_neighbor_symmetry_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        for i in range(n):
            for j in range(n):
                assert g.has_edge(i, j) == g.has_edge(j, i)


def test_graph_views_are_read_off_the_neighbour_tuples():
    # One edge set given three ways (shuffled, each pair reversed, and as a
    # generator) builds one graph, and every view of it agrees.  An id off
    # 0..n-1 has no edge: -1 must not wrap round to the last node.
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(0, 30)
        density = rng.random()
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        shuffled = rng.sample(pairs, len(pairs))
        g, *others = (Graph(n, shuffled), Graph(n, [(j, i) for i, j in pairs]),
                      Graph(n, (e for e in pairs)))
        for h in others:
            assert h == g and hash(h) == hash(g)
            assert h.edges == g.edges and h.sorted_edges() == g.sorted_edges()
            assert all(h.neighbors(v) == g.neighbors(v) for v in range(n))
        assert g.sorted_edges() == sorted(g.edges) == pairs
        for i in range(n):
            for j in range(n):
                assert g.has_edge(i, j) == g.has_edge(j, i) == (j in g.neighbors(i))
        for off in (-1, n):
            for v in range(-1, n + 1):
                assert not g.has_edge(off, v) and not g.has_edge(v, off)


def test_components_examples():
    g = Graph(4, [(0, 1), (1, 2)])
    parts = components(g)
    assert parts == (frozenset({0, 1, 2}), frozenset({3}))
    assert not any({0, 3} <= c for c in parts)

    empty = Graph(3)
    assert components(empty) == (frozenset({0}), frozenset({1}), frozenset({2}))

    assert components(build_cycle(5)) == (frozenset(range(5)),)


def test_induced_subgraph_examples():
    c4 = build_cycle(4)
    sub = induced_subgraph(c4, [0, 1, 2])
    assert sub.edges == frozenset({(0, 1), (1, 2)})
    assert induced_subgraph(c4, []).node_count == 0
    cp8 = build_maximal_cp(8)
    core = induced_subgraph(cp8, range(4))
    assert is_two_connected(core)
    assert induced_subgraph(path(3), [1, 2]) == Graph(2, [(0, 1)])
    # A bool or a float id equals an int id, and would be relabelled as one.
    for nodes in ([5], [-1], [0, 4], [True, 2], [1.0, 2], [2, True], [1, True], ["1"], [None]):
        with pytest.raises(GraphError, match="not a node id"):
            induced_subgraph(c4, nodes)


def test_is_two_connected():
    assert is_two_connected(build_cycle(4))
    assert not is_two_connected(path(4))
    k4_minus = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_two_connected(k4_minus)
    # size <= 2 never counts
    assert not is_two_connected(Graph(2, [(0, 1)]))
    assert not is_two_connected(Graph(1))
    # connectivity after every single removal
    for g in (build_cycle(5), k4_minus, build_maximal_cp(8)):
        if is_two_connected(g):
            for k in range(g.node_count):
                h = induced_subgraph(g, [v for v in range(g.node_count) if v != k])
                assert len(components(h)) == 1


def test_classify_path4():
    part = class_sets(path(4))
    assert part.leaves == {0, 3}
    assert part.m_nodes == {1, 2}
    assert part.singleton_leaves == {0, 3}
    assert part.singletons == frozenset()
    assert part.r_nodes == frozenset()


def test_classify_cycle6():
    part = class_sets(build_cycle(6))
    assert part.singletons == part.m_nodes == part.singleton_leaves == frozenset()
    assert part.r_nodes == frozenset(range(6))
    # Residual degree 2 everywhere: no residual leaf and no 2-node piece.
    assert type(part.kinds) is bytes and part.kinds == bytes([RESIDUAL] * 6)
    assert part.d_gr == frozenset()


def test_classify_maximal_cp8():
    g = build_maximal_cp(8)
    part = class_sets(g)
    assert part.m_nodes == frozenset(range(4))
    assert part.singleton_leaves == frozenset(range(4, 8))
    assert part.r_nodes == frozenset()
    assert all(len(part.leaves.intersection(g.neighbors(c))) == 1 for c in range(4))


def test_classify_isolated_edge_goes_to_residual():
    # Both endpoints of an isolated edge would satisfy the attachment rule
    # and the leaf rule at once; they must land in the residual set to keep
    # the classes a partition.
    g = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 2)])
    part = class_sets(g)
    assert part.m_nodes == frozenset()
    assert part.r_nodes == frozenset(range(6))
    assert part.d_gr == frozenset({0, 1})


def test_classify_paw_graph_d_gr():
    # triangle 1-2-3 with pendant 0 on 1: residual pair {2,3}
    g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    part = class_sets(g)
    assert part.m_nodes == {1}
    assert part.singleton_leaves == {0}
    assert part.r_nodes == {2, 3}
    assert part.d_gr == {2, 3}


def test_classify_partition_property_random():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(0, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        g = Graph(n, edges)
        part = class_sets(g)
        blocks = [part.singletons, part.singleton_leaves, part.m_nodes, part.r_nodes]
        assert sum(len(b) for b in blocks) == n
        union = set()
        for b in blocks:
            assert not (union & b)
            union |= b
        assert part.singleton_leaves <= part.leaves
        assert len(part.r_nodes) == n - len(part.singletons) - 2 * len(part.m_nodes)


def test_classify_all_leaves_means_empty_residual():
    # disjoint edges with both endpoints degree 1 everywhere
    g = Graph(4, [(0, 1), (2, 3)])
    part = class_sets(g)
    assert part.r_nodes == frozenset(range(4))  # isolated edges are residual pairs
    g2 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    part2 = class_sets(g2)
    assert part2.r_nodes == frozenset(range(4))  # hub has 3 leaf neighbors


def test_canonical_form_examples():
    p3a = Graph(3, [(0, 1), (1, 2)])
    p3b = Graph(3, [(0, 2), (0, 1)])  # same path relabeled
    assert canonical_form(p3a) == canonical_form(p3b)
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_form(p3a) != canonical_form(triangle)
    cp6_a = build_maximal_cp(6)
    perm = [3, 5, 0, 2, 4, 1]
    cp6_b = Graph(6, [(perm[i], perm[j]) for (i, j) in cp6_a.edges])
    assert canonical_form(cp6_a) == canonical_form(cp6_b)


def test_canonical_form_permutation_invariance():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[i], perm[j]) for (i, j) in edges])
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_invariance_every_graph_up_to_six():
    rng = random.Random(99)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph(n, [(perm[i], perm[j]) for (i, j) in g.edges])
            assert canonical_form(h) == canonical_form(g)


def test_canonical_form_roundtrip_and_bound():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(0, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        key = canonical_form(Graph(n, edges))
        rep = graph_from_canonical_key(key)
        assert canonical_form(rep) == key
    with pytest.raises(GraphError):
        canonical_form(Graph(9))


def test_canonical_keys_decode_to_sorted_edges_and_masks():
    for n in range(9):
        for key in enumerate_keys(n):
            edges = canonical_key_edges(key)
            g = Graph(n, edges)
            assert edges == g.sorted_edges()
            assert _key_masks(key) == [g.neighbor_mask(v) for v in range(n)]
            assert json.dumps(key_to_json_dict(key)) == json.dumps(graph_to_json_dict(g))
            if n < 8:
                assert canonical_form(g) == key
    # True == 1 would otherwise give the keys for n = 1, and 2.0 a TypeError.
    for n in (-1, 9, True, False, 2.0, 1.5, "2", None):
        with pytest.raises(EnumerationError, match="enumeration supports"):
            enumerate_keys(n)


def test_enumeration_cache_refuses_equal_non_ints():
    # True and 1.0 hash and compare equal to 1: once the keys of 1 are
    # cached, a cache that saw them would hand them out for both.  A lone
    # positional int is its own lru_cache key, so the keyword calls are the
    # ones that would collide.  A list or a dict cannot be hashed, so a
    # cache that saw them would raise TypeError.  Both call forms of n = 1
    # read the one cached result, and no refused argument reaches the cache.
    keys = enumerate_keys(1)
    misses = canonical_module._sorted_keys.cache_info().misses
    assert enumerate_keys(1) is enumerate_keys(n=1) is keys == ((1, 0),)
    for n in (True, 1.0, [1], {}, {1: 1}):
        with pytest.raises(EnumerationError, match="enumeration supports"):
            enumerate_keys(n)
        with pytest.raises(EnumerationError, match="enumeration supports"):
            enumerate_keys(n=n)
    assert canonical_module._sorted_keys.cache_info().misses == misses


def test_canonical_form_separates_small_classes():
    # Brute-force the unlabeled classes on 4 nodes independently and compare.
    pairs = list(itertools.combinations(range(4), 2))
    brute = set()
    ours = set()
    for mask in range(1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        key = min(
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
            for p in itertools.permutations(range(4))
        )
        brute.add(key)
        ours.add(canonical_form(Graph(4, edges)))
    assert len(brute) == len(ours) == 11


def brute_canonical_form(g):
    # The key's definition, by exhaustion: over all n! placement orders, the
    # lexicographic maximum of each position's adjacency bits toward the
    # earlier positions, packed with position i's row at offset i(i-1)/2.
    n = g.node_count
    best = max(
        tuple(
            sum(1 << j for j in range(i) if g.has_edge(order[i], order[j]))
            for i in range(1, n)
        )
        for order in itertools.permutations(range(n))
    )
    return (n, sum(row << (i * (i + 1) // 2) for i, row in enumerate(best)))


def test_canonical_form_matches_bruteforce_definition():
    for n in range(0, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            assert canonical_form(g) == brute_canonical_form(g)
    rng = random.Random(6)
    for g in enumerate_graphs(6):
        perm = list(range(6))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_form(h) == brute_canonical_form(h) == canonical_form(g)


MEMBERS = tuple(  # MEMBERS[mask]: the nodes in the bitmask, in increasing order
    tuple(v for v in range(8) if m >> v & 1) for m in range(1 << 8)
)


def reference_canonical_form(g):
    # The key by an independent search: it fills one position per level and
    # keeps the partial orders whose rows are maximal so far.  A frontier
    # entry holds its unplaced nodes as a bitmask and score[v], v's row
    # toward the placed prefix: placing p at position `level` ORs
    # 1 << level into each unplaced neighbour's score.  Of tied twins
    # (N(u) - w == N(w) - u) only the first is branched on.
    n = g.node_count
    masks = [g.neighbor_mask(v) for v in range(n)]
    twins = [0] * n
    for u in range(n):
        for w in range(u):
            if masks[u] & ~(1 << w) == masks[w] & ~(1 << u):
                twins[u] |= 1 << w
    frontier = [((1 << n) - 1, [0] * n)]
    key = 0
    for level in range(n):
        bit = 1 << level
        best = -1
        grown = []
        for unplaced, score in frontier:
            top = -1
            for v in MEMBERS[unplaced]:
                if score[v] > top:
                    top = score[v]
                    tied = [v]
                elif score[v] == top:
                    tied.append(v)
            if top < best:
                continue
            if top > best:
                best = top
                grown = []
            kept = 0
            for v in tied:
                if twins[v] & kept:
                    continue
                kept |= 1 << v
                child = score[:]
                for w in MEMBERS[masks[v] & unplaced]:
                    child[w] |= bit
                grown.append((unplaced & ~(1 << v), child))
        frontier = grown
        key |= best << (level * (level - 1) // 2)
    return (n, key)


# K8 minus a perfect matching: four classes of non-adjacent twins.  And the
# two n = 8 classes where the reference search holds the most frontier
# entries, summed over its levels (817 and 834).
HARD_CASES = (
    Graph(8, [(i, j) for i, j in itertools.combinations(range(8), 2) if j != i + 4]),
    Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5),
              (2, 3), (2, 4), (2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
              (4, 7), (5, 6), (5, 7), (6, 7)]),
    Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5),
              (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5),
              (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]),
)


def test_canonical_form_matches_reference_search():
    rng = random.Random(2014)
    cases = [(g, 3) for n in range(8) for g in enumerate_graphs(n)]
    cases += [(g, 1) for g in enumerate_graphs(8)]
    cases += [(g, 20) for g in HARD_CASES]
    for g, relabellings in cases:
        want = reference_canonical_form(g)
        assert canonical_form(g) == want
        for _ in range(relabellings):
            perm = list(range(g.node_count))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == want


def twins(g, u, w):
    return g.neighbor_mask(u) & ~(1 << w) == g.neighbor_mask(w) & ~(1 << u)


def test_twin_classes_partition_into_pairwise_twins():
    labelled = [
        Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        for n in range(0, 6)
        for pairs in [list(itertools.combinations(range(n), 2))]
        for mask in range(1 << len(pairs))
    ]
    for g in labelled + [g for n in (6, 7) for g in enumerate_graphs(n)]:
        classes = twin_classes([g.neighbor_mask(v) for v in range(g.node_count)])
        for v in range(g.node_count):
            for w in range(g.node_count):
                # w is in v's class exactly when it is v or v's twin, and then
                # both carry the same class
                assert (classes[v] >> w & 1) == (v == w or twins(g, v, w))
                if classes[v] >> w & 1:
                    assert classes[w] == classes[v]


def dict_pass_twin_classes(masks):
    """Oracle: the twin classes from one pass over the nodes, grouping them
    by open and by closed neighbourhood."""
    open_groups, closed_groups = {}, {}
    for v, m in enumerate(masks):
        open_groups[m] = open_groups.get(m, 0) | 1 << v
        closed_groups[m | 1 << v] = closed_groups.get(m | 1 << v, 0) | 1 << v
    return tuple(open_groups[m] | closed_groups[m | 1 << v] for v, m in enumerate(masks))


def branch_and_bound_cliques(masks, classes):
    """Oracle: the maximum cliques, as bitmasks, that take the lowest members
    of every twin class they meet, by branch and bound over the nodes in
    increasing order."""
    best, found = 0, []
    stack = [(0, (1 << len(masks)) - 1)]
    while stack:
        clique, cand = stack.pop()
        if not cand:  # no node above can join, as for every maximum clique
            size = clique.bit_count()
            if size > best:
                best, found = size, []
            if size == best:
                found.append(clique)
        elif clique.bit_count() + cand.bit_count() >= best:
            for v in reversed(MEMBERS[cand]):
                if not classes[v] & ((1 << v) - 1) & ~clique:  # no lower twin left out
                    stack.append((clique | 1 << v, cand & masks[v] & -(2 << v)))
    return sorted(found)


def all_cliques(masks):
    """Every clique, the empty one included, as sorted bitmasks."""
    found = []

    def grow(clique, cand):
        found.append(clique)
        for v in MEMBERS[cand]:
            grow(clique | 1 << v, cand & masks[v] & -(2 << v))

    grow(0, (1 << len(masks)) - 1)
    return sorted(found)


def test_folds_match_oracles_on_every_graph_up_to_seven():
    rng = random.Random(7)
    for n in range(8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                masks = [h.neighbor_mask(v) for v in range(n)]
                classes = twin_classes(masks)
                assert classes == dict_pass_twin_classes(masks)
                cliques = all_cliques(masks)
                omega = max(c.bit_count() for c in cliques)
                top, second = _largest_cliques(masks)
                assert sorted(top) == [c for c in cliques if c.bit_count() == omega]
                assert sorted(second) == [c for c in cliques if c.bit_count() == omega - 1]
                assert sorted(_maximum_cliques(masks, classes, top)) == (
                    branch_and_bound_cliques(masks, classes)
                )


def test_fold_steps_match_oracles_on_every_extension():
    # Every neighbourhood of a new node, not only those enumeration keeps.
    for n in range(7):
        bit = 1 << n
        for key in enumerate_keys(n):
            parent = _key_masks(key)
            classes = twin_classes(parent)
            cliques = all_cliques(parent)
            top, second = _largest_cliques(parent)
            for subset in range(1 << n):
                masks = [m | bit if subset >> j & 1 else m for j, m in enumerate(parent)]
                masks.append(subset)
                stepped = tuple(_twin_step(classes, parent, subset))
                assert stepped == dict_pass_twin_classes(masks), (key, subset)
                assert sorted(cliques + _joined_cliques(cliques, subset, bit)) == (
                    all_cliques(masks)
                )
                # The step on the two largest sizes, as enumeration takes it.
                largest = _joined_cliques(top, subset, bit) or top + _joined_cliques(
                    second, subset, bit
                )
                assert sorted(_maximum_cliques(masks, stepped, largest)) == (
                    branch_and_bound_cliques(masks, stepped)
                ), (key, subset)


def twin_extension_subsets(classes):
    """The node subsets, as bitmasks, that take the lowest members of each
    twin class: one subset per orbit of the twin swaps."""
    subsets = [0]
    done = 0
    for cls in classes:
        if cls & done:
            continue
        done |= cls
        prefixes = [0]
        for v in MEMBERS[cls]:
            prefixes.append(prefixes[-1] | 1 << v)
        subsets = [s | p for s in subsets for p in prefixes]
    return subsets


@functools.lru_cache(maxsize=None)
def twin_representative_keys(n):
    """Oracle enumerator: the library's augmentation with only the twin
    swaps as automorphisms, and the degree filter and the maximum-invariant
    test applied to each extension.  Returns (keys, canonical_form calls)."""
    if n == 0:
        return ((0, 0),), 0
    new = n - 1
    bit = 1 << new
    keys = set()
    smaller, calls = twin_representative_keys(new)
    for key in smaller:
        parent = _key_masks(key)
        degree = [m.bit_count() for m in parent]
        top = max(degree, default=0)
        blocked = [sum(1 << j for j in range(new) if degree[j] >= k) for k in range(n)]
        for subset in twin_extension_subsets(twin_classes(parent)):
            k = subset.bit_count()
            if k < top or subset & blocked[k]:
                continue
            masks = [m | bit if subset >> j & 1 else m for j, m in enumerate(parent)]
            masks.append(subset)
            deg = [m.bit_count() for m in masks]
            mine = sorted(deg[w] for w in MEMBERS[subset])
            if any(
                deg[j] == k and sorted(deg[w] for w in MEMBERS[masks[j]]) > mine
                for j in range(new)
            ):
                continue
            keys.add(canonical_form(Graph(n, canonical_key_edges(key) + [
                (j, new) for j in MEMBERS[subset]])))
            calls += 1
    return tuple(sorted(keys)), calls


def test_extension_subsets_one_per_twin_swap_orbit():
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            masks = [g.neighbor_mask(v) for v in range(n)]
            classes = sorted(set(twin_classes(masks)))
            groups = [[v for v in range(n) if cls >> v & 1] for cls in classes]
            swaps = []  # every permutation that maps each twin class onto itself
            for images in itertools.product(*(itertools.permutations(m) for m in groups)):
                perm = list(range(n))
                for members, image in zip(groups, images):
                    for v, w in zip(members, image):
                        perm[v] = w
                assert relabel(g, perm) == g  # a twin swap is an automorphism
                swaps.append(perm)
            kept = twin_extension_subsets(twin_classes(masks))
            assert len(kept) == len(set(kept))
            for subset in range(1 << n):
                orbit = {
                    sum(1 << perm[v] for v in range(n) if subset >> v & 1)
                    for perm in swaps
                }
                assert len(orbit & set(kept)) == 1


def test_enumeration_matches_twin_swap_oracle():
    for n in range(0, 8):
        assert enumerate_keys(n) == twin_representative_keys(n)[0]
    assert twin_representative_keys(7)[1] == 1673


def count_enumeration_calls(monkeypatch, name):
    """The calls to the hsnet.canonical function ``name`` while every key at
    n <= 7 is rebuilt, with the level caches emptied before and after."""
    calls = []
    counted = getattr(canonical_module, name)

    def counting(*args):
        calls.append(1)
        return counted(*args)

    canonical_module._classes.cache_clear()
    canonical_module._sorted_keys.cache_clear()
    monkeypatch.setattr(canonical_module, name, counting)
    try:
        keys = canonical_module.enumerate_keys(7)
    finally:
        canonical_module._classes.cache_clear()
        canonical_module._sorted_keys.cache_clear()
    assert len(keys) == 1044
    return len(calls)


def test_canonical_form_calls_pinned(monkeypatch):
    # Enumeration folds the twin classes and cliques of each of the 209
    # classes with n <= 6 once, when it extends the class, and takes each
    # extension's by one fold step from them; canonical_form, which folds a
    # graph from its first node, is never called.
    assert count_enumeration_calls(monkeypatch, "canonical_form") == 0
    assert count_enumeration_calls(monkeypatch, "twin_classes") == 209
    assert count_enumeration_calls(monkeypatch, "_largest_cliques") == 209


def test_canonical_search_calls_pinned(monkeypatch):
    # One search per orbit of the parent's automorphisms that passes both
    # filters.  A weaker prune (the twin swaps alone make 1,673) raises it,
    # and so does a second search per parent for its automorphisms (1,509).
    assert count_enumeration_calls(monkeypatch, "_canonical_search") == 1300


def second_search_images(masks):
    """Oracle: automorphism generators of the graph with neighbour bitmasks
    ``masks``, in its own labelling, from a second canonical search on it:
    the maps of the first order of its final frontier onto each other one,
    and the twin swaps."""
    classes = twin_classes(masks)
    first, *others = [
        [v for cell in cells for v in MEMBERS[cell]]
        for cells, _ in _canonical_search(masks, classes, _largest_cliques(masks)[0])[1]
    ]
    moves = [dict(zip(first, order)) for order in others] + [
        {v: w, w: v} for cls in set(classes) for v, w in zip(MEMBERS[cls], MEMBERS[cls][1:])
    ]
    return [[1 << move.get(v, v) for v in range(len(masks))] for move in moves]


def assert_images_are_automorphisms(masks, images):
    n = len(masks)
    for image in images:
        perm = [m.bit_length() - 1 for m in image]
        assert sorted(perm) == list(range(n))
        moved = [0] * n
        for v, m in enumerate(masks):
            moved[perm[v]] = sum(1 << perm[w] for w in MEMBERS[m])
        assert moved == masks


def test_automorphism_images_on_every_graph_up_to_seven():
    for n in range(0, 8):
        for key, frontier in _classes(n).items():
            masks = _key_masks(key)
            images = _automorphism_images(twin_classes(masks), frontier)
            assert_images_are_automorphisms(masks, images)
            assert_images_are_automorphisms(masks, second_search_images(masks))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph_and_permutation())
def test_automorphism_images_under_relabelling(case):
    # The frontier of a search on any labelling gives generators in the key's.
    g, perm = case
    h = relabel(g, perm)
    masks = [h.neighbor_mask(v) for v in range(h.node_count)]
    bits, frontier = _canonical_search(masks, twin_classes(masks), _largest_cliques(masks)[0])
    parent = _key_masks((h.node_count, bits))
    images = _automorphism_images(twin_classes(parent), frontier)
    assert_images_are_automorphisms(parent, images)
    assert_images_are_automorphisms(masks, second_search_images(masks))


def test_extension_subsets_match_second_search_oracle():
    for n in range(0, 7):
        for key, frontier in _classes(n).items():
            masks = _key_masks(key)
            degrees = [m.bit_count() for m in masks]
            images = _automorphism_images(twin_classes(masks), frontier)
            assert _extension_subsets(degrees, images) == (
                _extension_subsets(degrees, second_search_images(masks))
            ), key


def per_member_extension_subsets(degrees, images):
    """Oracle: ``_extension_subsets`` with each orbit member mapped through
    each generator one member at a time, the image bits summed."""
    top = max(degrees, default=0)
    tops = sum(1 << j for j, d in enumerate(degrees) if d == top)
    kept, seen = [], set()
    for subset in range(1 << len(degrees)):
        k = subset.bit_count()
        if k < top or k == top and subset & tops or subset in seen:
            continue
        kept.append(subset)
        seen.add(subset)
        orbit = [subset]
        for t in orbit:
            for image in images:
                u = sum(map(image.__getitem__, MEMBERS[t]))
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
    return kept


def test_extension_subsets_match_per_member_orbit_walk():
    for n in range(0, 8):
        for key, frontier in _classes(n).items():
            masks = _key_masks(key)
            degrees = [m.bit_count() for m in masks]
            images = _automorphism_images(twin_classes(masks), frontier)
            assert _extension_subsets(degrees, images) == (
                per_member_extension_subsets(degrees, images)
            ), key


def test_extension_subsets_one_per_automorphism_orbit():
    for n in range(0, 7):
        for key, frontier in _classes(n).items():
            masks = _key_masks(key)
            autos = [
                perm for perm in itertools.permutations(range(n))
                if all(
                    sum(1 << perm[w] for w in MEMBERS[masks[v]]) == masks[perm[v]]
                    for v in range(n)
                )
            ]
            degree = [m.bit_count() for m in masks]
            passing = [
                s for s in range(1 << n)
                if s.bit_count() >= max(degree, default=0)
                and all(degree[v] < s.bit_count() for v in MEMBERS[s])
            ]
            images = _automorphism_images(twin_classes(masks), frontier)
            kept = _extension_subsets(degree, images)
            assert len(kept) == len(set(kept)) and set(kept) <= set(passing)
            for subset in passing:
                orbit = {sum(1 << perm[v] for v in MEMBERS[subset]) for perm in autos}
                assert len(orbit & set(kept)) == 1, (key, subset)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph_and_permutation())
def test_canonical_form_invariant_under_any_permutation(case):
    g, perm = case
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_is_two_connected_matches_node_removal():
    for n in range(0, 7):
        for g in enumerate_graphs(n):
            # Connected: one component, on these graphs of n - 1 >= 2 nodes.
            expect = n >= 3 and len(components(g)) == 1 and all(
                len(components(induced_subgraph(g, [v for v in range(n) if v != k]))) == 1
                for k in range(n)
            )
            assert is_two_connected(g) == expect


# -- oracles for the low-link DFS --------------------------------------------


def reached_by_bitmasks(g, rest):
    """The nodes of the bitmask ``rest`` that a search inside ``rest`` reaches
    from its lowest node."""
    reached = todo = rest & -rest
    while todo:
        v = todo.bit_length() - 1
        fresh = g.neighbor_mask(v) & rest & ~reached
        reached |= fresh
        todo = todo ^ (1 << v) | fresh
    return reached


def two_connected_by_bitmasks(g):
    """2-connectivity by one bitmask search of G and of each G - k."""
    n = g.node_count
    full = (1 << n) - 1
    return n >= 3 and all(
        reached_by_bitmasks(g, rest) == rest
        for rest in [full] + [full & ~(1 << k) for k in range(n)]
    )


def components_by_union_find(g):
    """The components by union-find, each component's root its smallest
    member, components ordered by it."""
    parent = list(range(g.node_count))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, j in g.edges:
        a, b = find(i), find(j)
        parent[max(a, b)] = min(a, b)
    roots = sorted({find(v) for v in range(g.node_count)})
    return tuple(frozenset(v for v in range(g.node_count) if find(v) == r) for r in roots)


def leaf_neighbor_counts_by_bitmasks(g):
    leaf_mask = sum(1 << v for v in range(g.node_count) if g.degree(v) == 1)
    return tuple((g.neighbor_mask(v) & leaf_mask).bit_count() for v in range(g.node_count))


def assert_matches_oracles(g):
    assert components(g) == components_by_union_find(g), g
    assert is_two_connected(g) == two_connected_by_bitmasks(g), g
    # The leaf count decides two classes: the non-leaves with one leaf
    # neighbour are the attachment nodes, and those leaves the singleton leaves.
    counts = leaf_neighbor_counts_by_bitmasks(g)
    attached = {v for v, c in enumerate(counts) if c == 1 and g.degree(v) != 1}
    part = class_sets(g)
    assert part.m_nodes == attached, g
    assert part.singleton_leaves == {w for v in attached for w in g.neighbors(v)
                                     if g.degree(w) == 1}, g
    for v in range(g.node_count):
        assert g.neighbors(v) == tuple(w for w in range(g.node_count) if g.neighbor_mask(v) >> w & 1)
        assert all(g.has_edge(v, w) == (w in g.neighbors(v)) for w in range(g.node_count))


def test_dfs_queries_match_oracles_on_every_graph_up_to_seven():
    rng = random.Random(13)
    for n in range(0, 8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            assert_matches_oracles(g)
            assert_matches_oracles(relabel(g, perm))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph_and_permutation(max_nodes=12))
def test_dfs_queries_match_oracles_under_relabelling(case):
    g, perm = case
    assert_matches_oracles(g)
    assert_matches_oracles(relabel(g, perm))


def test_structure_queries_at_100000_nodes():
    # One bitmask per node would take about 1.25 GB here; the neighbour
    # tuples and the iterative DFS take O(n + e).
    n = 100_000
    cycle = build_cycle(n)
    assert components(cycle) == (frozenset(range(n)),)
    assert is_two_connected(cycle)
    part = class_sets(cycle)
    assert part.r_nodes == frozenset(range(n)) and part.d_gr == frozenset()
    assert part.m_nodes == part.singleton_leaves == part.singletons == frozenset()

    cp = design_topology(n, 0, n // 2).graph
    assert components(cp) == (frozenset(range(n)),)
    assert not is_two_connected(cp)  # every core node holds a leaf
    assert is_two_connected(induced_subgraph(cp, range(n // 2)))
    part = class_sets(cp)
    assert part.m_nodes == frozenset(range(n // 2))
    assert part.singleton_leaves == frozenset(range(n // 2, n))
    assert part.r_nodes == part.singletons == frozenset()


def test_bitmasks_only_for_canonical_sizes():
    for g in (Graph(9), build_cycle(20)):
        with pytest.raises(GraphError, match="at most 8 nodes"):
            canonical_form(g)


def test_text_format_roundtrip_and_errors():
    g = build_maximal_cp(6)
    text = format_graph_text(g)
    assert text.startswith("n 6\n")
    assert parse_graph_text(text) == g
    assert parse_graph_text("# comment\nn 2\ne 0 1\n") == Graph(2, [(0, 1)])

    with pytest.raises(GraphFormatError) as err:
        parse_graph_text("n 3\ne 1 0\n")
    assert err.value.line == 2
    with pytest.raises(GraphFormatError):
        parse_graph_text("e 0 1\nn 3\n")
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text("n 3\ne 0 1\ne 0 1\n")
    assert err.value.line == 3
    with pytest.raises(GraphFormatError):
        parse_graph_text("n 3\nz 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text("")


@pytest.mark.parametrize("bad", ["1_0", "\u0663", "\u0661"], ids=["underscore", "arabic3", "arabic1"])
def test_text_format_reads_plain_ascii_integers(bad):
    # int() would read each as 10, 3 or 1, all valid here; the text format
    # takes ASCII digits only, as --n does.
    for text, message in (
        (f"n {bad}\n", f"line 1: bad node count {bad!r}"),
        (f"n 12\ne {bad} 11\n", "line 2: edge endpoints must be integers"),
        (f"n 12\ne 0 {bad}\n", "line 2: edge endpoints must be integers"),
    ):
        with pytest.raises(GraphFormatError) as err:
            parse_graph_text(text)
        assert str(err.value) == message
    assert parse_graph_text("n +12\ne 0 11\n") == Graph(12, [(0, 11)])


def test_graph_readers_refuse_a_node_count_past_the_limit(monkeypatch):
    import hsnet.graphs
    limit = hsnet.graphs.GRAPH_MAX_NODES
    assert limit == 10**6
    # Refused as soon as the count is read: no Graph is built.
    monkeypatch.setattr(hsnet.graphs, "Graph", lambda *a: pytest.fail("a Graph was built"))
    message = f"node count must be at most {limit}, got {limit + 1}"
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text(f"# big\nn {limit + 1}\ne 0 1\n")
    assert (str(err.value), err.value.line) == (f"line 2: {message}", 2)
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        graph_from_json_dict({"n": limit + 1, "edges": [[0, 1]]})
    built = []
    monkeypatch.setattr(hsnet.graphs, "Graph", lambda n, edges: built.append(n))
    parse_graph_text(f"n {limit}\n")
    graph_from_json_dict({"n": limit, "edges": []})
    assert built == [limit, limit]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs())
def test_text_and_json_round_trips(g):
    assert parse_graph_text(format_graph_text(g)) == g
    assert graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(g)))) == g


def test_json_graph_rejects_non_integer_fields():
    for data in (
        {"n": 3, "edges": [[0, 1.7]]},
        {"n": 3, "edges": [[0, True]]},
        {"n": 3, "edges": [["0", 1]]},
        {"n": True, "edges": []},
        {"n": 3.0, "edges": []},
        {"n": 3, "edges": 5},
    ):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(data)


def test_json_and_dot():
    g = Graph(3, [(0, 2)])
    assert graph_from_json_dict(graph_to_json_dict(g)) == g
    dot = to_dot(g, {0: "core", 2: "periphery"})
    assert "0 -- 2;" in dot
    assert "fillcolor=lightblue" in dot
