"""A fixed pure-Python workload that measures how fast the machine is now.

    python3 perfbench/reference_work.py      # prints a checksum

It never imports hsnet, so no change to the program moves it.  It does in
small the kinds of work hsnet commands do: start an interpreter and import
the standard modules they use, find canonical forms of small graphs by
permutation search, eliminate on a matrix of fractions, and multiply a dense
float matrix by vectors.  ``run.py`` times it as a child process between the
timed commands and scales every time metric by its median, so that the slow
and fast stretches of a shared CPU cancel out.
"""

import itertools
import json
from fractions import Fraction

GRAPH_NODES = 6
GRAPHS = 30
MATRIX_SIZE = 32
DENSE_SIZE = 200
DENSE_ROUNDS = 24


def canonical(n, edges):
    """Smallest relabelled edge list over all permutations of the nodes."""
    best = None
    for perm in itertools.permutations(range(n)):
        form = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges))
        if best is None or form < best:
            best = form
    return best


def graphs_part():
    forms = set()
    pairs = list(itertools.combinations(range(GRAPH_NODES), 2))
    for g in range(GRAPHS):
        edges = [p for k, p in enumerate(pairs) if (k * 7 + g * 3) % 5 < 2]
        forms.add(canonical(GRAPH_NODES, edges))
    return len(forms)


def fractions_part():
    size = MATRIX_SIZE
    m = [
        [Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(size)]
        for i in range(size)
    ]
    for c in range(size):
        p = next(i for i in range(c, size) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        for i in range(c + 1, size):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return m[-1][-1]


def dense_part():
    n = DENSE_SIZE
    a = [[((i * j) % 13) / 13.0 for j in range(n)] for i in range(n)]
    x = [1.0 / n] * n
    for _ in range(DENSE_ROUNDS):
        y = [sum(r * v for r, v in zip(row, x)) for row in a]
        total = sum(y)
        x = [v / total for v in y]
    return round(max(x), 12)


def main():
    print(json.dumps([graphs_part(), str(fractions_part()), dense_part()]))


if __name__ == "__main__":
    main()
