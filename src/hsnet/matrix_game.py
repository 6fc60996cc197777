"""Exact solver for two-player zero-sum matrix games, and the game's matrix
on a fixed graph, which ``hsnet solve`` and the verifier build to solve it.

The row player maximizes, the column player minimizes.  One LP per game: the
matrix is checked and read once into integers over its common denominator,
and those into its smallest integer image K (least entry 1, and gcd 1 over
its entries less 1: two distinct payoffs become 1s and 2s).  The exact
simplex solves the column player's program  max sum(w), K w <= 1, w >= 0;
its optimum is one over K's value, and the row player's strategy is read
off its dual multipliers.  The optimal-mass probe is posed on K by LP
duality as a program of the same slack-feasible form, so every LP here
starts from the slack basis.  The strategies are certified by a zero
best-response gap, computed in exact arithmetic on the caller's matrix read
in integers, apart from the solver and the image, by ``gap_from_payoffs``.
That and ``MixedStrategy`` live in ``hsnet.payoff``, next to the payoffs they
certify, so ``hsnet design`` certifies its strategies without loading this
module or the simplex.  The simplex answers in integers over its divisor,
and each solver here builds one Fraction itself, the answer it returns.

``capture_pattern`` reads a graph's game with no utility in it, and
``integer_payoffs`` maps it through a utility's integer table into the
hider-payoff matrix as integers over a denominator D; the verifier maps one
pattern per graph through every cell's table.  The integers are passed
alone: they have their Fractions' image, so they reach the same strategies;
the caller divides the value by D and probes masses at D times it.
``capture_probability`` reads a strategy pair's capture rate off the
neighbour tuples.

Optimal strategies are generally not unique; callers should compare values
and regrets, never strategy vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import simplex
from .graphs import Graph, GraphError, _deletion_pieces, _dfs_low_links
from .payoff import MixedStrategy, UtilitySpec, _weights, gap_from_payoffs
from .records import Record


class GameSolution(Record):
    """Value plus one optimal strategy per player (row = maximizer)."""

    __slots__ = _fields = ("value", "row_strategy", "col_strategy")


def _integer_rows(matrix):
    """(rows, D, image, g, lo): the matrix, checked to be nonempty,
    rectangular and exact, as rows of integers over its common denominator D,
    and its smallest integer image K = (v - lo) / g + 1, with lo the least of
    those integers v and g the gcd of all v - lo (1 if all are equal), so that
    matrix = (g K + lo - g) / D exactly."""
    rows = [tuple(row) for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows must have equal length")
    kinds = set().union(*(map(type, r) for r in rows))
    if not kinds <= {int, Fraction}:
        raise ValueError("matrix entries must be int or Fraction")
    den = 1
    if Fraction in kinds:
        den = lcm(*(v.denominator for r in rows for v in r))
        rows = [[v.numerator * (den // v.denominator) for v in r] for r in rows]
    values = set().union(*rows)
    lo = min(values)
    g = gcd(*(v - lo for v in values)) or 1
    image = {v: (v - lo) // g + 1 for v in values}
    return rows, den, [list(map(image.__getitem__, r)) for r in rows], g, lo


def _column_lp(matrix):
    """Read the matrix by ``_integer_rows`` and solve the column player's
    program  max sum(w), K w <= 1, w >= 0  on its image K.  Returns (rows, D,
    g, lo, (w, z, duals, d)), the last ``solve_lp``'s answer: the optimum
    z / d is one over K's value, so the game's value is
    (g d + (lo - g) z) / (D z), and w and the row duals each sum to z."""
    rows, den, image, g, lo = _integer_rows(matrix)
    return rows, den, g, lo, simplex.solve_lp([1] * len(image[0]), image, [1] * len(image))


def game_value(matrix) -> Fraction:
    """Value of the game for the row player (no strategies computed)."""
    _, den, g, lo, (_, z, _, d) = _column_lp(matrix)
    return Fraction(g * d + (lo - g) * z, den * z)


def solve_zero_sum(matrix) -> GameSolution:
    """Exact minimax value and one optimal strategy per player.

    Both strategies come from one LP: the column player's from its primal
    solution, the row player's from its duals.  A nonzero best-response gap
    on the caller's integer rows would mean a solver bug, so it is asserted.
    """
    rows, den, g, lo, (w, z, duals, d) = _column_lp(matrix)
    # Each vector sums to the optimum, so it is the strategy's weights over z.
    if sum(duals) != z or sum(w) != z:
        raise AssertionError("solver vector does not sum to its optimum; solver bug")
    row_strategy = MixedStrategy.from_weights(duals, z)
    col_strategy = MixedStrategy.from_weights(w, z)
    if best_response_gap(rows, row_strategy, col_strategy) != (0, 0):
        raise AssertionError("solver strategies are not an equilibrium; solver bug")
    return GameSolution(Fraction(g * d + (lo - g) * z, den * z), row_strategy, col_strategy)


def best_response_gap(matrix, row: MixedStrategy, col: MixedStrategy):
    """(row regret, column regret): gain available to each player by the best
    pure deviation.  Both are zero exactly when (row, col) is an equilibrium.
    They are computed in integers on the matrix's rows over its common
    denominator D, which leave every regret D times its own, and the two
    strategies' weights brought over one denominator."""
    rows, den, *_ = _integer_rows(matrix)
    (rho, rho_den), (sigma, sigma_den) = _weights(row), _weights(col)
    if len(rho) != len(rows) or len(sigma) != len(rows[0]):
        raise ValueError("strategy dimensions do not match the matrix")
    common = lcm(rho_den, sigma_den)
    col_support = [(k, q * (common // sigma_den)) for k, q in enumerate(sigma) if q]
    row_support = [(p * (common // rho_den), r) for p, r in zip(rho, rows) if p]
    row_payoffs = [sum(r[k] * q for k, q in col_support) for r in rows]  # M.col
    col_payoffs = [sum(p * r[k] for p, r in row_support) for k in range(len(sigma))]  # row.M
    gap = gap_from_payoffs(row, row_payoffs, col_payoffs)
    return tuple(regret / (den * common) for regret in gap)


def max_optimal_mass(matrix, value: Fraction, rows) -> Fraction:
    """Largest total probability any optimal row strategy can place on a set
    of actions.

    Maximizes the sum of x[i] over i in ``rows`` over the full polytope of
    optimal row strategies (those guaranteeing ``value``, the game's value,
    against every column).  A zero answer certifies that no equilibrium uses
    any of the actions at all.  ``rows`` is a nonempty collection of row
    indices, each exactly an int (a bool or a float is a ValueError).  A
    value below the game's only grows the polytope probed; one above it
    leaves it empty, and the LP below is then unbounded.

    With K the matrix's integer image (``_integer_rows``), v' = p/q the
    value in K's units, T = 1/v' and e the indicator of ``rows``, the scaled
    optimal strategies are the y >= 0 with K^T y >= 1 and sum(y) <= T.  The
    LP dual of  max e . y  over them forces its multiplier t >= 1 on
    sum(y) <= T; with t = 1 + t' it is the slack-feasible program

        z = max sum(w) - T t'   s.t.   K w - t' <= 1 - e,   w, t' >= 0,

    and the answer is v' (T - z) = 1 - v' z.  It is solved in integers with
    the objective scaled by p > 0, whose optimum is p z.
    """
    _, den, image, g, lo = _integer_rows(matrix)
    members = tuple(rows)
    if not members:
        raise ValueError("rows must hold at least one row index")
    for index in members:
        if type(index) is not int or not 0 <= index < len(image):
            raise ValueError(f"row index must be an int in 0..{len(image) - 1}, got {index!r}")
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError("value must be int or Fraction")
    # v' = (value D - lo + g) / g, in lowest terms p / q with q > 0.
    p = value.numerator * den - (lo - g) * value.denominator
    q = g * value.denominator
    common = gcd(p, q)
    p, q = p // common, q // common
    if p < q:
        raise ValueError("value is below every entry of the matrix")
    _, pz, _, d = simplex.solve_lp(
        c=[p] * len(image[0]) + [-q],
        rows=[row + [-1] for row in image],
        rhs=[0 if h in members else 1 for h in range(len(image))],
    )
    return Fraction(d * q - pz, d * q)


# -- the game on a graph ------------------------------------------------------


def capture_pattern(g: Graph) -> tuple:
    """A graph's game with no utility in it, on at least one node: row h (the
    hider's position), column k (the node the seeker inspects) holds 0 where
    k's inspection catches h, at k and its neighbours, else h's component
    size once k is deleted.  One low-link DFS gives every column's sizes
    (``graphs._deletion_pieces``): k's separated child subtrees, the rest of
    k's component, and the other components unchanged."""
    n = g.node_count
    if n < 1:
        raise GraphError("payoff matrix needs at least one node")
    links = _dfs_low_links(g)
    order, tin, _, size, comp_start = links
    whole = [size[order[comp_start[v]]] for v in order]  # by preorder position
    # sizes[k][tin[h]]: the pattern's entry at (h, k).
    sizes = []
    for k in range(n):
        pieces, rest = _deletion_pieces(links, k)
        a, c = comp_start[k], whole[tin[k]]
        column = whole[:]
        column[a : a + c] = [rest] * c
        for ch in pieces:
            t = tin[ch]
            column[t : t + size[ch]] = [size[ch]] * size[ch]
        column[tin[k]] = 0
        for w in g.neighbors(k):
            column[tin[w]] = 0
        sizes.append(column)
    return tuple(tuple(column[t] for column in sizes) for t in tin)


def integer_payoffs(g: Graph, u: UtilitySpec) -> tuple:
    """(rows, D): the hider-payoff matrix of a graph with at least one node,
    as a tuple of rows of integers over D: its ``capture_pattern`` read
    through ``u.integer_table`` over the sizes it holds, so D is the lcm of
    the matrix's denominators."""
    pattern = capture_pattern(g)
    held = sorted(set().union(*pattern))
    values, den = u.integer_table(held)
    table = dict(zip(held, values))
    return tuple(tuple(map(table.__getitem__, row)) for row in pattern), den


def capture_probability(g: Graph, hider: MixedStrategy, seeker: MixedStrategy) -> Fraction:
    """Probability the hider is caught under a pair of mixed strategies, each
    a MixedStrategy over the nodes of g (read by ``payoff._weights``, which
    refuses any other form).  Inspecting k catches the hider mass on k and
    its neighbours, so the sum takes O(n + e) integer operations and builds
    one Fraction.
    """
    (hp, hden), (sp, sden) = _weights(hider), _weights(seeker)
    if len(hp) != g.node_count or len(sp) != g.node_count:
        raise GraphError("strategy length must equal node count")
    hider_at = hp.__getitem__
    caught = sum(q * (hp[k] + sum(map(hider_at, g.neighbors(k)))) for k, q in enumerate(sp) if q)
    return Fraction(caught, hden * sden)
