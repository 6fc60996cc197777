"""Exact solver for two-player zero-sum matrix games.

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
module; here only the functions that run an LP import the simplex.

A matrix held as integers over a denominator D (``payoff.integer_payoffs``)
is passed as its integers alone: it has its Fractions' image, so it reaches
the same strategies; the caller divides the value by D and probes masses at
D times it.

Optimal strategies are generally not unique; callers should compare values
and regrets, never strategy vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .payoff import MixedStrategy, gap_from_payoffs
from .rationals import over_common_denominator
from .records import Record

ONE = Fraction(1)


class GameSolution(Record):
    """Value plus one optimal strategy per player (row = maximizer)."""

    __slots__ = _fields = ("value", "row_strategy", "col_strategy")


def _integer_rows(matrix):
    """(rows, D, image, scale, offset): the matrix, checked to be nonempty,
    rectangular and exact, as rows of integers over its common denominator D,
    and its smallest integer image K = (v - lo) / g + 1, with lo the least of
    those integers v and g the gcd of all v - lo (1 if all are equal), so that
    matrix = scale * K + offset exactly, with scale = g / D, offset = (lo - g) / D."""
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
    return (rows, den, [list(map(image.__getitem__, r)) for r in rows],
            Fraction(g, den), Fraction(lo - g, den))


def _column_lp(matrix):
    """Read the matrix by ``_integer_rows`` and solve the column player's
    program  max sum(w), K w <= 1, w >= 0  on its image K.  Returns (rows, w,
    total, duals, scale, offset): the optimum total is one over K's value, so
    the game's value is scale / total + offset, and the row duals sum to it.
    """
    from .simplex import solve_lp
    rows, den, image, scale, offset = _integer_rows(matrix)
    w, total, duals = solve_lp(c=[1] * len(image[0]), rows=image, rhs=[1] * len(image))
    return rows, w, total, duals, scale, offset


def game_value(matrix) -> Fraction:
    """Value of the game for the row player (no strategies computed)."""
    _, _, total, _, scale, offset = _column_lp(matrix)
    return scale / total + offset


def solve_zero_sum(matrix) -> GameSolution:
    """Exact minimax value and one optimal strategy per player.

    Both strategies come from one LP: the column player's from its primal
    solution, the row player's from its duals.  A nonzero best-response gap
    on the caller's integer rows would mean a solver bug, so it is asserted.
    """
    rows, w, total, duals, scale, offset = _column_lp(matrix)
    strategies = []
    for vector in (duals, w):  # each sums to total, as weights over their sum
        nums, d = over_common_denominator(vector)
        if sum(nums) != total * d:
            raise AssertionError("solver vector does not sum to its optimum; solver bug")
        strategies.append(MixedStrategy.from_weights(nums, sum(nums)))
    row_strategy, col_strategy = strategies
    if best_response_gap(rows, row_strategy, col_strategy) != (0, 0):
        raise AssertionError("solver strategies are not an equilibrium; solver bug")
    return GameSolution(scale / total + offset, row_strategy, col_strategy)


def best_response_gap(matrix, row: MixedStrategy, col: MixedStrategy):
    """(row regret, column regret): gain available to each player by the best
    pure deviation.  Both are zero exactly when (row, col) is an equilibrium.
    They are computed in integers on the matrix's rows over its common
    denominator D, which leave every regret D times its own, and the two
    strategies' weights brought over one denominator."""
    rows, den, *_ = _integer_rows(matrix)
    if len(row) != len(rows) or len(col) != len(rows[0]):
        raise ValueError("strategy dimensions do not match the matrix")
    common = lcm(row.denominator, col.denominator)
    col_support = [(k, q * (common // col.denominator)) for k, q in enumerate(col.weights) if q]
    row_support = [(p * (common // row.denominator), r) for p, r in zip(row.weights, rows) if p]
    row_payoffs = [sum(r[k] * q for k, q in col_support) for r in rows]  # M.col
    col_payoffs = [sum(p * r[k] for p, r in row_support) for k in range(len(col))]  # row.M
    gap = gap_from_payoffs(row, row_payoffs, col_payoffs)
    return tuple(regret / (den * common) for regret in gap)


def max_optimal_mass(matrix, value: Fraction, index: int) -> Fraction:
    """Largest probability any optimal row strategy can place on one action.

    Maximizes x[index] over the full polytope of optimal row strategies (those
    guaranteeing ``value``, the game's value, against every column).  A zero
    answer certifies that no equilibrium uses the action at all.  ``index``
    must be exactly an int row index (a bool or a float is a ValueError).

    With K the matrix's integer image (``_integer_rows``), v' = p/q the
    value in K's units and T = 1/v', the scaled optimal strategies are the
    y >= 0 with K^T y >= 1 and sum(y) <= T.  The LP dual of  max y[index]
    over them forces its multiplier t >= 1 on sum(y) <= T; with t = 1 + t'
    it is the slack-feasible program

        z = max sum(w) - T t'   s.t.   K w - t' <= 1 - e_index,   w, t' >= 0,

    and the answer is v' (T - z) = 1 - v' z.  It is solved in integers with
    the objective scaled by p > 0, whose optimum is p z.
    """
    _, _, image, scale, offset = _integer_rows(matrix)
    if type(index) is not int or not 0 <= index < len(image):
        raise ValueError(f"row index must be an int in 0..{len(image) - 1}, got {index!r}")
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError("value must be int or Fraction")
    value_image = (value - offset) / scale
    if value_image < 1:
        raise ValueError("value is below every entry of the matrix")
    from .simplex import solve_lp
    p, q = value_image.numerator, value_image.denominator
    pz = solve_lp(
        c=[p] * len(image[0]) + [-q],
        rows=[row + [-1] for row in image],
        rhs=[0 if h == index else 1 for h in range(len(image))],
    )[1]
    return ONE - pz / q
