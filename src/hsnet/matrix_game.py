"""Exact solver for two-player zero-sum matrix games.

The row player maximizes, the column player minimizes.  One LP per game: the
matrix is checked and read once into integers over its common denominator D
and shifted so every entry is at least D, and the exact simplex solves the
column player's program  max sum(w), M w <= 1, w >= 0  on the shifted matrix,
posed over D in integers.  Its optimum is one over the shifted game's value,
and the row player's strategy is read off its dual multipliers.  The
optimal-mass probe is posed by LP duality as a program of the same
slack-feasible form, so every LP here starts from the slack basis.  The
strategies are certified by a zero best-response gap, computed in exact
arithmetic on the integer matrix the LP solved, apart from the solver.

A matrix held as integers over a denominator D (``payoff.integer_payoffs``)
is passed as its integers alone.  Scaling a game by D > 0 scales its value by
D and keeps its optimal strategies, and Bland's rule makes the same pivots on
any positive scale-and-shift of a matrix (the tests pin it on every graph
game with n <= 7), so the solver reaches the same strategies as on the
Fractions; the caller divides the value by D and probes masses at D times it.

Optimal strategies are generally not unique; callers should compare values
and regrets, never strategy vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .rationals import format_rational, over_common_denominator
from .records import Record
from .simplex import solve_lp

ONE = Fraction(1)


class MixedStrategy:
    """Probability vector over actions; exact, validated at construction."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        probs = tuple(probs)
        # One read over the common denominator D: numerators >= 0 summing to D.
        try:
            nums, den = over_common_denominator(probs)
        except ValueError:
            raise ValueError("strategy probabilities must be int or Fraction") from None
        if min(nums, default=0) < 0:
            raise ValueError("strategy probabilities must be nonnegative")
        if sum(nums) != den:
            raise ValueError("strategy probabilities must sum to exactly 1")
        self.probs = tuple(p if type(p) is Fraction else Fraction(p) for p in probs)

    @staticmethod
    def uniform(n: int) -> "MixedStrategy":
        return MixedStrategy([Fraction(1, n)] * n)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)

    def to_pq(self) -> list[str]:
        return [format_rational(p) for p in self.probs]

    def __len__(self):
        return len(self.probs)

    def __getitem__(self, i):
        return self.probs[i]

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other):
        return isinstance(other, MixedStrategy) and self.probs == other.probs

    def __hash__(self):
        return hash(self.probs)

    def __repr__(self):
        return f"MixedStrategy({[str(p) for p in self.probs]})"


class GameSolution(Record):
    """Value plus one optimal strategy per player (row = maximizer)."""

    __slots__ = _fields = ("value", "row_strategy", "col_strategy")


def _integer_rows(matrix):
    """(shifted, D, shift): the matrix, checked to be nonempty, rectangular
    and exact, as rows of integers over its common denominator D, each raised
    by the same integer S so every entry is at least D; the shift added to
    the matrix is S / D.  An int matrix is read in one pass, with D = 1."""
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
    lo = min(map(min, rows))
    s = den - lo if lo < den else 0
    return [[v + s for v in r] for r in rows], den, Fraction(s, den)


def _column_lp(matrix):
    """Read the matrix by ``_integer_rows`` and solve the column player's
    program on the shifted rows, every row and its right-hand side 1 scaled
    by D.

    Returns (shifted, w, total, duals, shift): max sum(w) = total =
    1/(value + shift), and the duals of the unscaled rows, which sum to total.
    """
    shifted, den, shift = _integer_rows(matrix)
    w, total, duals = solve_lp(c=[1] * len(shifted[0]), rows=shifted, rhs=[den] * len(shifted))
    return shifted, w, total, [y * den for y in duals], shift


def game_value(matrix) -> Fraction:
    """Value of the game for the row player (no strategies computed)."""
    shifted, w, total, duals, shift = _column_lp(matrix)
    return ONE / total - shift


def solve_zero_sum(matrix) -> GameSolution:
    """Exact minimax value and one optimal strategy per player.

    Both strategies come from one LP: the column player's from its primal
    solution, the row player's from its duals.  A nonzero best-response gap
    on the LP's own integer matrix would mean a solver bug, so it is asserted.
    """
    shifted, w, total, duals, shift = _column_lp(matrix)
    row_strategy = MixedStrategy([y / total for y in duals])
    col_strategy = MixedStrategy([wk / total for wk in w])
    if best_response_gap(shifted, row_strategy, col_strategy) != (0, 0):
        raise AssertionError("solver strategies are not an equilibrium; solver bug")
    return GameSolution(ONE / total - shift, row_strategy, col_strategy)


def best_response_gap(matrix, row: MixedStrategy, col: MixedStrategy):
    """(row regret, column regret): gain available to each player by the best
    pure deviation.  Both are zero exactly when (row, col) is an equilibrium.
    They are computed on the matrix's shifted integer rows, which leave every
    regret D times its own."""
    rows, den, _ = _integer_rows(matrix)
    if len(row) != len(rows) or len(col) != len(rows[0]):
        raise ValueError("strategy dimensions do not match the matrix")
    col_support = [(k, q) for k, q in enumerate(col) if q]
    row_support = [(p, r) for p, r in zip(row, rows) if p]
    row_payoffs = [sum(r[k] * q for k, q in col_support) for r in rows]  # M.col
    col_payoffs = [sum(p * r[k] for p, r in row_support) for k in range(len(col))]  # row.M
    return tuple(regret / den for regret in gap_from_payoffs(row, row_payoffs, col_payoffs))


def gap_from_payoffs(row: MixedStrategy, row_payoffs, col_payoffs):
    """(row regret, column regret) from M.col and row.M, however computed, in
    the payoffs' own unit (integers over D give regrets over D).  The row
    strategy is read in integers, so only the two regrets are Fractions."""
    rho, den = over_common_denominator(row)
    current = sum(p * v for p, v in zip(rho, row_payoffs) if p)  # den row.M.col
    row_regret = max(row_payoffs) * den - current
    return Fraction(row_regret, den), Fraction(current - min(col_payoffs) * den, den)


def max_optimal_mass(matrix, value: Fraction, index: int) -> Fraction:
    """Largest probability any optimal row strategy can place on one action.

    Maximizes x[index] over the full polytope of optimal row strategies (those
    guaranteeing ``value``, the game's value, against every column).  A zero
    answer certifies that no equilibrium uses the action at all.  ``index``
    must be exactly an int row index (a bool or a float is a ValueError).

    With M' the shifted matrix, v' = p/q the shifted value and T = 1/v', the
    scaled optimal strategies are the y >= 0 with M'^T y >= 1 and sum(y) <= T.
    The LP dual of  max y[index]  over them forces its multiplier t >= 1 on
    sum(y) <= T; with t = 1 + t' it is the slack-feasible program

        z = max sum(w) - T t'   s.t.   M' w - t' <= 1 - e_index,   w, t' >= 0,

    and the answer is v' (T - z) = 1 - v' z.  It is solved in integers with
    the rows scaled by D and the objective by p > 0, whose optimum is p z.
    """
    shifted, den, shift = _integer_rows(matrix)
    if type(index) is not int or not 0 <= index < len(shifted):
        raise ValueError(f"row index must be an int in 0..{len(shifted) - 1}, got {index!r}")
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError("value must be int or Fraction")
    value_shifted = Fraction(value) + shift
    if value_shifted <= 0:
        raise ValueError("value is below every entry of the matrix")
    p, q = value_shifted.numerator, value_shifted.denominator
    pz = solve_lp(
        c=[p] * len(shifted[0]) + [-q],
        rows=[row + [-den] for row in shifted],
        rhs=[0 if h == index else den for h in range(len(shifted))],
    )[1]
    return ONE - pz / q
