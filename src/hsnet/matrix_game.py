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
arithmetic on the integer matrix the LP solved, apart from the solver.  Only
the functions that run an LP import the simplex, so certifying strategies
alone (``gap_from_payoffs``, as ``hsnet design`` does) loads no LP code.

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
from math import gcd, lcm

from .rationals import format_rational, over_common_denominator
from .records import Record

ONE = Fraction(1)


class MixedStrategy(Record):
    """Probability vector over actions, held exactly as integer weights over
    one denominator, reduced so that equal vectors hold equal weights, and
    validated at construction: weights >= 0 summing to the denominator.  A
    Fraction is built only when a probability is read."""

    __slots__ = _fields = ("weights", "denominator")

    def __init__(self, probs):
        try:
            weights, den = over_common_denominator(probs)
        except ValueError:
            raise ValueError("strategy probabilities must be int or Fraction") from None
        self._hold(weights, den)

    @classmethod
    def from_weights(cls, weights, den: int) -> "MixedStrategy":
        """Action i with probability weights[i] / den (ints, den > 0)."""
        strategy = cls.__new__(cls)
        strategy._hold(weights, den)
        return strategy

    def _hold(self, weights, den):
        weights = tuple(weights)
        if min(weights, default=0) < 0:
            raise ValueError("strategy probabilities must be nonnegative")
        total = sum(weights)
        if type(total) is not int or type(den) is not int or total != den or den < 1:
            raise ValueError("strategy probabilities must sum to exactly 1")
        g = gcd(den, *weights)
        Record.__init__(self, tuple(w // g for w in weights) if g > 1 else weights, den // g)

    @staticmethod
    def uniform(n: int) -> "MixedStrategy":
        return MixedStrategy.from_weights([1] * n, n)

    @property
    def probs(self) -> tuple:
        view = {w: Fraction(w, self.denominator) for w in set(self.weights)}
        return tuple(map(view.__getitem__, self.weights))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w)

    def to_pq(self) -> list[str]:
        """The probabilities as "p/q" strings, each distinct weight formatted once."""
        text = {w: format_rational(Fraction(w, self.denominator)) for w in set(self.weights)}
        return list(map(text.__getitem__, self.weights))

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return Fraction(self.weights[i], self.denominator)

    def __iter__(self):
        return iter(self.probs)

    def __reduce__(self):
        return MixedStrategy.from_weights, self._values()


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
    from .simplex import solve_lp
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
    strategies = []
    for vector in (duals, w):  # each sums to total, as weights over their sum
        nums, d = over_common_denominator(vector)
        if sum(nums) != total * d:
            raise AssertionError("solver vector does not sum to its optimum; solver bug")
        strategies.append(MixedStrategy.from_weights(nums, sum(nums)))
    row_strategy, col_strategy = strategies
    if best_response_gap(shifted, row_strategy, col_strategy) != (0, 0):
        raise AssertionError("solver strategies are not an equilibrium; solver bug")
    return GameSolution(ONE / total - shift, row_strategy, col_strategy)


def best_response_gap(matrix, row: MixedStrategy, col: MixedStrategy):
    """(row regret, column regret): gain available to each player by the best
    pure deviation.  Both are zero exactly when (row, col) is an equilibrium.
    They are computed in integers on the matrix's shifted rows, which leave
    every regret D times its own, and the two strategies' weights brought
    over one denominator."""
    rows, den, _ = _integer_rows(matrix)
    if len(row) != len(rows) or len(col) != len(rows[0]):
        raise ValueError("strategy dimensions do not match the matrix")
    common = lcm(row.denominator, col.denominator)
    col_support = [(k, q * (common // col.denominator)) for k, q in enumerate(col.weights) if q]
    row_support = [(p * (common // row.denominator), r) for p, r in zip(row.weights, rows) if p]
    row_payoffs = [sum(r[k] * q for k, q in col_support) for r in rows]  # M.col
    col_payoffs = [sum(p * r[k] for p, r in row_support) for k in range(len(col))]  # row.M
    gap = gap_from_payoffs(row, row_payoffs, col_payoffs)
    return tuple(regret / (den * common) for regret in gap)


def gap_from_payoffs(row: MixedStrategy, row_payoffs, col_payoffs):
    """(row regret, column regret) from M.col and row.M, however computed, in
    the payoffs' own unit (integers over D give regrets over D).  The row
    strategy's weights are read as they are held, so only the two regrets
    are Fractions."""
    rho, den = row.weights, row.denominator
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
    from .simplex import solve_lp
    p, q = value_shifted.numerator, value_shifted.denominator
    pz = solve_lp(
        c=[p] * len(shifted[0]) + [-q],
        rows=[row + [-den] for row in shifted],
        rhs=[0 if h == index else den for h in range(len(shifted))],
    )[1]
    return ONE - pz / q
