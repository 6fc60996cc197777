"""Exact primal simplex with Bland's rule, pivoted on an integer tableau.

Solves   max  c . x   subject to  A x <= b,  x >= 0,  with  b >= 0,
and returns the dual multipliers with the primal optimum.  Since b >= 0 the
slack basis is feasible, so the simplex starts there with no phase 1.
Every coefficient is an int: a caller with rationals scales them first.
Scaling a row with its b, or c, by a positive integer changes no sign and no
ratio the pivot rule reads, so it changes no pivot and no x.  Pivots are
fraction-free (Edmonds 1967; Bareiss, Math. Comp. 22, 1968): every entry is
a minor of the starting matrix over one common divisor d > 0, each division
by d is exact, and Fractions are built only for the answer.  Bland's
smallest-index rule and the (ratio, basis index) tie-break make the rational
simplex's choices, so its pivots, vertex and duals are reached exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain


class UnboundedError(ArithmeticError):
    pass


def solve_lp(c, rows, rhs):
    """Maximize c . x over A x <= b, x >= 0; return (x, value, duals) exactly.

    c: int objective coefficients (length nvars)
    rows/rhs: the int constraint rows of A and their right-hand sides b >= 0
    duals: one multiplier y_i >= 0 per row, read from the final reduced costs
    of the slack columns.  They are dual-feasible (A^T y >= c) and b . y equals
    the optimal value.  x, value and duals are Fractions.
    Raises ValueError on mismatched lengths, a coefficient that is not an int
    or a negative right-hand side, UnboundedError when the objective has no
    maximum.
    """
    nvars = len(c)
    m = len(rows)
    if m != len(rhs) or any(len(row) != nvars for row in rows):
        raise ValueError("constraint rows and right-hand sides do not match in length")
    if any(type(v) is not int for v in chain(c, rhs, *rows)):
        raise ValueError("solve_lp takes int coefficients only")
    if any(b < 0 for b in rhs):
        raise ValueError("right-hand sides must be nonnegative")

    # Column layout: structural | slack | rhs; slack i starts basic in row i.
    # tableau / d is the rational tableau, and zrow / d holds its reduced
    # costs of min -c . x, and last the value of c . x.
    ncols = nvars + m
    tableau = [
        [*row, *[0] * i, 1, *[0] * (m - 1 - i), b]
        for i, (row, b) in enumerate(zip(rows, rhs))
    ]
    basis = list(range(nvars, ncols))
    zrow = [-v for v in c] + [0] * (m + 1)
    d = 1

    while True:
        enter = next((j for j in range(ncols) if zrow[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for r, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                # ratio row[-1] / a against the best so far, by cross-multiplying
                if leave < 0 or (row[-1] * best_a, basis[r]) < (best_b * a, basis[leave]):
                    leave, best_b, best_a = r, row[-1], a
        if leave < 0:
            raise UnboundedError("objective unbounded")
        prow = tableau[leave]
        p = prow[enter]
        for r, row in enumerate(tableau):
            if r != leave:
                f = row[enter]
                tableau[r] = [(v * p - f * pv) // d for v, pv in zip(row, prow)]
        f = zrow[enter]
        zrow = [(v * p - f * pv) // d for v, pv in zip(zrow, prow)]
        d = p
        basis[leave] = enter

    x = [Fraction(0)] * nvars
    for r, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = Fraction(tableau[r][-1], d)
    # Slack i costs 0, so its reduced cost is the dual of row i.
    duals = [Fraction(v, d) for v in zrow[nvars:ncols]]
    return x, Fraction(zrow[-1], d), duals
