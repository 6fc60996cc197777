"""Exact primal simplex over rationals with Bland's rule.

Solves   max  c . x   subject to  A x <= b,  x >= 0,  with  b >= 0,
entirely in Fraction arithmetic, and returns the dual multipliers with the
primal optimum.  Since b >= 0 the slack basis is feasible, so the simplex
starts there with no phase 1.  Bland's smallest-index pivoting rule makes
cycling impossible, so termination needs no epsilon tuning; the price is a few
extra pivots, irrelevant at the matrix sizes this package works with.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class UnboundedError(ArithmeticError):
    pass


def solve_lp(c, rows, rhs):
    """Maximize c . x over A x <= b, x >= 0; return (x, value, duals) exactly.

    c: objective coefficients (length nvars)
    rows/rhs: the constraint rows of A and their right-hand sides b >= 0
    duals: one multiplier y_i >= 0 per row, read from the final reduced costs
    of the slack columns.  They are dual-feasible (A^T y >= c) and b . y equals
    the optimal value.
    Raises ValueError on a negative right-hand side, UnboundedError when the
    objective has no maximum.
    """
    nvars = len(c)
    m = len(rows)
    if m != len(rhs):
        raise ValueError("constraint arrays must have equal length")

    # Column layout: structural | slack; slack i starts basic in row i.
    ncols = nvars + m
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if len(row) != nvars:
            raise ValueError("constraint row length mismatch")
        b = Fraction(b)
        if b < 0:
            raise ValueError("right-hand sides must be nonnegative")
        t = [Fraction(v) for v in row] + [ZERO] * m + [b]
        t[nvars + i] = ONE
        tableau.append(t)
    basis = list(range(nvars, ncols))
    # Reduced costs of the minimized program  min -c . x;  the last entry is
    # minus its objective value.
    zrow = [-Fraction(v) for v in c] + [ZERO] * (m + 1)

    while True:
        enter = next((j for j in range(ncols) if zrow[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                key = (tableau[r][-1] / a, basis[r])
                if best is None or key < best:
                    best = key
                    leave = r
        if leave < 0:
            raise UnboundedError("objective unbounded")
        inv = ONE / tableau[leave][enter]
        prow = tableau[leave] = [v * inv for v in tableau[leave]]
        for r, row in enumerate(tableau):
            factor = row[enter]
            if factor and r != leave:
                tableau[r] = [v - factor * pv for v, pv in zip(row, prow)]
        factor = zrow[enter]
        zrow = [v - factor * pv for v, pv in zip(zrow, prow)]
        basis[leave] = enter

    x = [ZERO] * nvars
    for r, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = tableau[r][-1]
    # Slack i costs 0, so its reduced cost is the dual of row i.
    return x, zrow[-1], zrow[nvars:ncols]
