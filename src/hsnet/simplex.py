"""Exact two-phase primal simplex over rationals with Bland's rule.

Solves   min / max  c . x   subject to  A x (<=|==|>=) b,  x >= 0,
entirely in Fraction arithmetic, and returns the dual multipliers with the
primal optimum.  Bland's smallest-index pivoting rule makes cycling
impossible, so termination needs no epsilon tuning; the price is a few extra
pivots, irrelevant at the matrix sizes this package works with.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class InfeasibleError(ArithmeticError):
    pass


class UnboundedError(ArithmeticError):
    pass


def solve_lp(c, rows, senses, rhs, maximize=False):
    """Solve the LP and return (x, objective_value, duals) as exact rationals.

    c: objective coefficients (length nvars)
    rows/senses/rhs: constraints, senses drawn from '<=', '==', '>='
    duals: one multiplier y_i per constraint, read from the final reduced
    costs.  They are dual-feasible (A^T y <= c with y_i <= 0 on '<=' rows and
    y_i >= 0 on '>=' rows when minimizing; A^T y >= c with the signs swapped
    when maximizing) and b . y equals the objective value.
    Raises InfeasibleError or UnboundedError accordingly.
    """
    nvars = len(c)
    m = len(rows)
    if not (m == len(senses) == len(rhs)):
        raise ValueError("constraint arrays must have equal length")
    c = [Fraction(v) for v in c]
    if maximize:
        c = [-v for v in c]

    # Normalize to b >= 0 so the artificial/slack start is feasible.
    norm_rows, norm_senses, norm_rhs, flipped = [], [], [], []
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    for row, sense, b in zip(rows, senses, rhs):
        row = [Fraction(v) for v in row]
        b = Fraction(b)
        if len(row) != nvars:
            raise ValueError("constraint row length mismatch")
        if sense not in flip:
            raise ValueError(f"unknown sense {sense!r}")
        flipped.append(b < 0)
        if b < 0:
            row = [-v for v in row]
            b = -b
            sense = flip[sense]
        norm_rows.append(row)
        norm_senses.append(sense)
        norm_rhs.append(b)

    # Column layout: structural | slack/surplus | artificial.  Every row has a
    # unit column, +1 (slack or artificial), whose reduced cost gives its dual.
    slack_of = {}
    art_of = {}
    ncols = nvars
    for i, sense in enumerate(norm_senses):
        if sense in ("<=", ">="):
            slack_of[i] = ncols
            ncols += 1
    nreal = ncols
    for i, sense in enumerate(norm_senses):
        if sense in (">=", "=="):
            art_of[i] = ncols
            ncols += 1
    unit_of = {**slack_of, **art_of}

    tableau = []
    basis = []
    for i, (row, sense, b) in enumerate(zip(norm_rows, norm_senses, norm_rhs)):
        t = row + [ZERO] * (ncols - nvars) + [b]
        if sense == "<=":
            t[slack_of[i]] = ONE
            basis.append(slack_of[i])
        elif sense == ">=":
            t[slack_of[i]] = -ONE
            t[art_of[i]] = ONE
            basis.append(art_of[i])
        else:
            t[art_of[i]] = ONE
            basis.append(art_of[i])
        tableau.append(t)

    def pivot(prow, pcol, zrow):
        inv = ONE / tableau[prow][pcol]
        prow_vals = tableau[prow] = [v * inv for v in tableau[prow]]
        for r, row in enumerate(tableau):
            factor = row[pcol]
            if factor and r != prow:
                tableau[r] = [v - factor * pv for v, pv in zip(row, prow_vals)]
        factor = zrow[pcol]
        if factor:
            zrow[:] = [v - factor * pv for v, pv in zip(zrow, prow_vals)]
        basis[prow] = pcol

    def run(cost, allowed):
        # Minimize cost . x over the current basis, entering only columns
        # below ``allowed``.  Returns the final reduced-cost row, whose last
        # entry is minus the objective value.
        zrow = list(cost) + [ZERO]
        for r, bv in enumerate(basis):
            cb = cost[bv]
            if cb:
                zrow = [z - cb * v for z, v in zip(zrow, tableau[r])]
        while True:
            enter = next((j for j in range(allowed) if zrow[j] < 0), -1)
            if enter < 0:
                return zrow
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
            pivot(leave, enter, zrow)

    if art_of:
        zrow = run([ZERO] * nreal + [ONE] * (ncols - nreal), ncols)
        if zrow[-1] != 0:
            raise InfeasibleError("no feasible point")
        # Drive leftover artificials out of the basis where possible.
        for r in range(m):
            if basis[r] >= nreal:
                pcol = next((j for j in range(nreal) if tableau[r][j] != 0), None)
                if pcol is not None:
                    pivot(r, pcol, zrow)

    zrow = run(c + [ZERO] * (ncols - nvars), nreal)
    x = [ZERO] * nvars
    for r, bv in enumerate(basis):
        if bv < nvars:
            x[bv] = tableau[r][-1]
    # Row i's unit column costs 0, so its reduced cost is minus the dual of
    # the minimized program; maximizing and flipping a row each negate it.
    duals = []
    for i in range(m):
        y = zrow[unit_of[i]] if maximize else -zrow[unit_of[i]]
        duals.append(-y if flipped[i] else y)
    return x, (zrow[-1] if maximize else -zrow[-1]), duals
