"""Exact primal simplex with Bland's rule, pivoted on a condensed integer tableau.

Solves   max  c . x   subject to  A x <= b,  x >= 0,  with  b >= 0,
and returns the dual multipliers with the primal optimum, all as the integer
numerators the tableau holds over its final divisor.  Since b >= 0 the
slack basis is feasible, so the simplex starts there with no phase 1.
Every coefficient is an int: a caller with rationals scales them first.
Scaling a row with its b, or c, by a positive integer changes no sign and no
ratio the pivot rule reads, so it changes no pivot and no x.  The tableau is
condensed (Edmonds 1967; Avis, lrs, 2000): one row per basic variable, one
column per nonbasic one, labelled with its variable, and the right-hand side.
Pivots are fraction-free (Bareiss, Math. Comp. 22, 1968): every entry is a
minor of the starting matrix over one common divisor d > 0, so each division
by d is exact.  Bland's rule (the smallest label with a negative reduced
cost) and the (ratio, basis index) tie-break make the rational simplex's
choices, so its pivots, vertex and duals are reached exactly.
"""

from __future__ import annotations

from itertools import chain


class UnboundedError(ArithmeticError):
    pass


def solve_lp(c, rows, rhs):
    """Maximize c . x over A x <= b, x >= 0; return (x, z, duals, d) exactly.

    c: int objective coefficients (length nvars)
    rows/rhs: the int constraint rows of A and their right-hand sides b >= 0
    duals: one multiplier y_i >= 0 per row, read from the final reduced costs
    of the slack columns.  They are dual-feasible (A^T y >= c) and b . y equals
    the optimal value.  Each of x, the optimum z and duals is an int
    numerator over the one divisor d > 0: the vertex is x / d, the optimal
    value z / d.
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

    # tableau / d is the rational tableau on the nonbasic columns (x_j is
    # labelled j, slack i nvars + i); its last row holds their reduced costs
    # of min -c . x, and last the value of c . x.  Slack i starts basic in row i.
    tableau = [[*row, b] for row, b in zip(rows, rhs)] + [[-v for v in c] + [0]]
    labels = list(range(nvars))
    basis = list(range(nvars, nvars + m))
    d = 1

    while True:
        zrow = tableau[m]
        entering = [(label, j) for j, label in enumerate(labels) if zrow[j] < 0]
        if not entering:
            break
        enter = min(entering)[1]
        leave = -1
        for r, row in enumerate(tableau[:m]):
            a = row[enter]
            if a > 0:
                # ratio row[-1] / a against the best so far, by cross-multiplying
                if leave < 0 or (row[-1] * best_a, basis[r]) < (best_b * a, basis[leave]):
                    leave, best_b, best_a = r, row[-1], a
        if leave < 0:
            raise UnboundedError("objective unbounded")
        # The pivot row stays with d for p; the rest of its column is negated.
        prow = tableau[leave]
        p = prow[enter]
        for r, row in enumerate(tableau):
            if r != leave:
                f = row[enter]
                row = tableau[r] = [(v * p - f * pv) // d for v, pv in zip(row, prow)]
                row[enter] = -f
        prow[enter] = d
        d = p
        labels[enter], basis[leave] = basis[leave], labels[enter]

    # A variable is 0 unless basic, and its reduced cost 0 unless nonbasic.
    # Slack i costs 0, so its reduced cost is the dual of row i.
    solution = dict(zip(basis, (row[-1] for row in tableau)))
    costs = dict(zip(labels, zrow))
    x = [solution.get(j, 0) for j in range(nvars)]
    duals = [costs.get(nvars + i, 0) for i in range(m)]
    return x, zrow[-1], duals, d
