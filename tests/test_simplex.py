"""The exact LP core: boundedness, degeneracy, duals, input checks, and a
differential test of the integer kernel against a rational reference."""

import random
from fractions import Fraction as F

import pytest

import hsnet.simplex
from hsnet.matrix_game import max_optimal_mass, solve_zero_sum
from hsnet.payoff import UtilitySpec
from hsnet.rationals import over_common_denominator
from hsnet.simplex import UnboundedError
from hsnet.simplex import solve_lp as _solve_lp

from conftest import enumerate_graphs, payoff_matrix

ZERO = F(0)
ONE = F(1)


def reference_lp(c, rows, rhs):
    """The oracle: the same simplex pivoted in Fraction arithmetic.

    Bland's rule from the slack basis, the ratio test tie-broken by basis
    index; returns (x, value, duals) like ``solve_lp``.
    """
    nvars = len(c)
    m = len(rows)
    ncols = nvars + m
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        t = [F(v) for v in row] + [ZERO] * m + [F(b)]
        t[nvars + i] = ONE
        tableau.append(t)
    basis = list(range(nvars, ncols))
    zrow = [-F(v) for v in c] + [ZERO] * (m + 1)
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
    return x, zrow[-1], zrow[nvars:ncols]


def solve_lp(c, rows, rhs):
    """solve_lp, with its answer checked by plain integer arithmetic over its
    divisor d; returns (x, v), the vertex and the optimum as Fractions.

    Primal feasibility: x >= 0 and A x <= b d; dual feasibility: A^T y >= c d
    and y >= 0; strong duality: c . x == b . y == z, with v = z / d.
    """
    x, z, y, d = _solve_lp(c, rows, rhs)
    assert all(type(v) is int for v in [*x, z, *y, d]) and d > 0
    assert len(x) == len(c) and all(xj >= 0 for xj in x)
    for row, b in zip(rows, rhs):
        assert sum(a * xj for a, xj in zip(row, x)) <= b * d
    assert len(y) == len(rows)
    assert all(yi >= 0 for yi in y)
    assert sum(b * yi for b, yi in zip(rhs, y)) == z
    for j, cj in enumerate(c):
        assert sum(row[j] * yi for row, yi in zip(rows, y)) >= cj * d
    assert sum(cj * xj for cj, xj in zip(c, x)) == z
    return [F(xj, d) for xj in x], F(z, d)


def integer_lp(c, rows, rhs):
    """The program with each row and its right-hand side, and c, scaled to
    integers by its own lcm: ((c, rows, rhs), c's scale, the row scales)."""
    c, cscale = over_common_denominator(c)
    scaled = [over_common_denominator([*row, b]) for row, b in zip(rows, rhs)]
    program = (c, [row[:-1] for row, _ in scaled], [row[-1] for row, _ in scaled])
    return program, cscale, [k for _, k in scaled]


def same_as_reference(c, rows, rhs):
    """The kernel on the program scaled to integers gives the reference's
    (x, value, duals) on the program as given, once the scaling is undone,
    or both find the objective unbounded."""
    program, cscale, scales = integer_lp(c, rows, rhs)
    try:
        want = reference_lp(c, rows, rhs)
    except UnboundedError:
        with pytest.raises(UnboundedError):
            _solve_lp(*program)
        return False
    x, z, y, d = _solve_lp(*program)
    assert ([F(xj, d) for xj in x], F(z, d * cscale),
            [F(yi * k, d * cscale) for yi, k in zip(y, scales)]) == want
    solve_lp(*program)
    return True


def test_basic_max():
    # max x + y st x + 2y <= 4, 3x + y <= 6
    x, v = solve_lp([1, 1], [[1, 2], [3, 1]], [4, 6])
    assert v == F(14, 5)
    assert x == [F(8, 5), F(6, 5)]


def test_unbounded():
    with pytest.raises(UnboundedError):
        solve_lp([1, 1], [[1, -1]], [1])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        _solve_lp([1], [[1]], [-1])
    with pytest.raises(ValueError):
        _solve_lp([1, 1], [[1, 0], [0, 1]], [1, -3])


@pytest.mark.parametrize("bad", [F(1, 2), F(3), 0.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("where", ["c", "row", "rhs"])
def test_non_int_coefficients_rejected(where, bad):
    # Floor division on a non-int tableau would give a wrong answer silently.
    c, rows, rhs = [1, 1], [[1, 2], [3, 1]], [4, 6]
    if where == "c":
        c[1] = bad
    elif where == "row":
        rows[1][0] = bad
    else:
        rhs[0] = bad
    with pytest.raises(ValueError, match="int coefficients"):
        _solve_lp(c, rows, rhs)


BEALE = (
    [F(3, 4), -150, F(1, 50), -6],
    [
        [F(1, 4), -60, F(-1, 25), 9],
        [F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0],
    ],
    [0, 0, 1],
)


def test_beale_degenerate_cycle_terminates():
    # Classic cycling instance for naive pivoting, stated as a maximization;
    # Bland's rule must finish.
    program, cscale, _ = integer_lp(*BEALE)
    x, v = solve_lp(*program)
    assert v == F(1, 20) * cscale
    assert same_as_reference(*BEALE)


def random_lp(rng):
    """A small LP with rational entries, many zeros and ratio ties."""
    nvars, m = rng.randint(1, 6), rng.randint(1, 6)
    entries = [0, 0, 1, 1, 2, -1, -2, 3, F(1, 2), F(-1, 3), F(2, 3), F(5, 7)]
    rows = [[rng.choice(entries) for _ in range(nvars)] for _ in range(m)]
    rhs = [rng.choice([0, 0, 1, 1, 2, F(1, 2), F(3, 5)]) for _ in range(m)]
    c = [rng.choice(entries) for _ in range(nvars)]
    return c, rows, rhs


def test_random_lps_match_reference():
    rng = random.Random(20260518)
    bounded = sum(same_as_reference(*random_lp(rng)) for _ in range(300))
    assert 150 < bounded < 300  # both outcomes are exercised


@pytest.mark.parametrize("u", [
    UtilitySpec.linear(1, F(1, 2)),
    UtilitySpec.power(2, 2),
    UtilitySpec.power(F(3, 2), 1),  # float-backed: power-of-two denominators
    UtilitySpec.ratio_power(2, 1),
], ids=["linear", "square", "power_3/2", "ratio_power_2"])
def test_game_lps_match_reference(monkeypatch, u):
    # Every LP the game kernel poses for graphs with n <= 6: the column LP,
    # and the optimal-mass probe (negative cost, zero rhs) for every node.
    lps = []

    def recording(c, rows, rhs):
        lps.append((c, rows, rhs))
        return _solve_lp(c, rows, rhs)

    monkeypatch.setattr(hsnet.simplex, "solve_lp", recording)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            matrix = payoff_matrix(g, u)
            value = solve_zero_sum(matrix).value
            for h in range(n):
                max_optimal_mass(matrix, value, [h])
    assert len(lps) == sum(len(enumerate_graphs(n)) * (n + 1) for n in range(1, 7))
    for lp in lps:
        assert same_as_reference(*lp)
