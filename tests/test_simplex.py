"""The exact LP core: boundedness, degeneracy, duals, input checks."""

from fractions import Fraction as F

import pytest

from hsnet.simplex import UnboundedError
from hsnet.simplex import solve_lp as _solve_lp


def solve_lp(c, rows, rhs):
    """solve_lp, with its duals checked by plain arithmetic; returns (x, v).

    Dual feasibility: A^T y >= c and y >= 0; strong duality: b . y == v.
    """
    x, v, y = _solve_lp(c, rows, rhs)
    assert len(y) == len(rows)
    assert all(yi >= 0 for yi in y)
    assert sum(F(b) * yi for b, yi in zip(rhs, y)) == v
    for j, cj in enumerate(c):
        assert sum(F(row[j]) * yi for row, yi in zip(rows, y)) >= cj
    assert sum(F(cj) * xj for cj, xj in zip(c, x)) == v
    return x, v


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
        _solve_lp([1, 1], [[1, 0], [0, 1]], [1, F(-1, 3)])


def test_beale_degenerate_cycle_terminates():
    # Classic cycling instance for naive pivoting, stated as a maximization;
    # Bland's rule must finish.
    c = [F(3, 4), -150, F(1, 50), -6]
    rows = [
        [F(1, 4), -60, F(-1, 25), 9],
        [F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    x, v = solve_lp(c, rows, [0, 0, 1])
    assert v == F(1, 20)
