"""The exact LP core: feasibility, boundedness, degeneracy, duals."""

from fractions import Fraction as F

import pytest

from hsnet.simplex import InfeasibleError, UnboundedError
from hsnet.simplex import solve_lp as _solve_lp


def solve_lp(c, rows, senses, rhs, maximize=False):
    """solve_lp, with its duals checked by plain arithmetic; returns (x, v).

    Dual feasibility: A^T y >= c when maximizing (A^T y <= c when
    minimizing), y >= 0 on '<=' rows and y <= 0 on '>=' rows when maximizing
    (the signs swap when minimizing); and strong duality: b . y == v.
    """
    x, v, y = _solve_lp(c, rows, senses, rhs, maximize=maximize)
    assert len(y) == len(rows)
    assert sum(F(b) * yi for b, yi in zip(rhs, y)) == v
    for j, cj in enumerate(c):
        aty = sum(F(row[j]) * yi for row, yi in zip(rows, y))
        assert aty >= cj if maximize else aty <= cj
    for sense, yi in zip(senses, y):
        if sense != "==":
            assert yi >= 0 if (sense == "<=") == maximize else yi <= 0
    return x, v


def test_basic_max():
    # max x + y st x + 2y <= 4, 3x + y <= 6
    x, v = solve_lp([1, 1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6], maximize=True)
    assert v == F(14, 5)
    assert x == [F(8, 5), F(6, 5)]


def test_equality_and_geq():
    x, v = solve_lp([1, 0], [[1, 1], [1, 0]], ["==", ">="], [1, F(1, 4)], maximize=True)
    assert v == 1 and x == [1, 0]
    x, v = solve_lp([2, 3], [[1, 1]], [">="], [2], maximize=False)
    assert v == 4 and x == [2, 0]


def test_negative_rhs_normalization():
    # x <= -1 is infeasible for x >= 0 once normalized
    with pytest.raises(InfeasibleError):
        solve_lp([1], [[1]], ["<="], [-1], maximize=False)
    # -x <= -1 means x >= 1
    x, v = solve_lp([1], [[-1]], ["<="], [-1], maximize=False)
    assert v == 1
    # a flipped '>=' row next to an unflipped '==' row
    x, v = solve_lp([1, 2], [[-1, -1], [1, -1]], [">=", "=="], [-3, F(1, 2)], maximize=True)
    assert v == F(17, 4) and x == [F(7, 4), F(5, 4)]
    x, v = solve_lp([1, 1], [[-2, 1], [1, 1]], ["==", ">="], [-1, 2], maximize=False)
    assert v == 2


def test_unbounded():
    with pytest.raises(UnboundedError):
        solve_lp([1], [[1]], [">="], [1], maximize=True)


def test_infeasible_system():
    with pytest.raises(InfeasibleError):
        solve_lp([1, 1], [[1, 1], [1, 1]], ["<=", ">="], [1, 3], maximize=False)


def test_beale_degenerate_cycle_terminates():
    # Classic cycling instance for naive pivoting; Bland's rule must finish.
    c = [F(-3, 4), 150, F(-1, 50), 6]
    rows = [
        [F(1, 4), -60, F(-1, 25), 9],
        [F(1, 2), -90, F(-1, 50), 3],
        [0, 0, 1, 0],
    ]
    x, v = solve_lp(c, rows, ["<="] * 3, [0, 0, 1], maximize=False)
    assert v == F(-1, 20)


def test_redundant_equalities():
    # duplicated equality rows leave an artificial basic at zero; harmless
    x, v = solve_lp(
        [1, 1],
        [[1, 1], [1, 1], [1, 0]],
        ["==", "==", "<="],
        [2, 2, 2],
        maximize=False,
    )
    assert v == 2
