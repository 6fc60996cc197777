"""Zero-sum solving: values, strategies, duality, regret certificates."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

import hsnet.simplex
from hsnet.graphs import Graph
from hsnet.matrix_game import (
    _column_lp,
    _integer_rows,
    best_response_gap,
    game_value,
    integer_payoffs,
    max_optimal_mass,
    solve_zero_sum,
)
from hsnet.payoff import MixedStrategy, UtilitySpec
from hsnet.designer import build_cycle

from conftest import (
    enumerate_graphs,
    identity_u,
    payoff_matrix,
    ratio_u,
    square_u,
    strategy_payoff,
    uniform_over,
)


PENNIES = [[1, -1], [-1, 1]]


def test_matching_pennies():
    sol = solve_zero_sum(PENNIES)
    assert sol.value == 0
    assert sol.row_strategy == MixedStrategy.uniform(2)
    assert sol.col_strategy == MixedStrategy.uniform(2)
    assert best_response_gap(PENNIES, sol.row_strategy, sol.col_strategy) == (0, 0)


def test_one_by_one():
    assert solve_zero_sum([[F(-2)]]).value == -2
    assert game_value([[F(7, 3)]]) == F(7, 3)


def test_c4_value_zero():
    m = payoff_matrix(build_cycle(4), identity_u(1))
    sol = solve_zero_sum(m)
    assert sol.value == 0
    # cross-check the arithmetic the value decomposes into
    assert F(3, 4) * (-1) + F(1, 4) * 3 == 0


def test_pure_deviation_gap():
    gap = best_response_gap(PENNIES, MixedStrategy([1, 0]), MixedStrategy.uniform(2))
    assert gap == (0, 1)


def test_strategy_validation():
    with pytest.raises(ValueError):
        MixedStrategy([F(1, 2), F(1, 3)])
    with pytest.raises(ValueError):
        MixedStrategy([F(3, 2), F(-1, 2)])
    s = uniform_over([0, 2], 4)
    assert s.probs == (F(1, 2), 0, F(1, 2), 0)
    assert s.support() == (0, 2)


def test_strategy_holds_reduced_integer_weights():
    s = MixedStrategy([F(1, 4), F(1, 2), 0, F(1, 4)])
    assert (s.weights, s.denominator) == ((1, 2, 0, 1), 4)
    same = MixedStrategy.from_weights([2, 4, 0, 2], 8)
    assert same == s and hash(same) == hash(s) and same.weights == s.weights
    assert s[1] == F(1, 2) and list(s) == [F(1, 4), F(1, 2), 0, F(1, 4)]
    assert s.to_pq() == ["1/4", "1/2", "0/1", "1/4"]
    assert MixedStrategy.uniform(3).weights == (1, 1, 1)
    assert MixedStrategy.from_weights([0, 5], 5) == MixedStrategy([0, 1])
    bad = (([1, -1, 2], 2), ([1, 1], 3), ([0, 0], 0), ([], 0), ([0.5, 0.5], 1), ([1], 1.0))
    for weights, den in bad:
        with pytest.raises(ValueError):
            MixedStrategy.from_weights(weights, den)


def test_strategy_inputs_must_be_exact():
    # As with matrix entries: a float, a string or a bool is refused rather
    # than converted.
    for probs in ([0.5, 0.5], ["1/2", "1/2"], [True, False], [F(1, 2), 0.5]):
        with pytest.raises(ValueError, match="int or Fraction"):
            MixedStrategy(probs)
    assert MixedStrategy([1, 0]).probs == (1, 0)
    for value in (0.0, "0", False):
        with pytest.raises(ValueError, match="int or Fraction"):
            max_optimal_mass(PENNIES, value, [0])
    assert max_optimal_mass(PENNIES, 0, [0]) == F(1, 2)
    # An int value is read exactly: the answer is a Fraction, not 0.5.
    assert type(max_optimal_mass(PENNIES, 0, [0])) is F


def test_scale_shift_covariance_random():
    rng = random.Random(42)
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [
            [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(nc)]
            for _ in range(nr)
        ]
        sol = solve_zero_sum(m)
        alpha, c = F(rng.randint(1, 5), rng.randint(1, 3)), F(rng.randint(-4, 4))
        m2 = [[alpha * v + c for v in row] for row in m]
        sol2 = solve_zero_sum(m2)
        assert sol2.value == alpha * sol.value + c
        # optimal strategies transfer both ways (value equality + zero regret)
        assert best_response_gap(m2, sol.row_strategy, sol.col_strategy) == (0, 0)
        assert best_response_gap(m, sol2.row_strategy, sol2.col_strategy) == (0, 0)
        # Bland's rule pivots alike on a positive scale-and-shift: the solver
        # reaches the same vertex.
        assert sol2.row_strategy == sol.row_strategy
        assert sol2.col_strategy == sol.col_strategy


def shifted_column_lp(matrix):
    """The oracle: the column player's LP as it was posed before the image.
    The matrix is read into integers over its common denominator D and
    shifted until its least entry is at least D, and solved with every
    right-hand side D.  Returns (value, w, duals), the vectors each divided
    by its sum."""
    rows = [[F(v) for v in row] for row in matrix]
    den = math.lcm(*(v.denominator for row in rows for v in row))
    ints = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
    lo = min(map(min, ints))
    shift = den - lo if lo < den else 0
    shifted = [[v + shift for v in row] for row in ints]
    w, z, duals, d = hsnet.simplex.solve_lp([1] * len(shifted[0]), shifted, [den] * len(shifted))
    return F(d, z) - F(shift, den), normalised(w), normalised(duals)


def normalised(vector):
    return [F(v, sum(vector)) for v in vector]


def assert_image_matches_shifted_read(matrix):
    """The LP on the matrix's integer image reaches the oracle's value and,
    normalised, its w and duals: the same vertex of the same polytope."""
    _, den, g, lo, (w, z, duals, d) = _column_lp(matrix)
    value = (g * F(d, z) + lo - g) / den  # K's value is d / z
    assert (value, normalised(w), normalised(duals)) == shifted_column_lp(matrix)


def test_integer_payoffs_reach_the_fraction_vertex_on_every_graph_up_to_seven():
    """The integers of integer_payoffs, passed without their D, give the
    solver the same strategies as the Fraction matrix, a value D times its
    value, and (up to five nodes) the same optimal masses at that value.  On
    the integer image, the LP reaches the shifted read's value, w and duals."""
    dens = set()
    for u in (square_u(F(1, 2)), ratio_u(F(1, 3))):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                rows, den = integer_payoffs(g, u)
                m = payoff_matrix(g, u)
                sol, int_sol = solve_zero_sum(m), solve_zero_sum(rows)
                assert int_sol.row_strategy == sol.row_strategy, (g, u.family)
                assert int_sol.col_strategy == sol.col_strategy, (g, u.family)
                assert int_sol.value == den * sol.value
                assert game_value(rows) == den * game_value(m)
                assert_image_matches_shifted_read(m)
                if n <= 5:
                    for v in range(n):
                        assert max_optimal_mass(rows, int_sol.value, [v]) == max_optimal_mass(
                            m, sol.value, [v])
                dens.add(den)
    assert max(dens) > 1


@pytest.mark.parametrize("u", [
    UtilitySpec.linear(1, F(1, 2)),
    UtilitySpec.power(2, 2),
    UtilitySpec.power(F(3, 2), 1),  # float-backed: 53-bit numerators
    UtilitySpec.ratio_power(2, 5),
], ids=["linear", "square", "power_3/2", "ratio_power_2"])
def test_integer_image_matches_shifted_read_on_large_random_graphs(u):
    # The solve workload's kind of game: G(n, 1/4) with n in {22, 24}, whose
    # matrices hold a few distinct payoffs, so the image is small.
    for seed, n in itertools.product(range(3), (22, 24)):
        rng = random.Random(seed)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.25])
        rows, den = integer_payoffs(g, u)
        assert_image_matches_shifted_read(rows)
        assert len(set(itertools.chain(*_integer_rows(rows)[2]))) <= 5


@pytest.mark.parametrize("matrix", [
    [[F(7, 3)]],  # 1 x 1
    [[4, 4], [4, 4]],  # constant: g = 0, so K is all 1s
    [[-3, 5, -3], [1, -7, 9]],  # negative entries
    [[F(-1, 2), F(3, 4)], [F(5, 6), F(-1, 3)]],
    [[6, 10], [14, 6]],  # already at least 1: still shifted down and divided
    [[F(2 ** 60 + 3, 2 ** 52), F(-5, 2 ** 52)], [F(-5, 2 ** 52), F(-5, 2 ** 52)]],
], ids=["1x1", "constant", "negative", "fractions", "positive", "float-like"])
def test_integer_rows_contract(matrix):
    rows, den, image, g, lo = _integer_rows(matrix)
    assert list(map(list, rows)) == [[v * den for v in row] for row in matrix]
    assert all(type(v) is int for row in rows + image + [[g, lo]] for v in row)
    assert min(map(min, image)) == 1
    steps = math.gcd(*(k - 1 for row in image for k in row))
    constant = len({v for row in matrix for v in row}) == 1
    assert steps == (0 if constant else 1)
    assert g > 0
    assert [[F(g * k + lo - g, den) for k in row] for row in image] == [list(row) for row in matrix]


def test_duality_certificate_on_random_graphs():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        # power 3/2 is float-backed: entries with ~2^52 denominators
        for u in (
            identity_u(rng.randint(0, 3)),
            square_u(F(1, 2)),
            UtilitySpec.power(F(3, 2), rng.randint(0, 3)),
        ):
            m = payoff_matrix(g, u)
            sol = solve_zero_sum(m)
            assert best_response_gap(m, sol.row_strategy, sol.col_strategy) == (0, 0)
            assert strategy_payoff(m, sol.row_strategy, sol.col_strategy) == sol.value
            assert game_value(m) == sol.value


def test_zero_gap_certificate_every_graph_up_to_five():
    u = identity_u(F(3, 2))
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            m = payoff_matrix(g, u)
            sol = solve_zero_sum(m)
            assert best_response_gap(m, sol.row_strategy, sol.col_strategy) == (0, 0)


def test_zero_gap_certificate_sampled_larger_graphs():
    rng = random.Random(8)
    for n in (6, 7):
        graphs = enumerate_graphs(n)
        for g in rng.sample(graphs, 15):
            m = payoff_matrix(g, square_u(F(1, 2)))
            sol = solve_zero_sum(m)
            assert best_response_gap(m, sol.row_strategy, sol.col_strategy) == (0, 0)


def test_one_lp_per_game(monkeypatch):
    calls = []
    solve_lp = hsnet.simplex.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(hsnet.simplex, "solve_lp", counting)
    for m in (PENNIES, [[F(-2)]], payoff_matrix(build_cycle(5), square_u(1))):
        calls.clear()
        solve_zero_sum(m)
        assert len(calls) == 1


@pytest.mark.parametrize("slot", [0, 2])  # solve_lp's x (the column weights w), its duals
def test_solver_vectors_off_their_optimum_raise(monkeypatch, slot):
    # Rescaled, both vectors are still an equilibrium: only their sums
    # against the LP's optimum show the solver's slip.
    solve_lp = hsnet.simplex.solve_lp

    def doubling(*args, **kwargs):
        out = list(solve_lp(*args, **kwargs))
        out[slot] = [2 * v for v in out[slot]]
        return tuple(out)

    monkeypatch.setattr(hsnet.simplex, "solve_lp", doubling)
    with pytest.raises(AssertionError, match="solver bug"):
        solve_zero_sum(payoff_matrix(build_cycle(5), square_u(1)))


def test_max_optimal_mass():
    assert max_optimal_mass(PENNIES, F(0), [0]) == F(1, 2)
    # row 1 strictly dominated: no optimal strategy touches it
    m = [[1, 1], [0, 0]]
    assert max_optimal_mass(m, F(1), [1]) == 0
    # multiple optima: either pure row can carry full mass
    m = [[2, 2], [2, 2]]
    assert max_optimal_mass(m, F(2), [0]) == 1
    assert max_optimal_mass(m, F(2), [1]) == 1
    # the mixed row optima trade row 2 against an even split of rows 0 and 1
    m = [[1, 0], [0, 1], [F(1, 2), F(1, 2)]]
    assert max_optimal_mass(m, F(1, 2), [0]) == F(1, 2)
    assert max_optimal_mass(m, F(1, 2), [1]) == F(1, 2)
    assert max_optimal_mass(m, F(1, 2), [2]) == 1


def test_max_optimal_mass_properties():
    """Two facts that need no LP: a row carries the whole mass exactly when it
    guarantees the value on its own, and no optimal strategy, the solver's
    included, puts more on a row than the probe allows."""
    rng = random.Random(17)
    games = []
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        games.append(
            [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
             for _ in range(nrows)]
        )
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for u in (identity_u(0), identity_u(2), square_u(50)):
                games.append(payoff_matrix(g, u))
    masses = set()
    for m in games:
        sol = solve_zero_sum(m)
        for i, row in enumerate(m):
            mass = max_optimal_mass(m, sol.value, [i])
            assert 0 <= mass <= 1
            assert (mass == 1) == (min(row) == sol.value)
            assert mass >= sol.row_strategy[i]
            masses.add(mass)
    assert 0 in masses and 1 in masses and len(masses) > 3


def test_max_optimal_mass_over_a_set_of_rows():
    """On seeded random integer games the probe of a set of rows is 0 exactly
    when each member's is, at least the largest member's and at most the
    smaller of 1 and their sum; on every row it is 1."""
    rng = random.Random(26)
    strictly_inside = 0
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        value = game_value(m)
        single = [max_optimal_mass(m, value, [i]) for i in range(nrows)]
        for size in range(1, nrows + 1):
            rows = rng.sample(range(nrows), size)
            mass, members = max_optimal_mass(m, value, rows), [single[i] for i in rows]
            assert (mass == 0) == all(x == 0 for x in members)
            assert max(members) <= mass <= min(1, sum(members))
            strictly_inside += max(members) < mass < sum(members)
        assert max_optimal_mass(m, value, range(nrows)) == 1
    assert strictly_inside


def test_max_optimal_mass_finds_what_the_solver_vertex_leaves_out():
    # Every row of the all-equal game is optimal: the solver's vertex puts
    # all its mass on one row, and the probe finds mass 1 on each other.
    m = [[3, 3], [3, 3], [3, 3]]
    sol = solve_zero_sum(m)
    unused = [i for i in range(3) if sol.row_strategy[i] == 0]
    assert len(unused) == 2
    assert max_optimal_mass(m, sol.value, unused) == 1
    assert all(max_optimal_mass(m, sol.value, [i]) == 1 for i in unused)


def test_max_optimal_mass_at_a_value_off_the_games():
    # Below the value the probe reads a larger set of strategies, so its
    # zero still proves that no optimal one uses the rows; above it no
    # strategy is left, and the LP is unbounded.
    assert max_optimal_mass(PENNIES, F(-1, 2), [0]) == F(3, 4) > max_optimal_mass(PENNIES, 0, [0])
    for value in (F(1, 2), 5):
        with pytest.raises(hsnet.simplex.UnboundedError):
            max_optimal_mass(PENNIES, value, [0, 1])


@pytest.mark.parametrize("rows", [[], (), set(), [True], [0, False], [1.0], [0, 2], [-1]])
def test_max_optimal_mass_refuses_a_bad_set_of_rows(rows):
    with pytest.raises(ValueError, match="row index|at least one row"):
        max_optimal_mass([[1, 0], [0, 1]], F(1, 2), rows)


@pytest.mark.parametrize("matrix", [
    [[0.1, 0], [0, 0.2]],  # a float is not read as the nearest binary fraction
    [["1/2"]],  # nor is a string parsed
    [[True, 0], [0, 1]],
    [[F(1, 2), None]],
], ids=["float", "str", "bool", "None"])
def test_entries_must_be_int_or_fraction(matrix):
    for solve in (solve_zero_sum, game_value):
        with pytest.raises(ValueError, match="int or Fraction"):
            solve(matrix)
    with pytest.raises(ValueError, match="int or Fraction"):
        max_optimal_mass(matrix, F(0), [0])


def test_max_optimal_mass_index_must_be_an_int():
    # True == 1 and 1.0 == 1, but a row index is exactly an int.
    identity = [[1, 0], [0, 1]]
    assert max_optimal_mass(identity, F(1, 2), [1]) == F(1, 2)
    for index in (True, False, 1.0, 0.0, "1", None, F(1), -1, 2):
        with pytest.raises(ValueError, match="row index must be an int"):
            max_optimal_mass(identity, F(1, 2), [index])


def test_max_optimal_mass_rejects_a_value_below_the_matrix():
    # Every value strictly below the least entry, however close, and for any
    # scale and shift of the matrix; the least entry itself is a game value.
    for scale, shift in ((1, 0), (F(1, 3), 7), (40, F(-5, 2))):
        m = [[scale * v + shift for v in row] for row in PENNIES]
        least = shift - scale
        for value in (least - 5, least - scale, least - F(1, 10 ** 9)):
            with pytest.raises(ValueError, match="below every entry"):
                max_optimal_mass(m, value, [0])
        assert max_optimal_mass([[least, least]], least, [0]) == 1


def test_dimension_checks():
    with pytest.raises(ValueError):
        best_response_gap(PENNIES, MixedStrategy.uniform(3), MixedStrategy.uniform(2))
    with pytest.raises(ValueError):
        solve_zero_sum([])
