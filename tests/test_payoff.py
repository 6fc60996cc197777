"""Utility families and the hider-payoff matrix."""

import itertools
import random
from fractions import Fraction as F

import pytest

from hsnet.designer import build_cycle, build_maximal_cp
from hsnet.graphs import Graph
from hsnet.payoff import (
    UtilityError,
    UtilitySpec,
    builtin_utilities,
    capture_probability,
    hider_payoff,
    payoff_matrix,
)

from conftest import identity_u, square_u, ratio_u


def test_builtin_values():
    assert identity_u().value(5) == 5
    assert square_u().value(3) == 9
    assert ratio_u().value(2) == F(4, 3)
    table = UtilitySpec.table([0, 1, F(3, 2), 2])
    assert table.value(2) == F(3, 2)
    with pytest.raises(UtilityError):
        table.value(9)


def test_utility_validation():
    with pytest.raises(UtilityError):
        UtilitySpec.linear(0)
    with pytest.raises(UtilityError):
        UtilitySpec.power(0)
    with pytest.raises(UtilityError):
        UtilitySpec.ratio_power(1)
    with pytest.raises(UtilityError):
        UtilitySpec.linear(1, -1)
    with pytest.raises(UtilityError):
        UtilitySpec.table([1, 2])  # f(0) != 0
    with pytest.raises(UtilityError):
        UtilitySpec.table([0, 2, 2])  # not strictly increasing


def test_utility_json_roundtrip():
    for u in (identity_u(F(1, 2)), square_u(2), ratio_u(5), UtilitySpec.table([0, 1, 3], 1)):
        again = UtilitySpec.from_json_dict(u.to_json_dict())
        assert again == u
    u = builtin_utilities("linear", {"slope": "3/2"}, "2")
    assert u.value(4) == 6 and u.beta == 2


def test_utility_spec_shapes_validated():
    for data in (
        {"family": "linear", "params": 5, "beta": "0"},
        {"family": "linear", "params": [["slope", 2]], "beta": "0"},
        {"family": "power", "params": "gamma", "beta": "0"},
        {"family": "table", "params": {"values": "0,1"}, "beta": "0"},
        {"family": "table", "params": {"values": 3}, "beta": "0"},
    ):
        with pytest.raises(UtilityError):
            UtilitySpec.from_json_dict(data)
    with pytest.raises(UtilityError):
        builtin_utilities("table", {"values": "0,1,2"})
    assert builtin_utilities("table", {"values": ("0", "1")}).value(1) == 1
    assert builtin_utilities("linear").value(3) == 3


def test_inexact_power_flagged():
    u = UtilitySpec.power(F(3, 2))
    assert not u.is_exact
    assert abs(float(u.value(4)) - 8.0) < 1e-9


def test_hider_payoff_examples():
    c4 = build_cycle(4)
    u = identity_u(1)
    assert hider_payoff(c4, u, 0, 1) == -1  # adjacent: caught
    assert hider_payoff(c4, u, 0, 2) == 3  # survives on the 3-path
    singles = Graph(4)
    assert hider_payoff(singles, identity_u(), 0, 3) == 1
    with pytest.raises(Exception):
        hider_payoff(c4, u, 0, 9)


def test_payoff_matrix_single_node():
    m = payoff_matrix(Graph(1), identity_u(2))
    assert m == ((F(-2),),)


def test_payoff_matrix_c4():
    m = payoff_matrix(build_cycle(4), identity_u(1))
    for h in range(4):
        row = m[h]
        assert sorted(row) == [-1, -1, -1, 3]


def test_payoff_matrix_maximal_cp8():
    u = identity_u(2)
    m = payoff_matrix(build_maximal_cp(8), u)
    # periphery node i sits at 4+i attached to core i
    for i in range(4):
        p = 4 + i
        row = m[p]
        assert row[p] == -2 and row[i] == -2
        for c in range(4):
            if c != i:
                assert row[c] == 6
        for j in range(4):
            if j != i:
                assert row[4 + j] == 7


def test_matrix_entry_range_random():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        u = identity_u(F(rng.randint(0, 6), rng.randint(1, 3)))
        m = payoff_matrix(g, u)
        allowed = {-u.beta} | {u.value(c) for c in range(1, n)}
        for row in m:
            for v in row:
                assert v in allowed


def test_adding_edges_grows_capture_set():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        g = Graph(n, edges)
        free = [e for e in itertools.combinations(range(n), 2) if e not in g.edges]
        if not free:
            continue
        g2 = Graph(n, list(g.edges) + [rng.choice(free)])
        u = identity_u(1)
        m1 = payoff_matrix(g, u)
        m2 = payoff_matrix(g2, u)
        before = {(h, k) for h in range(n) for k in range(n) if m1[h][k] == -1}
        after = {(h, k) for h in range(n) for k in range(n) if m2[h][k] == -1}
        assert before <= after


def test_two_connected_noncapture_entries():
    for g in (build_cycle(5), Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])):
        n = g.node_count
        u = square_u(1)
        m = payoff_matrix(g, u)
        for h in range(n):
            for k in range(n):
                if m[h][k] != -1:
                    assert m[h][k] == u.value(n - 1)


def test_capture_probability_conditioning():
    g = build_cycle(4)
    uniform = [F(1, 4)] * 4
    assert capture_probability(g, uniform, uniform) == F(3, 4)
    # adding isolated nodes and conditioning on the cycle leaves the rate
    g2 = Graph(6, build_cycle(4).edges)
    h = [F(1, 8)] * 4 + [F(1, 4), F(1, 4)]
    s = [F(3, 16)] * 4 + [F(1, 8), F(1, 8)]
    assert capture_probability(g2, h, s, within=range(4)) == F(3, 4)
