"""Utility families and the hider-payoff matrix."""

import itertools
import json
import math
import random
import sys
from fractions import Fraction as F
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import hsnet.matrix_game
from hsnet.cli import main
from hsnet.designer import build_cycle, build_maximal_cp, design_optimal, strategy_payoffs
from hsnet.graphs import Graph, GraphError
from hsnet.matrix_game import (
    best_response_gap,
    capture_pattern,
    capture_probability,
    integer_payoffs,
)
from hsnet.oracle import exhaustive_optima
from hsnet.payoff import (
    FAMILIES,
    MixedStrategy,
    UtilityError,
    UtilitySpec,
    builtin_utilities,
    gap_from_payoffs,
)

from conftest import (
    conditioned,
    enumerate_graphs,
    graph_and_permutation,
    identity_u,
    payoff_matrix,
    ratio_u,
    relabel,
    square_u,
)


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
        # A key other than family, params and beta, or a params that is not
        # an object, is refused rather than read as no params.
        {"family": "linear", "beta": "1", "param": {"slope": "3"}},
        {"family": "linear", "params": {"slope": "3"}, "beta": "1", "Beta": "2"},
        {"family": "linear", "params": None, "beta": "0"},
        {"family": "table", "params": None, "beta": "0"},
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


# -- every route to a UtilitySpec ---------------------------------------------
#
# Each route takes (family, parameter, beta), the parameter a list for a
# table, and returns a UtilitySpec or raises.  The text routes write a value
# the way a user would type it.


def _text(value):
    if isinstance(value, list):
        return ",".join(map(_text, value))
    return json.dumps(value) if isinstance(value, bool) else str(value)


def _key(family):
    return FAMILIES.get(family, ("slope",))[0]


def _via_cli(argv, capsys):
    capsys.readouterr()
    code = main(["design", "--n", "4"] + argv)
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith("error: ") and "Traceback" not in err, err
        raise UtilityError(err)
    assert code == 0, err
    return UtilitySpec.from_json_dict(json.loads(out)["utility"])


ROUTES = {
    "named": lambda fam, p, beta, capsys: getattr(UtilitySpec, fam)(p, beta),
    "direct": lambda fam, p, beta, capsys: UtilitySpec(
        fam, tuple(p) if isinstance(p, list) else (p,), beta),
    "builtin": lambda fam, p, beta, capsys: builtin_utilities(fam, {_key(fam): p}, beta),
    "json_dict": lambda fam, p, beta, capsys: UtilitySpec.from_json_dict(
        json.loads(json.dumps({"family": fam, "params": {_key(fam): p}, "beta": beta},
                              default=str))),
    "cli_flags": lambda fam, p, beta, capsys: _via_cli(
        ["--family", fam, f"--{'table' if fam == 'table' else _key(fam)}={_text(p)}",
         f"--beta={_text(beta)}"], capsys),
    "cli_json": lambda fam, p, beta, capsys: _via_cli(
        ["--utility", json.dumps({"family": fam, "params": {_key(fam): p}, "beta": beta},
                                 default=str)], capsys),
}

REFUSED = [
    ("linear", 0.5, 0),  # float parameter
    ("linear", 1, 0.5),  # float beta
    ("power", True, 0),  # bool parameter
    ("linear", 1, True),  # bool beta
    ("linear", -1, 0),  # negative parameter
    ("power", 2, -1),  # negative beta
    ("linear", 0, 1),  # at the bound
    ("power", 0, 1),
    ("ratio_power", 1, 0),
    ("ratio_power", F(1, 2), 0),
    ("table", [1, 2, 3, 4, 5], 0),  # f(0) != 0
    ("table", [0, 2, 2, 3, 4], 0),  # not strictly increasing
    ("table", [0, 0.5, 1, 2, 3], 0),  # float value
    ("table", [0, 1, 2, 3, 4], True),  # bool beta
    ("cubic", 1, 0),  # unknown family
]

ACCEPTED = [
    ("linear", F(3, 2), F(1, 2)),
    ("power", 3, 0),
    ("power", F(3, 2), 2),
    ("ratio_power", 2, 1),
    ("table", [0, 1, F(5, 2), 4, 7], 1),
]


@pytest.mark.parametrize("route, family, param, beta", [
    (route, *case) for route in sorted(ROUTES) for case in REFUSED
    if route != "named" or case[0] in FAMILIES  # no constructor for an unknown family
], ids=repr)
def test_every_route_refuses_bad_utilities(capsys, route, family, param, beta):
    with pytest.raises(UtilityError):
        ROUTES[route](family, param, beta, capsys)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("family, param, beta", ACCEPTED, ids=repr)
def test_every_route_builds_the_same_utility(capsys, route, family, param, beta):
    expected = UtilitySpec(family, tuple(param) if isinstance(param, list) else (param,), beta)
    assert ROUTES[route](family, param, beta, capsys) == expected


class ExactInt(int):
    """Not exactly an int."""


class ExactFraction(F):
    """Not exactly a Fraction."""


SUBCLASS_ROUTES = {
    **{name: ROUTES[name] for name in ("named", "direct", "builtin")},
    # A dict as a caller may hold it, not read back from JSON text.
    "from_json_dict": lambda fam, p, beta, capsys: UtilitySpec.from_json_dict(
        {"family": fam, "params": {_key(fam): p}, "beta": beta}),
}


@pytest.mark.parametrize("route", sorted(SUBCLASS_ROUTES))
@pytest.mark.parametrize("family, param, beta", [
    ("linear", ExactInt(2), ExactInt(1)),
    ("linear", ExactInt(2), 1),
    ("linear", 2, ExactInt(1)),
    ("power", ExactFraction(3, 2), 0),
    ("linear", 1, ExactFraction(1, 2)),
    ("table", [0, ExactInt(1), 2], 0),
], ids=repr)
def test_int_and_fraction_subclasses_refused_on_every_route(capsys, route, family, param, beta):
    # The constructor and parse_rational both ask for exactly an int or a
    # Fraction, so no route reads a subclass.
    with pytest.raises(UtilityError):
        SUBCLASS_ROUTES[route](family, param, beta, capsys)


def test_reported_coercions_are_refused():
    for make in (
        lambda: UtilitySpec.linear(0.1, 0.5),
        lambda: UtilitySpec.table([0, 1, 2], True),
        lambda: UtilitySpec("linear", (F(-1),), F(1)),
        lambda: UtilitySpec("linear", (F(1),), 0.5),
        lambda: UtilitySpec("linear", [F(1)], F(0)),  # params must be a tuple
        lambda: UtilitySpec("linear", (F(1), F(2)), F(0)),  # one parameter
        lambda: UtilitySpec("table", (), F(0)),
        lambda: builtin_utilities("power", {"slope": "3"}),  # another family's parameter
        lambda: builtin_utilities("power", {"gamma": None}),
        lambda: builtin_utilities(["linear"]),
    ):
        with pytest.raises(UtilityError):
            make()
    # A float-backed exponent is derived inexact, and cannot be declared exact.
    assert not UtilitySpec("power", (F(3, 2),), F(1)).is_exact
    with pytest.raises(TypeError):
        UtilitySpec("power", (F(3, 2),), F(1), is_exact=True)


def test_named_defaults_are_the_table_defaults():
    for family, (_, default, _) in FAMILIES.items():
        if default is not None:
            assert getattr(UtilitySpec, family)() == builtin_utilities(family)
            assert builtin_utilities(family).params == (default,)


@pytest.mark.parametrize("command", [
    ["design", "--n", "4", "--family", "cubic"],
    ["value-table", "--n", "4", "--family", "cubic"],
    ["solve", "--graph", "{graph}", "--family", "cubic"],
    ["verify", "--n-max", "4", "--families", "linear,cubic"],
], ids=lambda c: c[0])
def test_unknown_family_is_a_usage_error(tmp_path, capsys, command):
    graph = tmp_path / "g.txt"
    graph.write_text("n 2\ne 0 1\n")
    assert main([arg.format(graph=graph) for arg in command]) == 2
    assert capsys.readouterr().err == "error: unknown utility family 'cubic'\n"


POWER_JSON = json.dumps({"family": "power", "params": {"gamma": 3}, "beta": "1"})


@pytest.mark.parametrize("flags, message", [
    (["--family", "linear", "--gamma", "3", "--beta", "1"],
     "--gamma is not a parameter of the linear family"),
    (["--gamma", "3"], "--gamma is not a parameter of the linear family"),
    (["--family", "power", "--slope", "2"], "--slope is not a parameter of the power family"),
    (["--family", "ratio_power", "--table", "0,1,2,3,4"],
     "--table is not a parameter of the ratio_power family"),
    (["--family", "table", "--table", "0,1,2,3,4", "--gamma", "2"],
     "--gamma is not a parameter of the table family"),
    (["--utility", POWER_JSON, "--slope", "5", "--family", "ratio_power"],
     "--utility takes no other utility flag, got --family"),
    (["--utility", POWER_JSON, "--beta", "0"], "--utility takes no other utility flag, got --beta"),
    (["--utility", POWER_JSON, "--family", "linear"],
     "--utility takes no other utility flag, got --family"),
    (["--utility", POWER_JSON, "--gamma", "3"], "--utility takes no other utility flag, got --gamma"),
    (["--utility", POWER_JSON, "--table", "0,1"],
     "--utility takes no other utility flag, got --table"),
], ids=lambda c: " ".join(c) if isinstance(c, list) else None)
@pytest.mark.parametrize("command", [
    ["solve", "--graph", "{graph}"],
    ["design", "--n", "4"],
    ["value-table", "--n", "4"],
], ids=lambda c: c[0])
def test_unused_utility_flags_are_usage_errors(tmp_path, capsys, command, flags, message):
    graph = tmp_path / "g.txt"
    graph.write_text("n 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
    assert main([arg.format(graph=graph) for arg in command] + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["design", "--n", "5"], ["value-table", "--n", "5"]],
                         ids=lambda c: c[0])
def test_unset_family_and_beta_mean_linear_and_zero(capsys, command):
    reports = []
    for flags in ([], ["--family", "linear", "--slope", "1", "--beta", "0"], ["--slope", "1"]):
        capsys.readouterr()
        assert main(command + flags) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]


def test_report_schema_lists_the_table_families():
    schema = json.loads(resources.files("hsnet.schemas").joinpath("solve.schema.json").read_text())
    assert schema["$defs"]["utility"]["properties"]["family"]["enum"] == list(FAMILIES)


@st.composite
def utilities(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    beta = draw(st.fractions(min_value=0, max_denominator=50))
    if family == "table":
        steps = draw(st.lists(st.fractions(min_value=F(1, 50), max_denominator=50),
                              min_size=1, max_size=8))
        values = [0]
        for step in steps:
            values.append(values[-1] + step)
        return UtilitySpec.table(values, beta)
    bound = FAMILIES[family][2]
    param = draw(st.one_of(
        st.integers(min_value=bound + 1, max_value=6),
        st.fractions(min_value=bound, max_value=6, max_denominator=20).filter(
            lambda p: p > bound),
    ))
    return UtilitySpec(family, (param,), beta)


@given(utilities())
def test_utility_json_round_trip_and_exactness(u):
    assert UtilitySpec.from_json_dict(u.to_json_dict()) == u
    exponent = u.family in ("power", "ratio_power")
    assert u.is_exact == (not exponent or u.params[0].denominator == 1)
    assert all(type(p) is F for p in u.params) and type(u.beta) is F


def test_hider_payoff_examples():
    m = payoff_matrix(build_cycle(4), identity_u(1))
    assert m[0][1] == -1  # adjacent: caught
    assert m[0][2] == 3  # survives on the 3-path
    assert payoff_matrix(Graph(4), identity_u())[0][3] == 1


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


def residual_component_sizes(g, k):
    """Component size containing each surviving node after deleting k, by
    one search per component; entry k is None."""
    n = g.node_count
    sizes = [None] * n
    seen = [False] * n
    seen[k] = True
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = [start]
        while stack:
            v = stack.pop()
            m = g.neighbor_mask(v) & ~(1 << k)
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if not seen[w]:
                    seen[w] = True
                    members.append(w)
                    stack.append(w)
        for v in members:
            sizes[v] = len(members)
    return tuple(sizes)


def reference_payoff_matrix(g, u):
    """The payoff matrix from one residual search per column."""
    n = g.node_count
    sizes = [residual_component_sizes(g, k) for k in range(n)]
    return tuple(
        tuple(
            -u.beta if k == h or g.has_edge(h, k) else u.value(sizes[k][h])
            for k in range(n)
        )
        for h in range(n)
    )


def test_payoff_matrix_matches_per_column_search():
    rng = random.Random(71)
    utilities = (identity_u(2), square_u(F(1, 2)), ratio_u(1))
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            g = relabelled(g, rng)
            for u in utilities:
                assert payoff_matrix(g, u) == reference_payoff_matrix(g, u), (g, u.family)


# -- the integer matrix, against the per-column search -----------------------

# Linear (D = 1), x^2 and ratio_power (D > 1), the float-backed power (entries
# with ~2^52 denominators) and a table with entries up to f(12).
INTEGER_UTILITIES = (
    identity_u(2),
    square_u(F(1, 2)),
    ratio_u(F(1, 3)),
    UtilitySpec.power(F(3, 2), 1),
    UtilitySpec.table([0, 1, 3, 4, 7, 8, 10, 13, 14, 17, 19, 20, 23], F(1, 2)),
)


def assert_integer_payoffs_match_reference(g):
    for u in INTEGER_UTILITIES:
        rows, den = integer_payoffs(g, u)
        expected = reference_payoff_matrix(g, u)
        assert all(type(v) is int for row in rows for v in row)
        assert tuple(tuple(F(v, den) for v in row) for row in rows) == expected, (g, u.family)
        # D is the matrix's own lcm: the table holds no size the matrix lacks.
        assert den == math.lcm(*(v.denominator for row in expected for v in row)), (g, u.family)


def test_integer_payoffs_match_per_column_search_on_every_graph_up_to_seven():
    rng = random.Random(16)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert_integer_payoffs_match_reference(relabelled(g, rng))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_and_permutation(min_nodes=1, max_nodes=12))
def test_integer_payoffs_match_per_column_search_under_relabelling(case):
    g, perm = case
    assert_integer_payoffs_match_reference(g)
    assert_integer_payoffs_match_reference(relabel(g, perm))


def test_integer_table_reads_only_the_sizes_asked_for():
    u = UtilitySpec.table([0, 1, 3], F(1, 2))
    assert u.integer_table((2, 0, 1)) == ([6, -1, 2], 2)
    assert u.integer_table(()) == ([], 1)
    # A size past the table is read only when asked for.
    assert u.integer_table((0, 2)) == ([-1, 6], 2)
    with pytest.raises(UtilityError, match="no entry for component size 3"):
        u.integer_table((3,))
    assert ratio_u(F(1, 3)).integer_table((0, 1, 2)) == ([-2, 3, 8], 6)


def test_no_command_path_builds_a_fraction_matrix(monkeypatch, tmp_path, capsys):
    """`solve`, the sweep with its structural checks, and the design
    certificate read payoffs in integers: no hsnet module holds payoff_matrix, and
    every matrix the game kernel reads holds ints only."""
    monkeypatch.delenv("HSNET_THREADS", raising=False)
    calls, fraction_matrices = {"kernel": 0}, []
    read = hsnet.matrix_game._integer_rows

    def checking_read(matrix):
        matrix = [tuple(row) for row in matrix]
        calls["kernel"] += 1
        if any(type(v) is not int for row in matrix for v in row):
            fraction_matrices.append(matrix)
        return read(matrix)

    monkeypatch.setattr(hsnet.matrix_game, "_integer_rows", checking_read)

    graph = tmp_path / "g.txt"
    graph.write_text("n 7\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\ne 0 2\ne 5 6\n")
    assert main(["solve", "--graph", str(graph), "--family", "power", "--beta", "1/2"]) == 0
    assert '"value": "' in capsys.readouterr().out
    solved = calls["kernel"]
    assert solved >= 1
    (report,) = exhaustive_optima(6, [square_u(F(1, 2))])
    # 156 sweep games, then at least one argmax game solved by the checks.
    assert calls["kernel"] > solved + 156
    assert report.all_passed()
    swept = calls["kernel"]
    design_optimal(40, square_u(F(1, 2)))
    assert calls["kernel"] == swept
    # The Fraction view is a test oracle: no hsnet module that ran holds it.
    hsnet_modules = [m for name, m in sys.modules.items() if name.startswith("hsnet")]
    assert not any(hasattr(module, "payoff_matrix") for module in hsnet_modules)
    assert fraction_matrices == []


def capture_probability_by_bitmasks(g, hider, seeker):
    """The capture probability summed over each inspected node's capture
    bitmask, the node and its neighbours, scanned over all n positions."""
    n = g.node_count
    hp, sp = list(hider), list(seeker)
    total = F(0)
    for k in range(n):
        if sp[k]:
            caught = g.neighbor_mask(k) | 1 << k
            total += sp[k] * sum(hp[h] for h in range(n) if caught >> h & 1)
    return total


def random_exact_strategy(rng, n):
    """Small-integer weights, some of them zero, over their total."""
    weights = [rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    return MixedStrategy([F(w, sum(weights)) for w in weights])


def assert_capture_probability_matches_bitmasks(g, rng):
    n = g.node_count
    for _ in range(3):
        hider, seeker = random_exact_strategy(rng, n), random_exact_strategy(rng, n)
        expected = capture_probability_by_bitmasks(g, hider, seeker)
        assert capture_probability(g, hider, seeker) == expected, (g, hider, seeker)


def test_capture_probability_matches_bitmasks_on_every_graph_up_to_seven():
    rng = random.Random(43)
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert_capture_probability_matches_bitmasks(g, rng)
            assert_capture_probability_matches_bitmasks(relabelled(g, rng), rng)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_and_permutation(min_nodes=1, max_nodes=12), st.randoms(use_true_random=False))
def test_capture_probability_matches_bitmasks_under_relabelling(case, rng):
    g, perm = case
    assert_capture_probability_matches_bitmasks(g, rng)
    assert_capture_probability_matches_bitmasks(relabel(g, perm), rng)


def test_capture_probability_conditioning():
    g = build_cycle(4)
    uniform = MixedStrategy.uniform(4)
    assert capture_probability(g, uniform, uniform) == F(3, 4)
    # adding isolated nodes and conditioning on the cycle leaves the rate
    g2 = Graph(6, build_cycle(4).edges)
    h = MixedStrategy([F(1, 8)] * 4 + [F(1, 4), F(1, 4)])
    s = MixedStrategy([F(3, 16)] * 4 + [F(1, 8), F(1, 8)])
    cycle = set(range(4))
    assert capture_probability(g2, conditioned(h, cycle), conditioned(s, cycle)) == F(3, 4)
    pure = MixedStrategy([1, 0, 0, 0, 0, 0])
    assert capture_probability(g2, conditioned(pure, cycle), conditioned(pure, cycle)) == 1


def test_every_strategy_reader_refuses_a_list():
    """capture_probability, strategy_payoffs, best_response_gap and
    gap_from_payoffs read a strategy only as a MixedStrategy: a list, even
    one that is no distribution or holds floats, is a ValueError naming its
    type (``MixedStrategy`` itself refuses inexact probabilities)."""
    g, u = Graph(2, [(0, 1)]), identity_u()
    pure = MixedStrategy([1, 0])
    matrix = payoff_matrix(g, u)
    rows, cols, den = strategy_payoffs(g, u, pure, pure)
    assert capture_probability(g, pure, pure) == 1
    assert best_response_gap(matrix, pure, pure) == (0, 0)
    assert gap_from_payoffs(pure, rows, cols) == (0, 0)
    for bad in ([2, 0], [-1, 2], [5, 0], [F(1, 2), F(1, 2)], (1, 0), [0.5, 0.5], [True, False]):
        for call in (lambda: capture_probability(g, bad, pure),
                     lambda: capture_probability(g, pure, bad),
                     lambda: strategy_payoffs(g, u, bad, pure),
                     lambda: strategy_payoffs(g, u, pure, bad),
                     lambda: best_response_gap(matrix, bad, pure),
                     lambda: best_response_gap(matrix, pure, bad),
                     lambda: gap_from_payoffs(bad, rows, cols)):
            message = f"^a strategy must be a MixedStrategy, got {type(bad).__name__}$"
            with pytest.raises(ValueError, match=message):
                call()


# -- M.seeker and hider.M from the graph, against the dense matrix -----------

# One of each family; the float-backed power and a table with no entry past
# 13, so a connected 14-node graph fails if f(14) is ever asked for.
PAYOFF_UTILITIES = (
    UtilitySpec.linear(1, 2),
    UtilitySpec.power(F(3, 2), F(1, 2)),
    UtilitySpec.ratio_power(3, 1),
    UtilitySpec.table([0, 1, 3, 4, 7, 8, 10, 13, 14, 17, 19, 20, 23, 26], 5),
)


def dense_payoffs(g, u, hider, seeker):
    m = payoff_matrix(g, u)
    seeks = [(k, q) for k, q in enumerate(seeker) if q]
    hides = [(h, p) for h, p in enumerate(hider) if p]
    rows = [sum(row[k] * q for k, q in seeks) for row in m]
    cols = [sum(p * m[h][k] for h, p in hides) for k in range(g.node_count)]
    return rows, cols


def random_strategy(rng, n):
    """A distribution with zero entries; sometimes pure."""
    weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    return MixedStrategy([F(w, sum(weights)) for w in weights])


def assert_payoffs_match_dense(g, rng, utilities=PAYOFF_UTILITIES):
    n = g.node_count
    for u in utilities:
        hider, seeker = random_strategy(rng, n), random_strategy(rng, n)
        rows, cols, den = strategy_payoffs(g, u, hider, seeker)
        assert ([F(v, den) for v in rows], [F(v, den) for v in cols]) == dense_payoffs(
            g, u, hider, seeker), (g, u.family, hider, seeker)


def relabelled(g, rng):
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    return Graph(g.node_count, [(perm[i], perm[j]) for i, j in g.edges])


def test_strategy_payoffs_every_labelled_graph_up_to_five():
    rng = random.Random(5)
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            assert_payoffs_match_dense(g, rng)


def test_strategy_payoffs_relabelled_representatives():
    rng = random.Random(67)
    for n in (6, 7):
        for i, g in enumerate(enumerate_graphs(n)):
            # Two families per graph, in turn, so every family meets every
            # shape class often.
            pair = (PAYOFF_UTILITIES[i % 4], PAYOFF_UTILITIES[(i + 1 + i // 4 % 3) % 4])
            assert_payoffs_match_dense(relabelled(g, rng), rng, pair)


def test_strategy_payoffs_random_disconnected_graphs():
    # Disjoint unions of random parts (trees, cycles with chords, dense
    # blobs) plus isolated nodes, shuffled, up to 14 nodes.
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 14)
        edges, start = [], 0
        while start < n:
            size = rng.randint(1, n - start)
            part = range(start, start + size)
            shape = rng.random()
            for v in part[1:]:
                if shape > 0.2:  # a spanning tree unless the part stays edgeless
                    edges.append((rng.randrange(start, v), v))
            for i, j in itertools.combinations(part, 2):
                if shape > 0.6 and rng.random() < shape - 0.6 and (i, j) not in edges:
                    edges.append((i, j))
            start += size
        assert_payoffs_match_dense(relabelled(Graph(n, edges), rng), rng)


def test_strategy_payoffs_read_f_only_at_the_sizes_the_matrix_holds():
    """A part that k catches whole adds nothing: K4 holds no size but 0, so
    a table ending at f(1) is enough.  On seeded random graphs a table ends at
    the largest size the capture pattern holds, so reading f at any other
    part size would raise."""
    rng = random.Random(31)
    k4 = Graph(4, list(itertools.combinations(range(4), 2)))
    assert_payoffs_match_dense(k4, rng, [UtilitySpec.table([0, 1], F(1, 2))])
    tables = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])
        top = max(set().union(*capture_pattern(g)))
        if top:
            values = list(itertools.accumulate(rng.randint(1, 3) for _ in range(top)))
            assert_payoffs_match_dense(g, rng, [UtilitySpec.table([0] + values, rng.randint(0, 3))])
            tables += 1
    assert tables > 150


def test_strategy_payoffs_validates_shapes():
    g = build_cycle(4)
    with pytest.raises(GraphError):
        strategy_payoffs(g, identity_u(), MixedStrategy.uniform(3), MixedStrategy.uniform(4))
    with pytest.raises(GraphError):
        strategy_payoffs(Graph(0), identity_u(), [], [])
