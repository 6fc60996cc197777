"""Command-line surface: formats, exit codes, schema conformance."""

import hashlib
import json
import random
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from hsnet.canonical import enumerate_keys
from hsnet.cli import _enumeration_report, format_json, main
from hsnet.graphs import Graph, format_graph_text, parse_graph_text
from hsnet.designer import build_cycle

from conftest import key_to_json_dict, run_child


def run(args):
    return main(args)


def schema(name):
    ref = resources.files("hsnet.schemas").joinpath(name)
    return json.loads(ref.read_text())


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.graph"
    p.write_text(format_graph_text(build_cycle(4)))
    return p


def test_solve_c4(tmp_path, c4_file):
    out = tmp_path / "sol.json"
    code = run(
        ["solve", "--graph", str(c4_file), "--family", "linear", "--beta", "1",
         "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    jsonschema.validate(data, schema("solve.schema.json"))
    assert data["value"] == "0/1"
    assert data["capture_probability"] == "3/4"


def test_solve_single_node(tmp_path):
    g = tmp_path / "one.graph"
    g.write_text("n 1\n")
    out = tmp_path / "sol.json"
    assert run(["solve", "--graph", str(g), "--beta", "2", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["value"] == "-2/1"


def test_solve_malformed_edge_line(tmp_path, capsys):
    g = tmp_path / "bad.graph"
    g.write_text("n 3\ne 0 1\ne 2 1\n")
    code = run(["solve", "--graph", str(g)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_solve_json_graph_input(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    out = tmp_path / "sol.json"
    assert run(["solve", "--graph", str(g), "--beta", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == "0/1"


def test_solve_json_graph_non_integer_edge(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"n": 3, "edges": [[0, 1.7]]}))
    assert run(["solve", "--graph", str(g)]) == 2
    assert "bad edge entry" in capsys.readouterr().err


def test_solve_rejects_non_object_utility_params(c4_file):
    proc = run_child(
        ["-m", "hsnet.cli", "solve", "--graph", str(c4_file),
         "--utility", '{"family":"linear","params":5,"beta":"0"}']
    )
    assert proc.returncode == 2
    assert "params must be an object" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec, message", [
    ('{"family":"linear","beta":"1","param":{"slope":"3"}}', "unknown utility key 'param'"),
    ('{"family":"linear","params":null,"beta":"1"}', "utility params must be an object, got None"),
])
def test_solve_refuses_a_utility_json_typo(c4_file, capsys, spec, message):
    # Read as given, either would solve with slope 1 and exit 0.
    assert run(["solve", "--graph", str(c4_file), "--utility", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ('{"family": "linear"}', "utility spec needs 'beta'"),
    ('{"beta": "1"}', "utility spec needs 'family'"),
    ("{}", "utility spec needs 'family'"),
    ('{"famly": "linear", "beta": "1"}', "unknown utility key 'famly'"),
    ("[1, 2]", "utility spec must be a JSON object"),
    ('"linear"', "utility spec must be a JSON object"),
    ("null", "utility spec must be a JSON object"),
    ("3", "utility spec must be a JSON object"),
])
def test_malformed_utility_spec_is_refused_in_its_own_words(tmp_path, c4_file, capsys,
                                                            spec, message):
    spec_file = tmp_path / "utility.json"
    spec_file.write_text(spec)
    for argv in (["design", "--n", "6", "--utility", spec],
                 ["design", "--n", "6", "--utility", f"@{spec_file}"],
                 ["solve", "--graph", str(c4_file), "--utility", spec]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv


@pytest.mark.parametrize("beta", ["-1/-2", "2/-3", "1_000", "\u0663", "1 / 2"])
def test_design_refuses_a_beta_that_is_not_a_plain_rational(beta, capsys):
    # "--beta=" form: argparse would read a leading "-1/-2" as an option.
    assert run(["design", "--n", "5", f"--beta={beta}"]) == 2
    err = capsys.readouterr().err
    assert "invalid rational" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["design", "--n", "1_0"],
    ["design", "--n", "5.0"],
    ["enumerate", "--n", "\u0663"],
    ["value-table", "--n", "4", "--n-max", "+-6"],
    ["verify", "--n-max", "4 4"],
])
def test_int_options_refuse_what_is_not_plain_ascii_digits(args, capsys):
    # --n and --n-max read ASCII digits with an optional sign, as --beta
    # reads p, and refuse anything else in argparse's own words.
    with pytest.raises(SystemExit) as stop:
        run(args)
    assert stop.value.code == 2
    flag, value = args[-2:]
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


def test_int_options_read_signs_and_surrounding_whitespace(capsys):
    for value in ("4", "+4", " 4 ", "04"):
        assert run(["enumerate", "--n", value, "--count-only"]) == 0
        assert json.loads(capsys.readouterr().out) == {"count": 11, "n": 4}


@pytest.mark.parametrize("family", ["power", "ratio_power"])
def test_float_power_overflow_is_a_usage_error(c4_file, family):
    # 3 ** 1500.5 overflows a float.
    for command in (["solve", "--graph", str(c4_file)], ["design", "--n", "5"]):
        proc = run_child(["-m", "hsnet.cli"] + command + ["--family", family, "--gamma", "3001/2"])
        assert proc.returncode == 2
        assert "overflows a float" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("family, edges", [
    ("power", [(0, 1), (1, 2)]),
    ("ratio_power", [(0, 1), (1, 2)]),
    ("ratio_power", []),  # only f(1) = 1 / 2 ** 999999 is evaluated
])
def test_integer_power_overflow_is_a_usage_error(tmp_path, family, edges):
    # 2 ** 1000000 passes the float range; exact evaluation would run for a
    # minute or more on million-digit integers before anything failed.
    graph = tmp_path / "g.graph"
    graph.write_text(format_graph_text(Graph(3, edges)))
    for command in (["solve", "--graph", str(graph)], ["design", "--n", "5"]):
        proc = run_child(
            ["-m", "hsnet.cli"] + command + ["--family", family, "--gamma", "1000000"],
            timeout=30,
        )
        assert proc.returncode == 2
        assert "overflows a float at component size" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_import_leaves_multiprocessing_out():
    proc = run_child(
        ["-c", "import sys, hsnet.cli; print('concurrent.futures.process' in sys.modules)"]
    )
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def loaded_after(command):
    """The modules in sys.modules after ``hsnet.cli.main(command)`` in a
    fresh interpreter started with ``-S``, so that no ``site`` hook loads a
    module first."""
    proc = run_child([
        "-S",
        "-c",
        "import contextlib, io, sys, hsnet.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = hsnet.cli.main({command!r})\n"
        "print(code, *sorted(sys.modules))",
    ])
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    assert code == "0"
    return set(modules)


# The hsnet modules each command loads beside ``hsnet`` and ``hsnet.cli``:
# exactly these.  Only verify loads the canonical labelling or the verifier;
# design certifies without the game solver; enumerate builds no Graph.
COMMAND_MODULES = {
    "enumerate": {"canonical"},
    "export": {"graphs"},
    "design": {"designer", "closed_form", "payoff", "graphs", "rationals", "records"},
    # The closed forms read utilities alone: no graph code is loaded.
    "value-table": {"closed_form", "payoff", "rationals", "records"},
    "solve": {"matrix_game", "simplex", "payoff", "graphs", "rationals", "records"},
    "verify": {"oracle", "canonical", "designer", "closed_form", "matrix_game", "simplex",
               "payoff", "graphs", "rationals", "records"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_its_modules(command, c4_file):
    args = {
        "enumerate": ["--n", "3"],
        "export": ["--graph", str(c4_file)],
        "design": ["--n", "9", "--beta", "2"],
        "value-table": ["--n", "5"],
        "solve": ["--graph", str(c4_file)],
        "verify": ["--n-max", "4", "--families", "power", "--betas", "1/2"],
    }[command]
    loaded = loaded_after([command] + args)
    hsnet_modules = {m for m in loaded if m == "hsnet" or m.startswith("hsnet.")}
    assert hsnet_modules == {"hsnet", "hsnet.cli"} | {
        f"hsnet.{name}" for name in COMMAND_MODULES[command]
    }
    assert "dataclasses" not in loaded
    assert "typing" not in loaded
    if command == "enumerate":
        assert "fractions" not in loaded
        assert "csv" not in loaded


def test_design_size_limit_is_a_usage_error(monkeypatch, capsys):
    import hsnet.designer
    import hsnet.graphs

    monkeypatch.setattr(hsnet.designer, "design_optimal", lambda *a: pytest.fail("design ran"))
    limit = hsnet.graphs.GRAPH_MAX_NODES
    assert limit == 10**6
    # Refused before any work: the utility file is never opened.  Below 4
    # nodes the closed forms claim no optimum.
    for n in (limit + 1, 10**9, 3, 2, 1, 0, -3):
        assert run(["design", "--n", str(n), "--utility", "@/no/such/file.json"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --n must be between 4 and {limit}, got {n}\n"


def test_solve_size_limit_is_a_usage_error(tmp_path, monkeypatch, capsys):
    import hsnet.cli
    import hsnet.matrix_game

    def reached(*args):
        raise RuntimeError("integer_payoffs ran")

    monkeypatch.setattr(hsnet.matrix_game, "integer_payoffs", reached)
    limit = hsnet.cli.SOLVE_MAX_NODES
    assert limit == 100
    big = tmp_path / "big.graph"
    big.write_text(format_graph_text(build_cycle(limit + 1)))
    # Refused once the graph is read, before the utility file is opened.
    assert run(["solve", "--graph", str(big), "--utility", "@/no/such/file.json"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: solve takes at most {limit} nodes, got {limit + 1}\n"
    # A graph at the limit goes on to the matrix.
    at_limit = tmp_path / "limit.graph"
    at_limit.write_text(format_graph_text(build_cycle(limit)))
    with pytest.raises(RuntimeError, match="integer_payoffs ran"):
        run(["solve", "--graph", str(at_limit)])


@pytest.mark.parametrize("command", ["solve", "export"])
@pytest.mark.parametrize("text, where", [
    ("n 1000001\n", "line 1: "), ('{"n": 1000001, "edges": []}', ""),
], ids=["text", "json"])
def test_graph_file_past_the_node_limit_is_refused_unbuilt(
        tmp_path, monkeypatch, capsys, command, text, where):
    import hsnet.graphs

    monkeypatch.setattr(hsnet.graphs, "Graph", lambda *a: pytest.fail("a Graph was built"))
    big = tmp_path / "big.graph"
    big.write_text(text)
    assert run([command, "--graph", str(big)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {where}node count must be at most 1000000, got 1000001\n"


@pytest.mark.parametrize("command", ["solve", "export"])
@pytest.mark.parametrize("text, message", [
    ('{"n": 3, "edges": [], "edgez": [[0, 1]]}', "unknown graph key 'edgez'"),
    ('{"n": -1, "edges": []}', "node count must be nonnegative"),
    ("n -1\n", "line 1: node count must be nonnegative"),
], ids=["json-typo", "json-negative", "text-negative"])
def test_graph_file_refuses_a_key_typo_and_a_negative_count(
        tmp_path, capsys, command, text, message):
    # Read loosely, the typo would give three isolated nodes and exit 0.
    bad = tmp_path / "bad.graph"
    bad.write_text(text)
    assert run([command, "--graph", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


DEEP = "[" * 3000 + "]" * 3000  # past the JSON reader's recursion limit


@pytest.mark.parametrize("text, message", [
    ('{"n": 3, "edges": ' + DEEP + "}", "nested too deeply"),
    ('{"n": 3, "n": 4, "edges": [[0, 1]]}', "repeated key 'n'"),
    ('{"n": 3, "edges": [{"a": 1, "a": 1}]}', "repeated key 'a'"),
], ids=["deep", "repeated", "repeated-inner"])
@pytest.mark.parametrize("command", ["solve", "export"])
def test_graph_json_refuses_deep_nesting_and_a_repeated_key(
        tmp_path, capsys, command, text, message):
    # Deep nesting was a RecursionError traceback, exit 1; the repeated n
    # was read as its last value, a 4-node graph.
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run([command, "--graph", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: invalid graph JSON: {message}\n"


@pytest.mark.parametrize("spec, message", [
    (DEEP, "nested too deeply"),
    ('{"family": "linear", "params": ' + DEEP + ', "beta": "1"}', "nested too deeply"),
    ('{"family": "linear", "beta": "1", "beta": "50"}', "repeated key 'beta'"),
    ('{"family": "power", "params": {"gamma": "2", "gamma": "3"}, "beta": "1"}',
     "repeated key 'gamma'"),
], ids=["deep", "deep-params", "repeated", "repeated-param"])
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_utility_json_refuses_deep_nesting_and_a_repeated_key(
        tmp_path, capsys, spec, message, inline):
    # The repeated beta designed at beta = 50.
    if not inline:
        path = tmp_path / "u.json"
        path.write_text(spec)
        spec = f"@{path}"
    assert run(["design", "--n", "5", "--utility", spec]) == 2
    assert capsys.readouterr().err == f"error: invalid utility JSON: {message}\n"


def test_solve_refuses_a_graph_file_at_the_node_limit(tmp_path, monkeypatch, capsys):
    # The reader takes 10^6 nodes; solve keeps its own refusal above 100.
    import types
    import hsnet.graphs

    monkeypatch.setattr(hsnet.graphs, "Graph", lambda n, edges: types.SimpleNamespace(node_count=n))
    big = tmp_path / "big.graph"
    big.write_text("n 1000000\n")
    assert run(["solve", "--graph", str(big)]) == 2
    assert capsys.readouterr().err == "error: solve takes at most 100 nodes, got 1000000\n"


def test_value_table_size_limit_is_a_usage_error(monkeypatch, capsys):
    import hsnet.cli
    import hsnet.closed_form

    def reached(*args):
        raise RuntimeError("a row was read")

    monkeypatch.setattr(hsnet.closed_form, "value_table_rows", reached)
    limit = hsnet.cli.VALUE_TABLE_MAX_NODES
    assert limit == 50
    # Refused before any work: the utility file is never opened.
    for n, argv in [(limit + 1, ["--n", str(limit + 1)]),
                    (limit + 1, ["--n", "4", "--n-max", str(limit + 1)]),
                    (10**9, ["--n", str(10**9), "--n-max", "4"])]:
        assert run(["value-table"] + argv + ["--utility", "@/no/such/file.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: value-table takes n up to {limit}, got {n}\n"
        assert captured.out == ""
    # A table up to the limit goes on to the rows.
    with pytest.raises(RuntimeError, match="a row was read"):
        run(["value-table", "--n", "4", "--n-max", str(limit)])


def test_value_table_unreadable_size_is_refused_before_any_row(monkeypatch, capsys):
    import hsnet.closed_form

    def reached(*args):
        raise RuntimeError("a row was read")

    monkeypatch.setattr(hsnet.closed_form, "value_table_rows", reached)
    # f overflows a float only at the largest size; a table ends at size 4.
    for argv, err in [
        (["--n-max", "50", "--family", "ratio_power", "--gamma", "182", "--beta", "1/3"],
         "ratio_power utility overflows a float at component size 50"),
        (["--n-max", "8", "--family", "table", "--table", "0,1,2,3,4"],
         "table utility has no entry for component size 5"),
    ]:
        assert run(["value-table", "--n", "1"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {err}\n"
        assert captured.out == ""


def test_verify_refusal_names_long(capsys):
    # Refused before any enumeration, and --long named only where it helps.
    for argv, err in [(["--n-max", "8"], "n_max=8 above limit 7 (--long allows 8)"),
                      (["--n-max", "9"], "n_max=9 above limit 7"),
                      (["--long", "--n-max", "9"], "n_max=9 above limit 8")]:
        assert run(["verify"] + argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


# The exit code and the SHA-256 of stdout and of stderr for each argument
# list, with COLUMNS=80, taken while every command built all six subparsers.
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PARSER_TEXT_SHA256 = {
    "--help":
        (0, "5cea76fed6bfd6e76394ffcf10791c3cdd6664a7d542bfc9994ff16d0a6e881f", EMPTY_SHA256),
    "solve --help":
        (0, "efc18860290829d064a035f319f2442a2097b0e32b823cbb801d40828107c6cb", EMPTY_SHA256),
    "design --help":
        (0, "22d9e5c321df767c86f338f3be15a1ae37ce4dc8063d7c1dad682f75722847aa", EMPTY_SHA256),
    "value-table --help":
        (0, "41e6f4cfa8ff71d0dc9e9d0bf2f1d2d2fc8f89a26ca5bb97bee6db0504332dcd", EMPTY_SHA256),
    "verify --help":
        (0, "2777140d030cd3e94b3f5dd4dad2dd6915215eb3dcab1291e8c148c8e60f3d0b", EMPTY_SHA256),
    "enumerate --help":
        (0, "81349bc1ab310b5bc7a8c3d72cd3d27ed39fc7dd882491492dd255c1c9891e19", EMPTY_SHA256),
    "export --help":
        (0, "9ff98e75947f891c515078cdfcac1742da9fd7a1ff835ff101f12d2a9be28303", EMPTY_SHA256),
    "":  # no command
        (2, EMPTY_SHA256, "ef1b5dc1389d26e46a8159894c9f8c3f9f3fdb8c3cd89717c1121d2e0239a54b"),
    "bogus":
        (2, EMPTY_SHA256, "a89f2bf1c0e66f1e06805ce793a4a508bb002527a9dabf8c20cd3e996736c532"),
    "design":  # no --n
        (2, EMPTY_SHA256, "a3b5680c7cd19519de88eaee34fb587aa3b874a0b13d202d8e41ca90effa0160"),
    "design --n x":
        (2, EMPTY_SHA256, "e784ff45dba0ebf9a2b0d991fc36d4a54313d0bc4b87b22e86e59cea6a54fd74"),
    "design --n 5 --bogus":  # the usage line lists all six commands
        (2, EMPTY_SHA256, "a325136178b065f6b6844403a7b6c71231e2a9a9e654230463c801e73cfe577c"),
}


@pytest.mark.parametrize("args", sorted(PARSER_TEXT_SHA256))
def test_parser_texts_pinned(monkeypatch, capsys, args):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        run(args.split())
    out, err = capsys.readouterr()
    digests = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest())
    assert (stop.value.code, *digests) == PARSER_TEXT_SHA256[args]


def test_main_reads_sys_argv(monkeypatch, capsys):
    # The hsnet console script calls main() with no arguments.
    assert run(["enumerate", "--n", "4"]) == 0
    want = capsys.readouterr()
    monkeypatch.setattr("sys.argv", ["hsnet", "enumerate", "--n", "4"])
    assert main() == 0
    assert capsys.readouterr() == want
    monkeypatch.setattr("sys.argv", ["hsnet", "enumerate"])
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith("error: the following arguments are required: --n\n")


def test_top_level_names_resolve_on_first_use():
    proc = run_child([
        "-c",
        "import hsnet\n"
        "for name in hsnet.__all__:\n"
        "    exec(f'from hsnet import {name}')\n"
        "try:\n"
        "    hsnet.no_such_name\n"
        "except AttributeError:\n"
        "    print(len(hsnet.__all__))",
    ])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "11\n"


# SHA-256 of `hsnet enumerate --n 7` stdout, taken before the clique-cell
# search, the twin-class extensions and the per-command imports.
ENUMERATE_N7_SHA256 = "bc81ba671d179eb139981e374644293943962c5f2d8d731a5a6e23a159e8f2f6"


def test_enumerate_n7_bytes_pinned():
    proc = run_child(["-m", "hsnet.cli", "enumerate", "--n", "7"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == ENUMERATE_N7_SHA256


# SHA-256 of stdout for each argument list, taken while reports were still
# written by ``json.dumps(..., sort_keys=True, indent=2)`` and enumeration
# built a Graph per class.
REPORT_SHA256 = {
    "enumerate --n 8":
        "86c96c481884632651067e0e642763cc8d54ba1d6f589aa0bff365b7be8ffb23",
    "enumerate --n 8 --count-only":
        "11def45f0cf49d5daec76745107b281fc1d73846471ccd823b821fca9541bc3a",
    "export --format json --graph":
        "0bcc48d4ca8a2cb27ea36262688603d0bab4d1083997e34c4d219f8c519e1338",
}


@pytest.mark.parametrize("args", sorted(REPORT_SHA256))
def test_report_bytes_pinned(tmp_path, args):
    argv = args.split()
    if argv[-1] == "--graph":  # a seeded G(12, 0.3) in the text format
        rng = random.Random(12)
        edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.3]
        path = tmp_path / "g12.graph"
        path.write_text(format_graph_text(Graph(12, edges)))
        argv.append(str(path))
    proc = run_child(["-m", "hsnet.cli"] + argv, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == REPORT_SHA256[args]


report_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.text(st.characters(max_codepoint=0x1F600), max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(report_values)
def test_format_json_matches_json_dumps(data):
    assert format_json(data) == json.dumps(data, sort_keys=True, indent=2)


def test_format_json_nested_int_lists():
    # The same ints at two depths, and bools equal to the ints they follow,
    # in lists and tuples of int lists and tuples (edge lists), empty ones
    # and equal lists and tuples among them.
    data = {"a": [1, 2], "b": [[1, 2], [True, 2], [1, 2]], "c": [[[1, 2]]], "d": [[False], [0]],
            "e": [(1, 2), (0, 3), (1, 2), ()], "f": [[(1, 2)], [(1, 2), (True, 2)]],
            "g": [(0,), (False,)], "h": [(1, 2), [1, 2]], "i": ([1], (2, 3), []),
            "j": [[], ()], "k": ((0, 1), ("0", 1))}
    assert format_json(data) == json.dumps(data, sort_keys=True, indent=2)


def test_format_json_long_edge_list():
    # A design's edges are all distinct, with repeats and an empty edge list
    # beside them.
    edges = [(i, i + 1) for i in range(1524)]
    data = {"edges": edges + edges[:3] + edges[-3:], "graphs": [{"edges": edges[:5] + [()]}]}
    assert format_json(data) == json.dumps(data, sort_keys=True, indent=2)


def test_enumeration_report_matches_format_json():
    # The report written from the keys against the generic writer over each
    # key's JSON graph; n = 8 is covered by its SHA-256 pin.
    for n in range(0, 8):
        keys = enumerate_keys(n)
        data = {"n": n, "count": len(keys), "graphs": [key_to_json_dict(k) for k in keys]}
        assert _enumeration_report(n, keys) == format_json(data) + "\n"


@pytest.mark.parametrize("data", [
    0.5,
    {"value": 1.0},
    [[1, 2], [1, 2.0]],
    {1: "a"},
    {"a": {None: 1}},
    {"a": {1, 2}},
    frozenset(),
    {"a": b"bytes"},
])
def test_format_json_refuses_what_reports_never_hold(data):
    with pytest.raises(TypeError):
        format_json(data)


# SHA-256 of the `hsnet design` JSON report for each argument list; report
# bytes are part of the contract and must not change.
DESIGN_REPORT_SHA256 = {
    "--n 30 --family power --gamma 2 --beta 50":  # cycle
        "27507ad8a59cf11323cd582c70159806dad40ac1affdff3a1a0d8f74354ef70f",
    "--n 60 --family linear --beta 1":  # maximal_cp_even
        "c483bb33886192763efe4ce9364b3532ab0ef893499a6db2a0b88c0732ee7142",
    "--n 61 --family ratio_power --gamma 2 --beta 1":  # maximal_cp_odd
        "35add0d14dda325339d06358a0e297de08ed70246fc06581be1d5cbd8db5a2a9",
    "--n 11 --family linear --beta 50":  # maximal_cp_even, s = 1
        "8ce6ff497ffd42b0cfa5e27c699de054970bf8ce4b60248408b15081ce644423",
    "--n 6 --family linear --beta 1000":  # all_singletons, s = 6
        "49432a14c836f9bd2d63c9fa8ddb0883701cb31fe729e640f9a7e64095303837",
    "--n 31 --family power --gamma 3/2 --beta 5":  # cycle, float-backed
        "8a04a3fc00e2fff342fae76e482feb859b44e5181e1d0503343ed1969385107a",
    # Taken before the isolated-node scan ran on integers, at the
    # benchmark's sizes and beyond.
    "--n 255 --family ratio_power --gamma 2 --beta 1":  # maximal_cp_odd
        "095164ee5dc3fe47d605345f1e440204e146f4e861475f0435c3a6a38f6c3046",
    "--n 388 --family linear --beta 1/2":  # maximal_cp_even
        "5eb25546b5f38dfa4d464ce31a2d52aab0170994c5b1d9bb8ff77864c8ef16d8",
    "--n 256 --family power --gamma 3/2 --beta 1":  # cycle, float-backed
        "0147a50f583c701802e435ce47c411e6b55b4e172f516d5698f5d6be2bacd560",
    "--n 2001 --family ratio_power --gamma 3 --beta 1/2":
        "d3924fbda4ed15b45983914690ab9974ac08ad00764a660a0ca4307a98775dd1",
}


@pytest.mark.parametrize("args", sorted(DESIGN_REPORT_SHA256))
def test_design_report_bytes_pinned(tmp_path, args):
    out = tmp_path / "design.json"
    assert run(["design"] + args.split() + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DESIGN_REPORT_SHA256[args]


# SHA-256 of `hsnet value-table --n 4 --n-max 24` stdout per utility, taken
# before the closed forms were computed by the integer kernel.
VALUE_TABLE_SHA256 = {
    "--family linear --beta 2":
        "34a8e03f3cc9fc9cc903317b93f5174654b4722a7ad8dbb7034904cb15207328",
    "--family power --gamma 2 --beta 1/2":
        "9018b1d9d1995f919e5c67050285ad64e62014002270b9b9fa2b968a012c268b",
    "--family ratio_power --gamma 2 --beta 1":
        "4dcf777a0f75401e5ebbd1da583fbda0dc2e515039abfabf0dd838072216ac65",
}


@pytest.mark.parametrize("args", sorted(VALUE_TABLE_SHA256))
def test_value_table_bytes_pinned(capsys, args):
    assert run(["value-table", "--n", "4", "--n-max", "24"] + args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VALUE_TABLE_SHA256[args]


# SHA-256 of `hsnet value-table --n 1 --n-max 24` stdout, taken before the
# rows were read from one integer table per (n, s): the s = n rows of n < 4,
# a float-backed family (written by format_float) and a table utility.
VALUE_TABLE_FROM_1_SHA256 = {
    "--family power --gamma 3/2 --beta 1/2":
        "2adc816aedefdf8d17e6b1ff4b4d7c0219b576efd3e1e69f5cb4890d6a4d9d8b",
    "--family table --beta 3/2 --table "
    "0,1,5/2,4,11/2,7,9,12,15,37/2,22,26,30,34,39,44,49,55,61,67,74,81,88,96,104":
        "de6214e4c73482085786d8a7383405356d9aa3d4f6a55d0969eea5d02c92538e",
}


@pytest.mark.parametrize("args", sorted(VALUE_TABLE_FROM_1_SHA256))
def test_value_table_bytes_from_n1_pinned(capsys, args):
    assert run(["value-table", "--n", "1", "--n-max", "24"] + args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VALUE_TABLE_FROM_1_SHA256[args]


# SHA-256 of `hsnet verify --n-max 6` stdout, taken before the optimal-mass
# probe was posed by LP duality; it feeds `hider_avoids_busy_nodes`, so the
# report must not move.  Exit code 1 is the documented n = 4 ties.  The
# bytes are the same with one worker process and with two.
VERIFY_N6_SHA256 = "1d7aeaf727e41a6c918b8e1c0c4e34076f2df5c0707bcfacf7bc87fba7a55757"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_report_bytes_pinned(monkeypatch, capsys, threads):
    monkeypatch.setenv("HSNET_THREADS", threads)
    assert run(["verify", "--n-max", "6"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N6_SHA256


# SHA-256 of the `hsnet verify --n-max 6 --csv` file, CRLF rows as
# `csv.writer` writes them, taken before every file went through one writer.
VERIFY_N6_CSV_SHA256 = "4f2f4c49c54e6120d973f597c5d878e027cb10d5d3261c5be4a8acda6dbd76dd"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_verify_csv_bytes_pinned(monkeypatch, tmp_path, threads):
    monkeypatch.setenv("HSNET_THREADS", threads)
    csv_path = tmp_path / "verify.csv"
    assert run(["verify", "--n-max", "6", "--output", str(tmp_path / "verify.json"),
                "--csv", str(csv_path)]) == 1
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == VERIFY_N6_CSV_SHA256


# SHA-256 of `hsnet solve` stdout on seeded G(n, 1/4) graphs, taken before
# the simplex pivoted on an integer tableau.  The strategies reported are the
# solver's own vertex, so any change in a pivot choice moves a pin.
SOLVE_REPORT_SHA256 = {
    (1, 12, "--family linear --beta 2"):
        "844b7965f13315b8fd2dec7e8c43d048e81c256681d412a7e9c768dc0c16a18c",
    (2, 13, "--family power --gamma 2 --beta 1/2"):
        "79cc63bd5658eca3a3185bca1050c2769e0f9fe84493364eda97a04c2d20cd4c",
    (3, 14, "--family power --gamma 3/2 --beta 1"):  # float-backed
        "06638562c9949815a2eaf476f7f943e01ed73bc01d261b62f2f31d49abb6f816",
    (4, 15, "--family ratio_power --gamma 2 --beta 5"):
        "aadd474f5b7ee0bf791262f61b1a2f9bfac1d011a8e021aaa0854307581d5bd4",
    (5, 16, "--family power --gamma 3/2 --beta 0"):  # float-backed
        "fa9c6eecb9f6152edc3b8e1c3f7bb240d635cea58659e4ba2e63cbe94aa59fc8",
    (6, 16, "--family linear --beta 1/2"):
        "a13b72440af188f1f3f0080d49aa752d5f52104e0e270849819dfb1aaafcd0b1",
    # At the size of the benchmark's solve workload.  The float-backed games
    # hold 53-bit entries; the n = 24 one and the three exact ones have two
    # distinct payoffs (every uncaught hider sits in the one component left).
    (7, 22, "--family power --gamma 3/2 --beta 1/2"):  # float-backed
        "622499b65cdc022156669a6325ef7aa5e264482f3867404c1d091e6c32f4d2b0",
    (8, 24, "--family power --gamma 3/2 --beta 2"):  # float-backed
        "c92dab3c938e54b8f0b56dda49c4b55a53fa9165215fbc0c843b689e296a6f7a",
    (9, 22, "--family linear --beta 1"):
        "6f19e377925af1f24157ff45d6aaa4ee86dc4bec05e70f93e23e403dbe2c50f9",
    (10, 24, "--family ratio_power --gamma 2 --beta 5"):
        "90277bd5e8c65823453b2ed851f8b3785ad67fbdf67dfe83562645e44d70bb9e",
    (11, 24, "--family power --gamma 2 --beta 1/2"):
        "39d42d47d54f94410743ffda26e3b2a7fd2cf7a35bc23482b476e0c12c476fb1",
}


@pytest.mark.parametrize("seed, n, args", sorted(SOLVE_REPORT_SHA256))
def test_solve_report_bytes_pinned(tmp_path, capsys, seed, n, args):
    rng = random.Random(seed)
    edges = [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": n, "edges": edges}))
    assert run(["solve", "--graph", str(graph)] + args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_REPORT_SHA256[seed, n, args]


def test_design_report(tmp_path):
    out = tmp_path / "design.json"
    dot = tmp_path / "design.dot"
    code = run(
        ["design", "--n", "8", "--family", "linear", "--beta", "2",
         "--output", str(out), "--dot", str(dot)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    jsonschema.validate(data, schema("design.schema.json"))
    assert data["topology"] == "maximal_cp_even"
    assert data["predicted_value"] == "4/1"
    assert "periphery" in dot.read_text()


def test_design_cycle_and_singletons(tmp_path):
    out = tmp_path / "d.json"
    assert run(["design", "--n", "12", "--family", "power", "--gamma", "2",
                "--beta", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["topology"] == "cycle"
    assert run(["design", "--n", "6", "--family", "linear", "--beta", "1000",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["topology"] == "all_singletons"


def test_design_inline_utility_json(tmp_path):
    out = tmp_path / "d.json"
    spec = json.dumps({"family": "ratio_power", "params": {"gamma": "2"}, "beta": "1/2"})
    assert run(["design", "--n", "8", "--utility", spec, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["utility"]["family"] == "ratio_power"


def test_value_table(tmp_path):
    out = tmp_path / "table.csv"
    code = run(["value-table", "--n", "8", "--family", "linear", "--beta", "2",
                "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,s,m,T,A,B,rho,lambda_S,Q,Qbar"
    rows = [line.split(",") for line in lines[1:]]
    ss = {int(r[1]) for r in rows}
    assert ss == {0, 1, 2, 3, 4, 8}  # s in {n-3, n-2, n-1} absent
    # threshold column is constant in m within an (n, s) block
    for s in (0, 1):
        ts = {r[3] for r in rows if int(r[1]) == s}
        assert len(ts) == 1


def test_value_table_range(tmp_path):
    out = tmp_path / "table.csv"
    assert run(["value-table", "--n", "4", "--n-max", "5", "--family", "linear",
                "--output", str(out)]) == 0
    ns = {line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]}
    assert ns == {"4", "5"}


def test_verify_passing_cell(tmp_path):
    out = tmp_path / "verify.json"
    csv_path = tmp_path / "verify.csv"
    code = run(["verify", "--n-max", "4", "--families", "linear", "--betas", "2",
                "--output", str(out), "--csv", str(csv_path)])
    assert code == 0
    data = json.loads(out.read_text())
    jsonschema.validate(data, schema("verify.schema.json"))
    assert data["all_passed"]
    assert csv_path.read_text().startswith("n,family,beta")


def test_verify_csv_into_missing_directory_writes_no_report(tmp_path, capsys):
    # The CSV is written before the report, so a path that cannot be written
    # stops the command with nothing on stdout.
    csv_path = tmp_path / "missing" / "v.csv"
    assert run(["verify", "--n-max", "4", "--csv", str(csv_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(csv_path) in err


def test_verify_mutation_self_test(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--n-max", "4", "--families", "linear", "--betas", "2",
                "--mutate", "--output", str(out)])
    assert code == 1
    assert not json.loads(out.read_text())["all_passed"]


def test_verify_reports_boundary_tie(tmp_path):
    # the 4-node boundary: disjoint edges tie the optimal design, so the
    # small-component check legitimately fails and the exit code says so
    out = tmp_path / "verify.json"
    code = run(["verify", "--n-max", "4", "--families", "linear", "--betas", "0",
                "--output", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    cell = data["cells"][0]
    assert cell["value_match"]
    failed = {c["name"] for c in cell["checks"] if not c["passed"]}
    assert "no_small_components" in failed


def test_verify_rejects_tiny_boards(tmp_path):
    assert run(["verify", "--n-max", "3"]) == 2


@pytest.mark.parametrize("grid", [
    ["--families", "linear", "--betas", "1,2/2"],  # equal as rationals
    ["--families", "linear,power,linear", "--betas", "2"],
])
def test_verify_rejects_repeated_grid_entries(grid):
    proc = run_child(["-m", "hsnet.cli", "verify", "--n-max", "4"] + grid)
    assert proc.returncode == 2
    assert "twice" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_rejects_bad_thread_count(monkeypatch, capsys):
    # Read as --n is: an underscore or another script's digits is refused.
    for raw in ("many", "1_0", "\u0662", "2 2"):
        monkeypatch.setenv("HSNET_THREADS", raw)
        assert run(["verify", "--n-max", "4"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: HSNET_THREADS must be an integer >= 1, got {raw!r}\n"


def test_enumerate(tmp_path):
    out = tmp_path / "enum.json"
    assert run(["enumerate", "--n", "4", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    jsonschema.validate(data, schema("enumerate.schema.json"))
    assert data["count"] == 11
    assert len(data["graphs"]) == 11
    assert run(["enumerate", "--n", "9", "--output", str(out)]) == 2


def test_export_roundtrip(tmp_path, c4_file):
    out = tmp_path / "g.dot"
    assert run(["export", "--graph", str(c4_file), "--format", "dot",
                "--output", str(out)]) == 0
    assert "0 -- 1;" in out.read_text()
    out = tmp_path / "g.json"
    assert run(["export", "--graph", str(c4_file), "--format", "json",
                "--output", str(out)]) == 0
    out2 = tmp_path / "g.txt"
    assert run(["export", "--graph", str(out), "--format", "text",
                "--output", str(out2)]) == 0
    assert parse_graph_text(out2.read_text()) == build_cycle(4)


def test_byte_identical_reports(tmp_path, c4_file):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        run(["solve", "--graph", str(c4_file), "--family", "power", "--beta", "1/2",
             "--output", str(target)])
    assert a.read_bytes() == b.read_bytes()


def test_inexact_utility_flagged(tmp_path, c4_file):
    out = tmp_path / "sol.json"
    code = run(["solve", "--graph", str(c4_file), "--family", "power",
                "--gamma", "3/2", "--beta", "1", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data.get("float") is True
    assert "/" not in data["value"] or "." in data["value"]


def test_missing_table_values():
    assert run(["solve", "--graph", "/nonexistent", "--family", "table"]) == 2
