"""Command-line driver.

Commands: solve a fixed graph, design an optimal network, tabulate the
closed-form bounds, brute-force verify at small n, enumerate graphs up to
isomorphism, and export graphs between formats.  All reports are exact
("p/q" rationals, sorted keys, stable byte-for-byte); floats only appear for
utility families with irrational parameters and are flagged.

Each command imports the modules it uses when it runs, so ``enumerate``
loads only ``hsnet.canonical``, ``design`` no LP or verifier code, and
``solve`` no designer, canonical-labelling or verifier code; and the parser
holds only the subcommand that is run.

Every file is written by ``_write``, side files (``--dot``, ``--csv``) first:
one that cannot be written stops its command before the report.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import io
import sys

from _json import encode_basestring_ascii  # CPython's JSON string escape, without json

from . import parse_int

USAGE_ERROR = 2
CHECK_FAILURE = 1
SOLVE_MAX_NODES = 100  # the largest solve graph: the size its dense LP is measured at
VALUE_TABLE_MAX_NODES = 50  # the largest value-table n: the size its slowest rows are measured at


class CliError(Exception):
    pass


def _int_arg(text: str) -> int:
    """The type of --n and --n-max: ``hsnet.parse_int``, refused in the
    words of argparse's own ``int``."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flag(dest: str) -> str:
    return "--table" if dest == "values" else f"--{dest}"


def _utility_from_args(args):
    """The UtilitySpec of ``--utility`` or of the flags; a flag that would go
    unused (any flag beside ``--utility``, or another family's parameter) is
    refused."""
    from .payoff import UtilitySpec, builtin_utilities, family_parameter
    params = ("slope", "gamma", "values")  # the dests of the parameter flags
    given = [d for d in ("family", "beta") + params if getattr(args, d) is not None]
    if args.utility is not None:
        if given:
            raise CliError(f"--utility takes no other utility flag, got {_flag(given[0])}")
        raw = args.utility
        if raw.startswith("@"):
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        return UtilitySpec.from_json_dict(_read_json(raw, "utility"))
    family = "linear" if args.family is None else args.family
    # Each family's parameter is read from the flag whose dest bears its name.
    key = family_parameter(family)[0]
    for dest in params:
        if dest != key and dest in given:
            raise CliError(f"{_flag(dest)} is not a parameter of the {family} family")
    value = getattr(args, key)
    beta = "0" if args.beta is None else args.beta
    return builtin_utilities(family, {} if value is None else {key: value}, beta)


def _add_utility_args(sub):
    sub.add_argument("--utility", help="utility spec as inline JSON or @file")
    sub.add_argument("--family", help="utility family (see hsnet.payoff); default linear")
    sub.add_argument("--beta", help="capture penalty, 'p/q'; default 0")
    sub.add_argument("--slope", help="slope for the linear family")
    sub.add_argument("--gamma", help="exponent for power families")
    sub.add_argument(
        "--table",
        dest="values",
        type=lambda text: text.split(","),
        help="comma-separated values f(0),f(1),...",
    )


def _numeric_renderer(u):
    """(render, inexact): how a UtilitySpec's values are written in a report."""
    from .rationals import format_float, format_rational
    if u.is_exact:
        return format_rational, False
    return (lambda x: format_float(float(x))), True


def _read_json(text: str, what: str):
    """The JSON value of ``text``, the one JSON reader of the inputs.  Text
    that is not JSON, nests too deeply to read, or repeats a key in an object
    is a CliError under ``invalid <what> JSON: ``."""
    import json

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise CliError(f"invalid {what} JSON: repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid {what} JSON: {exc}") from None
    except RecursionError:
        raise CliError(f"invalid {what} JSON: nested too deeply") from None


def _load_graph(path: str):
    from .graphs import graph_from_json_dict, parse_graph_text
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return graph_from_json_dict(_read_json(text, "graph"))
    return parse_graph_text(text)


def _write(path: str, text: str):
    """The one file writer; it translates no newline, so CSV rows keep CRLF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(args, payload: str):
    out = getattr(args, "output", None)
    if out:
        _write(out, payload)
    else:
        sys.stdout.write(payload)


def _csv_text(rows) -> str:
    """The rows as ``csv.writer`` writes them."""
    import csv
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def format_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2)``, byte for byte.

    Reports are exact, so only dicts with str keys, lists, tuples, str, int,
    bool and None are taken; anything else, a float or a non-str key
    included, is a TypeError.  The stdlib encoder runs in pure Python whenever
    ``indent`` is set; this one renders a list or tuple of ints or of strings
    (a design's strategies, or one edge) with no call per item.
    """

    def render(obj, pad):
        kind = type(obj)
        if kind is str:
            return encode_basestring_ascii(obj)
        if kind is int:
            return repr(obj)
        if obj is None:
            return "null"
        if kind is bool:
            return "true" if obj else "false"
        inner = pad + "  "
        if kind is list or kind is tuple:
            if not obj:
                return "[]"
            kinds = set(map(type, obj))
            if kinds == {int}:
                items = map(repr, obj)
            elif kinds == {str}:
                items = map(encode_basestring_ascii, obj)
            else:
                items = [render(v, inner) for v in obj]
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
        if kind is dict:
            if not obj:
                return "{}"
            items = [encode_basestring_ascii(k) + ": " + render(obj[k], inner) for k in sorted(obj)]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        raise TypeError(f"{kind.__name__} is not allowed in a report")

    return render(data, "")


def _emit_json(args, data: dict):
    _emit(args, format_json(data) + "\n")


# -- commands ----------------------------------------------------------------


def cmd_solve(args) -> int:
    from .matrix_game import capture_probability, integer_payoffs, solve_zero_sum
    g = _load_graph(args.graph)
    if g.node_count > SOLVE_MAX_NODES:
        raise CliError(f"solve takes at most {SOLVE_MAX_NODES} nodes, got {g.node_count}")
    u = _utility_from_args(args)
    if g.node_count < 1:
        raise CliError("cannot solve a game on an empty graph")
    rows, den = integer_payoffs(g, u)
    sol = solve_zero_sum(rows)
    cap = capture_probability(g, sol.row_strategy, sol.col_strategy)
    num, inexact = _numeric_renderer(u)
    data = {
        "n": g.node_count,
        "value": num(sol.value / den),
        "hider_strategy": [num(p) for p in sol.row_strategy],
        "seeker_strategy": [num(p) for p in sol.col_strategy],
        "capture_probability": num(cap),
        "utility": u.to_json_dict(),
    }
    if inexact:
        data["float"] = True
    _emit_json(args, data)
    return 0


def cmd_design(args) -> int:
    from .graphs import GRAPH_MAX_NODES
    if not 4 <= args.n <= GRAPH_MAX_NODES:
        raise CliError(f"--n must be between 4 and {GRAPH_MAX_NODES}, got {args.n}")
    from .designer import design_optimal
    u = _utility_from_args(args)
    result = design_optimal(args.n, u)
    num, inexact = _numeric_renderer(u)
    data = result.to_json_dict()
    data["utility"] = u.to_json_dict()
    if inexact:
        data["float"] = True
        data["predicted_value"] = num(result.predicted_value)
        data["hider_strategy"] = [num(p) for p in result.hider]
        data["seeker_strategy"] = [num(p) for p in result.seeker]
    if args.dot:
        _write(args.dot, result.to_dot())
    _emit_json(args, data)
    return 0


def cmd_value_table(args) -> int:
    n_lo = args.n
    n_hi = args.n_max if args.n_max is not None else args.n
    if max(n_lo, n_hi) > VALUE_TABLE_MAX_NODES:
        raise CliError(f"value-table takes n up to {VALUE_TABLE_MAX_NODES}, got {max(n_lo, n_hi)}")
    from .closed_form import value_table_rows
    u = _utility_from_args(args)
    if n_lo < 1 or n_hi < n_lo:
        raise CliError("need 1 <= n <= n-max")
    # f at every size the rows read, smallest first: a size that overflows
    # a float, or that a table lacks, is refused before any row is built.
    for x in range(1, n_hi + 1):
        u.value(x)
    num, _ = _numeric_renderer(u)

    def cell(x):
        return "" if x is None else num(x)

    rows = [["n", "s", "m", "T", "A", "B", "rho", "lambda_S", "Q", "Qbar"]]
    for n in range(n_lo, n_hi + 1):
        rows += [[r.n, r.s, r.m, *map(cell, (
            r.threshold, r.component, r.singleton, r.residual_weight,
            r.singleton_weight, r.bound, r.best_bound))] for r in value_table_rows(n, u)]
    _emit(args, _csv_text(rows))
    return 0


def cmd_verify(args) -> int:
    from .oracle import DEFAULT_BETAS, DEFAULT_FAMILIES, verify_grid
    families, betas = DEFAULT_FAMILIES, DEFAULT_BETAS
    if args.families is not None:
        families = tuple(f.strip() for f in args.families.split(","))
    if args.betas is not None:
        betas = tuple(b.strip() for b in args.betas.split(","))
    cells, all_passed = verify_grid(
        args.n_max,
        families=families,
        betas=betas,
        long_run=args.long,
        mutate=args.mutate,
    )
    if args.csv:
        _write(args.csv, _csv_text([
            ["n", "family", "beta", "graphs", "best_value",
             "closed_form_value", "value_match", "checks_passed", "cell_passed"],
        ] + [
            [c["n"], c["utility"]["family"], c["utility"]["beta"], c["graph_count"],
             c["best_value"], c["closed_form_value"], c["value_match"],
             all(check["passed"] for check in c["checks"]), c["cell_passed"]]
            for c in cells
        ]))
    _emit_json(args, {"n_max": args.n_max, "all_passed": all_passed, "cells": cells})
    return 0 if all_passed else CHECK_FAILURE


def cmd_enumerate(args) -> int:
    from .canonical import enumerate_keys
    keys = enumerate_keys(args.n)
    if args.count_only:
        _emit_json(args, {"n": args.n, "count": len(keys)})
    else:
        _emit(args, _enumeration_report(args.n, keys))
    return 0


def _enumeration_report(n: int, keys) -> str:
    """``format_json`` of the report ``{"n", "count", "graphs"}`` on the
    sorted canonical keys of the graphs on n nodes, written straight from
    the keys: each edge list joins the texts of the pairs its bits hold."""
    from .canonical import key_pairs
    pad = " " * 8
    pairs = [(offset, f"[\n{pad}  {i},\n{pad}  {j}\n{pad}]") for offset, (i, j) in key_pairs(n)]
    head, tail = '    {\n      "edges": ', f',\n      "n": {n}\n    }}'
    graphs = []
    for _, bits in keys:
        edges = (",\n" + pad).join([text for offset, text in pairs if bits >> offset & 1])
        graphs.append(head + ("[\n" + pad + edges + "\n      ]" if edges else "[]") + tail)
    return (f'{{\n  "count": {len(keys)},\n  "graphs": [\n'
            + ",\n".join(graphs) + f'\n  ],\n  "n": {n}\n}}\n')


def cmd_export(args) -> int:
    from .graphs import format_graph_text, graph_to_json_dict, to_dot
    g = _load_graph(args.graph)
    if args.format == "dot":
        _emit(args, to_dot(g))
    elif args.format == "json":
        _emit_json(args, graph_to_json_dict(g))
    else:
        _emit(args, format_graph_text(g))
    return 0


# Each command's help line and handler, in the order ``hsnet --help`` lists them.
COMMANDS = {
    "solve": ("solve the game on a fixed graph", cmd_solve),
    "design": ("construct an optimal network for n nodes", cmd_design),
    "value-table": ("CSV of the closed-form bounds", cmd_value_table),
    "verify": ("brute-force check of the design claims", cmd_verify),
    "enumerate": ("all graphs on n nodes up to isomorphism", cmd_enumerate),
    "export": ("convert a graph file between formats", cmd_export),
}


def _add_arguments(name: str, p: argparse.ArgumentParser):
    if name == "solve":
        p.add_argument("--graph", required=True, help="graph file (text or JSON)")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        _add_utility_args(p)
    elif name == "design":
        p.add_argument("--n", type=_int_arg, required=True)
        p.add_argument("--output")
        p.add_argument("--dot", help="also write a DOT rendering with node roles")
        _add_utility_args(p)
    elif name == "value-table":
        p.add_argument("--n", type=_int_arg, required=True)
        p.add_argument("--n-max", type=_int_arg, default=None)
        p.add_argument("--output")
        _add_utility_args(p)
    elif name == "verify":
        p.add_argument("--n-max", type=_int_arg, default=5)
        p.add_argument("--families")
        p.add_argument("--betas")
        p.add_argument("--long", action="store_true", help="allow the n=8 sweep")
        p.add_argument("--mutate", action="store_true",
                       help="self-test: inject a wrong expected value; the run must fail")
        p.add_argument("--output")
        p.add_argument("--csv", help="also write a one-line-per-cell summary CSV")
    elif name == "enumerate":
        p.add_argument("--n", type=_int_arg, required=True)
        p.add_argument("--count-only", action="store_true")
        p.add_argument("--output")
    else:
        p.add_argument("--graph", required=True)
        p.add_argument("--format", choices=["dot", "json", "text"], default="dot")
        p.add_argument("--output")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The hsnet parser.  When ``argv`` starts with a command, only that
    command's subparser is built, under a usage line that still lists all
    of them, so every help, usage and error text is the full parser's."""
    parser = argparse.ArgumentParser(
        prog="hsnet",
        description="Exact analysis of the hide-and-seek network design game.",
    )
    names, metavar = list(COMMANDS), None
    if argv and argv[0] in COMMANDS:
        names, metavar = argv[:1], "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        _add_arguments(name, p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
