"""Per-layer spans for one ``hsnet`` CLI command, recorded from outside.

Run as a script, this module stands in for ``python3 -m hsnet.cli``:

    python3 perfbench/tracing.py STATS.json <hsnet arguments>

It imports every ``hsnet`` module, replaces each function named in SPANS
with a timing wrapper at every module attribute that holds it (so both
``hsnet.payoff.residual_component_sizes`` and the ``hsnet.oracle`` import of
it are wrapped), runs ``hsnet.cli.main`` and writes the counts and times to
STATS.json.  A name missing from the code is listed as absent and skipped;
no file under ``src/`` is touched.

Imported as a module it only provides ``layer_metrics``, which turns the
stats of one pass of commands into the ``<module>.<function>.<stat>``
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import sys
import time

# (module, function) wrapped in a span; the module is the layer.
SPANS = (
    ("graphs", "canonical_form"),
    ("oracle", "enumerate_graphs"),
    ("oracle", "exhaustive_optimum"),
    ("oracle", "check_structure"),
    ("oracle", "_matrix_rows"),
    ("payoff", "payoff_matrix"),
    ("payoff", "residual_component_sizes"),
    ("payoff", "capture_set"),
    ("simplex", "solve_lp"),
    ("matrix_game", "game_value"),
    ("matrix_game", "solve_zero_sum"),
    ("matrix_game", "max_optimal_mass"),
    ("matrix_game", "best_response_gap"),
    ("matrix_game", "strategy_payoff"),
    ("closed_form", "optimal_singleton_counts"),
    ("closed_form", "topology_threshold"),
    ("designer", "design_optimal"),
    ("designer", "seeker_strategy"),
    ("designer", "hider_strategy"),
    ("rationals", "format_rational"),
    ("cli", "main"),
)
LAYERS = tuple(dict.fromkeys(module for module, _ in SPANS))
TIMED = ("graphs.canonical_form", "simplex.solve_lp")  # keep every duration
CACHED = ("closed_form.topology_threshold",)  # report cache_info() hit ratio


class Span:
    __slots__ = ("calls", "self_s", "errors", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.durations = []


class Recorder:
    """Spans, counts and hook failures of one traced process."""

    def __init__(self):
        self.spans = {}
        self.stack = []  # child time accumulated by each open span
        self.parents = []  # names of the open spans
        self.absent = []
        self.hook_errors = {}
        self.counts = {
            "matrix_cells": 0,
            "tableau_cells": 0,
            "solution_bits_max": 0,
            "lp_in_zero_sum": 0,
        }
        self.canonical_keys = set()
        self.cached = {}

    def wrap(self, name, fn, hook):
        span = self.spans[name] = Span()
        stack, parents = self.stack, self.parents
        keep = span.durations if name in TIMED else None
        signature = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            parents.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                took = clock() - start
                stack.pop()
                parents.pop()
                span.calls += 1
                span.self_s += took - child[0]
                if stack:
                    stack[-1][0] += took
                if keep is not None:
                    keep.append(took)
            if hook is not None:
                try:
                    hook(self, signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.hook_errors[name] = repr(exc)
            return result

        return wrapper

    def install(self, modules):
        for module, function in SPANS:
            name = f"{module}.{function}"
            owner = modules.get(module)
            fn = getattr(owner, function, None) if owner else None
            if not callable(fn):
                self.absent.append(name)
                continue
            if name in CACHED and hasattr(fn, "cache_info"):
                self.cached[name] = fn
            wrapper = self.wrap(name, fn, HOOKS.get(name))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def to_json(self):
        return {
            "spans": {
                name: {
                    "calls": s.calls,
                    "self_s": s.self_s,
                    "errors": s.errors,
                    "durations": s.durations,
                }
                for name, s in self.spans.items()
            },
            "absent": self.absent,
            "hook_errors": self.hook_errors,
            "counts": dict(self.counts, canonical_keys=len(self.canonical_keys)),
            "cache": {
                name: list(fn.cache_info()[:2]) for name, fn in self.cached.items()
            },
        }


def _bits(value):
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _count_matrix(rec, arguments, result):
    graph = next(iter(arguments.values()))
    rec.counts["matrix_cells"] += graph.node_count ** 2


def _count_lp(rec, arguments, result):
    rec.counts["tableau_cells"] += len(arguments["rows"]) * len(arguments["c"])
    x, objective = result
    bits = max([_bits(objective)] + [_bits(v) for v in x])
    rec.counts["solution_bits_max"] = max(rec.counts["solution_bits_max"], bits)
    if rec.parents and rec.parents[-1] == "matrix_game.solve_zero_sum":
        rec.counts["lp_in_zero_sum"] += 1


def _count_key(rec, arguments, result):
    rec.canonical_keys.add(result)


HOOKS = {
    "payoff.payoff_matrix": _count_matrix,
    "oracle._matrix_rows": _count_matrix,
    "simplex.solve_lp": _count_lp,
    "graphs.canonical_form": _count_key,
}
# The metrics each hook feeds; a hook that no longer fits its function
# (a changed signature or result) marks them absent.
HOOK_METRICS = {
    "payoff.payoff_matrix": ("payoff.matrix_cells",),
    "oracle._matrix_rows": ("payoff.matrix_cells",),
    "simplex.solve_lp": (
        "simplex.tableau_cells", "simplex.solution_bits_max",
        "matrix_game.lp_per_game",
    ),
    "graphs.canonical_form": ("oracle.enumerate.yield",),
}


def _load_hsnet():
    """Every module of the hsnet package, by short name."""
    package = importlib.import_module("hsnet")
    modules = {}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"hsnet.{info.name}")
    return package, modules


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    package, modules = _load_hsnet()
    rec = Recorder()
    rec.install(dict(modules, **{"": package}))
    code = 1
    try:
        code = modules["cli"].main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.to_json(), fh)
    return code


# -- per-layer metrics (parent side) ------------------------------------------

# name -> unit; the order is the report order.
LAYER_METRICS = {
    "graphs.canonical_form.calls": "count",
    "graphs.canonical_form.self_s": "s",
    "graphs.canonical_form.us_p50": "us",
    "oracle.enumerate.yield": "1",
    "oracle.enumerate_graphs.self_s": "s",
    "oracle.exhaustive_optimum.self_s": "s",
    "oracle.check_structure.calls": "count",
    "oracle.check_structure.self_s": "s",
    "oracle._matrix_rows.calls": "count",
    "oracle._matrix_rows.self_s": "s",
    "payoff.payoff_matrix.calls": "count",
    "payoff.payoff_matrix.self_s": "s",
    "payoff.residual_component_sizes.calls": "count",
    "payoff.residual_component_sizes.self_s": "s",
    "payoff.capture_set.calls": "count",
    "payoff.matrix_cells": "count",
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.self_s": "s",
    "simplex.solve_lp.ms_p50": "ms",
    "simplex.tableau_cells": "count",
    "simplex.solution_bits_max": "bits",
    "matrix_game.game_value.calls": "count",
    "matrix_game.game_value.self_s": "s",
    "matrix_game.solve_zero_sum.calls": "count",
    "matrix_game.solve_zero_sum.self_s": "s",
    "matrix_game.lp_per_game": "1",
    "matrix_game.max_optimal_mass.calls": "count",
    "matrix_game.max_optimal_mass.self_s": "s",
    "matrix_game.best_response_gap.calls": "count",
    "matrix_game.best_response_gap.self_s": "s",
    "matrix_game.strategy_payoff.calls": "count",
    "matrix_game.strategy_payoff.self_s": "s",
    "closed_form.optimal_singleton_counts.calls": "count",
    "closed_form.optimal_singleton_counts.self_s": "s",
    "closed_form.topology_threshold.hit_ratio": "1",
    "designer.design_optimal.self_s": "s",
    "designer.seeker_strategy.self_s": "s",
    "designer.hider_strategy.self_s": "s",
    "rationals.format_rational.calls": "count",
    "rationals.format_rational.self_s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}
# Metrics that must repeat exactly for the same code and seed.
DETERMINISTIC = tuple(
    name for name in LAYER_METRICS
    if name.endswith((".calls", ".errors")) or name in (
        "oracle.enumerate.yield", "payoff.matrix_cells", "simplex.tableau_cells",
        "simplex.solution_bits_max", "matrix_game.lp_per_game",
    )
)


def layer_metrics(stats):
    """Sum the stats of one pass of commands into LAYER_METRICS.

    Returns (metrics, absent): a metric whose span is missing from the code
    (or whose count hook no longer fits it) reads 0 and is named in absent.
    """
    spans, durations, counts, cache = {}, {}, {}, {}
    absent, broken = set(), set()
    for st in stats:
        absent.update(st["absent"])
        broken.update(st["hook_errors"])
        for name, s in st["spans"].items():
            total = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
            for key in total:
                total[key] += s[key]
            durations.setdefault(name, []).extend(s["durations"])
        for key, value in st["counts"].items():
            if key == "solution_bits_max":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        for name, (hits, misses) in st["cache"].items():
            h, m = cache.get(name, (0, 0))
            cache[name] = (h + hits, m + misses)

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def p50(name, scale):
        d = durations.get(name)
        return statistics.median(d) * scale if d else 0.0

    values = {}
    for metric in LAYER_METRICS:
        head, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s"):
            values[metric] = span(head, stat)
        elif stat == "errors":
            values[metric] = sum(
                s["errors"] for n, s in spans.items() if n.split(".")[0] == head
            )
    values["graphs.canonical_form.us_p50"] = p50("graphs.canonical_form", 1e6)
    values["simplex.solve_lp.ms_p50"] = p50("simplex.solve_lp", 1e3)
    values["oracle.enumerate.yield"] = ratio(
        counts.get("canonical_keys", 0), span("graphs.canonical_form", "calls"))
    values["payoff.matrix_cells"] = counts.get("matrix_cells", 0)
    values["simplex.tableau_cells"] = counts.get("tableau_cells", 0)
    values["simplex.solution_bits_max"] = counts.get("solution_bits_max", 0)
    values["matrix_game.lp_per_game"] = ratio(
        counts.get("lp_in_zero_sum", 0), span("matrix_game.solve_zero_sum", "calls"))
    hits, misses = cache.get("closed_form.topology_threshold", (0, 0))
    values["closed_form.topology_threshold.hit_ratio"] = ratio(hits, hits + misses)

    missing = {
        metric for metric in LAYER_METRICS
        if any(metric.startswith(name + ".") for name in absent)
    }
    for name in absent:
        missing.update(HOOK_METRICS.get(name, ()))
    if {"payoff.payoff_matrix", "oracle._matrix_rows"} - absent:
        missing.discard("payoff.matrix_cells")  # the other matrix function still counts
    if "matrix_game.solve_zero_sum" in absent:
        missing.add("matrix_game.lp_per_game")
    for name in broken:
        missing.update(HOOK_METRICS[name])
    return values, sorted(missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
