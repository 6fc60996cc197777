"""The four benchmark workloads: inputs drawn from a seed, and output checks.

A workload turns a seed into a *pass*: a fixed list of ``hsnet`` commands,
each with the input files it reads and a check of its output.  The run
repeats the pass, so the seed decides what is run and the clock only decides
how often.  Every draw is made so that a pass costs about the same for every
seed (fixed size ladders, narrow jitter), which keeps run-to-run spread down
to the speed of the machine.

Outputs are checked against ``reference.json`` (written by
``make_reference.py``) and, where answers are not unique, by properties the
benchmark computes itself:

* ``enumerate`` and ``verify``'s ``argmax_graphs`` are compared up to
  isomorphism (class count, multiset of an isomorphism invariant, and no
  two listed graphs isomorphic), so a new canonical labelling passes;
* ``design`` reports are compared byte for byte (SHA-256);
* ``solve`` values must equal the reference, and the reported strategies
  must have a zero best-response gap on a payoff matrix built here from the
  graph file, since optimal strategies are not unique.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

# OEIS A000088: graphs on n unlabelled nodes.
GRAPH_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)

SWEEP_FAMILIES = ("linear", "power")
SWEEP_MANY = "1/2"  # power, beta=1/2: 374 of 1044 graphs survive an upper bound
SWEEP_FEW = ("0", "2", "50")  # linear 0, linear 2, power 50: 56 of 1044 survive

# (centre, family, gamma, beta, topology); N = centre + 2j (+1 for odd cp).
# Six slots sit near N = 255, so that the median command is always one of
# several comparable ones; one small and one large slot span 200-400.
DESIGN_SLOTS = (
    (214, "linear", None, "0", "cp"),
    (250, "power", "2", "5", "cycle"),
    (252, "ratio_power", "2", "1", "cp"),
    (254, "linear", None, "2", "cp"),
    (256, "power", "3/2", "1", "cycle"),
    (258, "linear", None, "1/2", "cp"),
    (260, "power", "2", "50", "cycle"),
    (388, "linear", None, "1/2", "cp"),
)
DESIGN_JITTER = range(-4, 5)

# Utilities of the solve workload, and the n of each command per family: the
# middle size is repeated so that the median command always falls among them.
SOLVE_UTILITIES = (
    ("linear", None),
    ("power", "2"),
    ("power", "3/2"),  # float-backed: f(x) = Fraction(float(x) ** 1.5)
    ("ratio_power", "2"),
)
SOLVE_SIZES = (16, 22, 22, 22, 24)
SOLVE_EDGE_P = 0.25
SOLVE_BETAS = ("0", "1/2", "1", "2", "5")


@dataclass
class Command:
    """One CLI invocation: ``hsnet`` arguments, what it counts, its check."""

    args: list
    check: object  # callable(exit_code, stdout_bytes) -> str | None (problem)
    graphs: int  # graphs handled, for graphs_per_s
    games: int  # games solved, for games_per_s (solve only)


# -- isomorphism invariant ----------------------------------------------------


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _colours(adj):
    """Colour refinement started from (degree, triangles at the node)."""
    colour = [
        repr((len(a), sum(1 for x in a for y in a if x < y and y in adj[x])))
        for a in adj
    ]
    for _ in range(3):
        colour = [
            hashlib.sha1(
                repr((colour[v], sorted(colour[w] for w in adj[v]))).encode()
            ).hexdigest()[:16]
            for v in range(len(adj))
        ]
    return colour


def graph_invariant(n, edges) -> str:
    adj = _adjacency(n, edges)
    return hashlib.sha1(
        repr((n, len(edges), sorted(_colours(adj)))).encode()
    ).hexdigest()


def _isomorphic(n, edges_a, edges_b) -> bool:
    adj_a, adj_b = _adjacency(n, edges_a), _adjacency(n, edges_b)
    col_a, col_b = _colours(adj_a), _colours(adj_b)
    order = sorted(range(n), key=lambda v: col_a[v])
    image = {}

    def extend(i):
        if i == n:
            return True
        v = order[i]
        used = set(image.values())
        for w in range(n):
            if w in used or col_b[w] != col_a[v]:
                continue
            if all((u in adj_a[v]) == (image[u] in adj_b[w]) for u in image):
                image[v] = w
                if extend(i + 1):
                    return True
                del image[v]
        return False

    return len(edges_a) == len(edges_b) and extend(0)


def check_graph_list(graphs, n, count, invariants) -> str | None:
    """None when ``graphs`` is exactly one graph per expected class.

    ``invariants`` is the reference list of invariants (sorted).  Graphs that
    share an invariant are tested pairwise for isomorphism, so a duplicated
    class is caught even where the invariant cannot tell two classes apart.
    """
    if len(graphs) != count:
        return f"{len(graphs)} graphs, expected {count}"
    by_invariant = {}
    for g in graphs:
        if not isinstance(g, dict) or g.get("n") != n:
            return f"graph {g!r:.80} is not on {n} nodes"
        edges = [tuple(e) for e in g.get("edges", ())]
        if any(
            len(e) != 2 or not all(isinstance(v, int) for v in e)
            or not 0 <= e[0] < e[1] < n
            for e in edges
        ) or len(set(edges)) != len(edges):
            return f"malformed edge list {edges!r:.80}"
        by_invariant.setdefault(graph_invariant(n, edges), []).append(edges)
    got = sorted(k for k, v in by_invariant.items() for _ in v)
    if got != invariants:
        return "isomorphism-invariant multiset differs from the reference"
    for group in by_invariant.values():
        for a, b in itertools.combinations(group, 2):
            if _isomorphic(n, a, b):
                return f"two listed graphs are isomorphic: {a} and {b}"
    return None


def invariants_of(graphs) -> list:
    return sorted(
        graph_invariant(g["n"], [tuple(e) for e in g["edges"]]) for g in graphs
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- payoff matrix and certificate, independent of hsnet ----------------------


def utility_value(family, gamma, x):
    """f(x) exactly as hsnet defines it (float-backed for non-integer gamma)."""
    if x == 0:
        return Fraction(0)
    if family == "linear":
        return Fraction(x)
    g = Fraction(gamma)
    if family == "power":
        if g.denominator == 1:
            return Fraction(x) ** int(g)
        return Fraction(float(x) ** float(g))
    if family == "ratio_power" and g.denominator == 1:
        return Fraction(x ** int(g), (x + 1) ** (int(g) - 1))
    raise ValueError(f"no reference utility for {family} gamma={gamma}")


def payoff_rows(n, edges, family, gamma, beta):
    """Hider payoffs: row h (hiding node), column k (inspected node)."""
    adj = _adjacency(n, edges)
    rows = [[None] * n for _ in range(n)]
    for k in range(n):
        size = {}
        for start in range(n):
            if start == k or start in size:
                continue
            comp, stack = [start], [start]
            seen = {start}
            while stack:
                for w in adj[stack.pop()]:
                    if w != k and w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            for v in comp:
                size[v] = len(comp)
        for h in range(n):
            caught = h == k or h in adj[k]
            rows[h][k] = -beta if caught else utility_value(family, gamma, size[h])
    return rows


def equilibrium_problem(rows, hider, seeker, value, exact) -> str | None:
    """None when (hider, seeker) is an equilibrium worth ``value``.

    Exact reports must have a gap of exactly zero.  Float-backed reports are
    rounded to 17 digits, so their gap only has to vanish to 1e-9 relative.
    """
    n = len(rows)
    if len(hider) != n or len(seeker) != n:
        return "strategy length differs from n"
    if exact:
        mat, zero, tol = rows, Fraction(0), Fraction(0)
    else:
        mat = [[float(v) for v in r] for r in rows]
        zero = 0.0
        tol = 1e-9 * (1.0 + max(abs(v) for r in mat for v in r))
    if any(p < zero for p in hider + seeker):
        return "negative probability"
    if abs(sum(hider) - 1) > tol or abs(sum(seeker) - 1) > tol:
        return "strategy does not sum to one"
    row_pay = [sum(mat[h][k] * seeker[k] for k in range(n)) for h in range(n)]
    col_pay = [sum(hider[h] * mat[h][k] for h in range(n)) for k in range(n)]
    achieved = sum(hider[h] * row_pay[h] for h in range(n))
    gaps = (max(row_pay) - achieved, achieved - min(col_pay), achieved - value)
    if any(abs(g) > tol for g in gaps):
        return f"best-response gap {gaps} is not zero"
    return None


# -- workloads ----------------------------------------------------------------


def utility_args(family, gamma, beta):
    args = ["--family", family, "--beta", beta]
    return args + ["--gamma", gamma] if gamma is not None else args


def _parse_json(out: bytes):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


def enumerate_pass(seed, ref, workdir):
    """``hsnet enumerate --n 7``: the input is fixed and the seed unused."""
    expected = ref["enumerate"]

    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        data, problem = _parse_json(out)
        if problem:
            return problem
        if data.get("n") != 7 or data.get("count") != GRAPH_CLASSES[7]:
            return f"n/count {data.get('n')}/{data.get('count')}"
        return check_graph_list(
            data.get("graphs", []), 7, GRAPH_CLASSES[7], expected["invariants"]
        )

    return [Command(["enumerate", "--n", "7"], check, GRAPH_CLASSES[7], 0)]


def sweep_betas(seed):
    rng = random.Random(f"sweep:{seed}")
    betas = [SWEEP_MANY, rng.choice(SWEEP_FEW)]
    rng.shuffle(betas)
    return betas


def sweep_cell_key(n, family, beta):
    return f"{n}|{family}|{beta}"


def sweep_pass(seed, ref, workdir):
    """``hsnet verify --n-max 7 --families linear,power --betas <beta>``, one
    command for each beta of the seed-drawn subset.

    One command per beta, rather than one for the whole subset, lets the run
    time the reference workload between them (see run.py).
    """
    return [sweep_command(beta, ref["sweep"]) for beta in sweep_betas(seed)]


def sweep_command(beta, cells):
    keys = [
        sweep_cell_key(n, fam, beta)
        for n in range(4, 8)
        for fam in SWEEP_FAMILIES
    ]
    expected_pass = all(cells[k]["cell_passed"] for k in keys)

    def check(code, out):
        if code != (0 if expected_pass else 1):
            return f"exit code {code}, expected {0 if expected_pass else 1}"
        data, problem = _parse_json(out)
        if problem:
            return problem
        if data.get("n_max") != 7 or data.get("all_passed") != expected_pass:
            return "n_max or all_passed differs from the reference"
        got = data.get("cells", [])
        if len(got) != len(keys):
            return f"{len(got)} cells, expected {len(keys)}"
        for key, cell in zip(keys, got):
            want = dict(cells[key])
            invariants = want.pop("argmax_invariants")
            cell = dict(cell)
            argmax = cell.pop("argmax_graphs", None)
            if cell != want:
                return f"cell {key} differs from the reference"
            n = int(key.split("|")[0])
            problem = check_graph_list(argmax or [], n, len(invariants), invariants)
            if problem:
                return f"cell {key} argmax_graphs: {problem}"
        return None

    args = [
        "verify", "--n-max", "7",
        "--families", ",".join(SWEEP_FAMILIES),
        "--betas", beta,
    ]
    graphs = sum(cells[k]["graph_count"] for k in keys)
    return Command(args, check, graphs, 0)


def design_args(n, family, gamma, beta):
    return ["design", "--n", str(n)] + utility_args(family, gamma, beta)


def design_sizes(centre, topology):
    """Every N a slot can draw: even N, or odd N for half the cp slots."""
    parities = (0, 1) if topology == "cp" else (0,)
    return [centre + 2 * j + p for j in DESIGN_JITTER for p in parities]


def design_pass(seed, ref, workdir):
    """``hsnet design --n N`` for eight N in 200-400, every topology.

    Slot i has a fixed utility and an N near a fixed centre, so a pass costs
    the same for every seed; the seed draws each N's offset, which two of the
    five core-periphery slots get odd N (maximal_cp_odd), and the order.
    """
    rng = random.Random(f"design:{seed}")
    cp_slots = [i for i, s in enumerate(DESIGN_SLOTS) if s[4] == "cp"]
    odd = set(rng.sample(cp_slots, len(cp_slots) // 2))
    commands = []
    for i, (centre, family, gamma, beta, _) in enumerate(DESIGN_SLOTS):
        n = centre + 2 * rng.choice(DESIGN_JITTER) + (i in odd)
        args = design_args(n, family, gamma, beta)
        want = ref["design"][" ".join(args)]

        def check(code, out, want=want):
            if code != 0:
                return f"exit code {code}"
            if digest(out) != want:
                return "report differs from the reference bytes"
            return None

        commands.append(Command(args, check, 1, 0))
    rng.shuffle(commands)
    return commands


def solve_instances():
    """The pass's instances: a G(n, 1/4) graph and a beta, fixed by name."""
    for family, gamma in SOLVE_UTILITIES:
        for k, n in enumerate(SOLVE_SIZES):
            name = f"{family}:{gamma}:{n}:{SOLVE_SIZES[:k].count(n)}"
            rng = random.Random(f"solve:{name}")
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n)
                if rng.random() < SOLVE_EDGE_P
            ]
            yield name, family, gamma, n, edges, rng.choice(SOLVE_BETAS)


def solve_pass(seed, ref, workdir):
    """``hsnet solve`` on G(n, 1/4) graphs, five per utility family.

    The instances are fixed, so the pass costs the same for every seed and
    each has a reference value; the seed relabels the nodes of every graph
    (the value is invariant, the LP's pivot path is not) and sets the order.
    Graph files are written into ``workdir``.
    """
    rng = random.Random(f"solve:{seed}")
    commands = []
    for name, family, gamma, n, edges, beta in solve_instances():
        label = rng.sample(range(n), n)
        edges = sorted(tuple(sorted((label[i], label[j]))) for i, j in edges)
        path = os.path.join(
            workdir, name.replace(":", "_").replace("/", "-") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "edges": edges}, fh)
        args = ["solve", "--graph", path] + utility_args(family, gamma, beta)
        check = solve_check(n, edges, family, gamma, beta, ref["solve"][name])
        commands.append(Command(args, check, 1, 1))
    rng.shuffle(commands)
    return commands


def solve_check(n, edges, family, gamma, beta, want_value):
    exact = family != "power" or Fraction(gamma).denominator == 1

    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        data, problem = _parse_json(out)
        if problem:
            return problem
        if data.get("value") != want_value:
            return f"value {data.get('value')} differs from {want_value}"
        if bool(data.get("float")) == exact or data.get("n") != n:
            return "float flag or n differs"
        read = Fraction if exact else float
        try:
            hider = [read(p) for p in data["hider_strategy"]]
            seeker = [read(p) for p in data["seeker_strategy"]]
        except (KeyError, TypeError, ValueError) as exc:
            return f"unreadable strategies: {exc}"
        rows = payoff_rows(n, edges, family, gamma, Fraction(beta))
        return equilibrium_problem(rows, hider, seeker, read(want_value), exact)

    return check


WORKLOADS = {
    "enumerate": enumerate_pass,
    "sweep": sweep_pass,
    "design": design_pass,
    "solve": solve_pass,
}
