"""Utility specifications and the hider-payoff matrix of a fixed graph.

The hider's payoff against an inspected node k is -beta when caught (hiding
at k or any of its neighbors) and otherwise the component value f applied to
the size of the hider's component once k is deleted.  The game is zero-sum;
only the hider matrix is stored, the seeker's payoffs are its negation.
Every query here reads captures straight off the graph's neighbour tuples,
and component sizes off one low-link DFS; no neighbour bitmask is built.

Component values f are strictly increasing with f(0) = 0.  ``FAMILIES`` is
the one table of the built-in families: each family's parameter name (in JSON
and on the command line), its default and the bound it must exceed.  Every
route to a ``UtilitySpec`` ends in its constructor, which checks all of it.
Families evaluate to exact rationals except powers with non-integer
exponents, which fall back to floats (wrapped exactly, flagged via
``is_exact``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate

from .graphs import Graph, GraphError, _deletion_pieces, _dfs_low_links
from .rationals import format_rational, over_common_denominator, parse_rational
from .records import Record

# family -> (parameter, default, bound the parameter must exceed).  A table's
# parameter is its list of values f(0), f(1), ..., which starts at 0 and
# strictly increases; it has no default and no bound.
FAMILIES = {
    "linear": ("slope", 1, 0),  # f(x) = slope * x
    "power": ("gamma", 2, 0),  # f(x) = x ** gamma
    "ratio_power": ("gamma", 2, 1),  # f(x) = x**gamma / (x+1)**(gamma-1)
    "table": ("values", None, None),  # f(x) = values[x]
}


class UtilityError(ValueError):
    """Invalid utility family, parameters, or non-monotone table."""


def family_parameter(family) -> tuple:
    """(parameter, default, bound) of a family in ``FAMILIES``; any other
    family is a UtilityError."""
    if type(family) is not str or family not in FAMILIES:
        raise UtilityError(f"unknown utility family {family!r}")
    return FAMILIES[family]


def _int_power(x: int, g: int) -> int:
    """x**g exactly, refused with OverflowError where it passes the float
    range, the same bound the float-backed exponents meet."""
    float(x) ** g
    return x**g


class UtilitySpec(Record):
    """Component-value function plus capture penalty.

    family/params identify f; beta >= 0 is the penalty paid by the hider on
    capture.  Every parameter and beta must be exactly an int or a Fraction
    (a float, a bool or a str is a UtilityError); they are stored as
    Fractions.  ``is_exact`` is derived: only a non-integer exponent gives
    float-backed values.  ``value(x)`` evaluates f at a nonnegative integer
    component size, once per size.  Instances are immutable and hashable,
    safe to share.
    """

    _fields = ("family", "params", "beta")
    __slots__ = _fields + ("is_exact", "_cache")

    def __init__(self, family: str, params: tuple, beta):
        name, _, bound = family_parameter(family)
        if type(params) is not tuple:
            raise UtilityError(f"{family} params must be a tuple, got {params!r}")
        for v in params + (beta,):
            if type(v) is not int and type(v) is not Fraction:
                raise UtilityError(f"utility parameters and beta must be int or Fraction, got {v!r}")
        if family == "table":
            if not params or params[0] != 0:
                raise UtilityError("table must start with f(0) = 0")
            if any(b <= a for a, b in zip(params, params[1:])):
                raise UtilityError("table must be strictly increasing")
        elif len(params) != 1:
            raise UtilityError(f"{family} takes one parameter, {name}, got {params!r}")
        elif params[0] <= bound:
            raise UtilityError(f"{family} {name} must exceed {bound}, got {params[0]}")
        if beta < 0:
            raise UtilityError("beta must be nonnegative")
        params = tuple(map(Fraction, params))
        super().__init__(family, params, Fraction(beta))
        object.__setattr__(self, "is_exact", name != "gamma" or params[0].denominator == 1)
        object.__setattr__(self, "_cache", {})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def linear(slope=1, beta=0) -> "UtilitySpec":
        return UtilitySpec("linear", (slope,), beta)

    @staticmethod
    def power(gamma=2, beta=0) -> "UtilitySpec":
        return UtilitySpec("power", (gamma,), beta)

    @staticmethod
    def ratio_power(gamma=2, beta=0) -> "UtilitySpec":
        return UtilitySpec("ratio_power", (gamma,), beta)

    @staticmethod
    def table(values, beta=0) -> "UtilitySpec":
        return UtilitySpec("table", tuple(values), beta)

    # -- evaluation --------------------------------------------------------

    def value(self, x: int) -> Fraction:
        """f(x) for a nonnegative integer component size."""
        if x < 0:
            raise UtilityError(f"component size {x} is negative")
        cached = self._cache.get(x)
        if cached is not None:
            return cached
        try:
            out = self._evaluate(x)
        except OverflowError as exc:
            raise UtilityError(
                f"{self.family} utility overflows a float at component size {x}"
            ) from exc
        self._cache[x] = out
        return out

    def _evaluate(self, x: int) -> Fraction:
        if self.family == "linear":
            return self.params[0] * x
        if self.family == "power":
            gamma = self.params[0]
            if gamma.denominator == 1:
                return Fraction(_int_power(x, int(gamma)))
            return Fraction(float(x) ** float(gamma)) if x else Fraction(0)
        if self.family == "ratio_power":
            gamma = self.params[0]
            if x == 0:
                return Fraction(0)
            if gamma.denominator == 1:
                g = int(gamma)
                return Fraction(_int_power(x, g), _int_power(x + 1, g - 1))
            return Fraction(float(x) ** float(gamma) / float(x + 1) ** (float(gamma) - 1.0))
        if x >= len(self.params):
            raise UtilityError(f"table utility has no entry for component size {x}")
        return self.params[x]

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        values = [format_rational(v) for v in self.params]
        return {
            "family": self.family,
            "params": {FAMILIES[self.family][0]: values if self.family == "table" else values[0]},
            "beta": format_rational(self.beta),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "UtilitySpec":
        try:
            family, params, beta = data["family"], data.get("params", {}), data["beta"]
        except (TypeError, KeyError) as exc:
            raise UtilityError(f"bad utility spec: {exc}") from exc
        return builtin_utilities(family, params, beta)


def _rational(value) -> Fraction:
    """parse_rational, failing with a UtilityError."""
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise UtilityError(str(exc)) from None


def builtin_utilities(name: str, params: dict | None = None, beta=0) -> UtilitySpec:
    """A family of ``FAMILIES`` by name, with its parameter and beta read by
    ``parse_rational`` (ints, Fractions and "p/q" strings).  ``params`` holds
    at most the family's parameter; without it the family's default is used.
    """
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise UtilityError(f"utility params must be an object, got {params!r}")
    key, default, _ = family_parameter(name)
    if params.keys() - {key}:
        raise UtilityError(f"{name} takes only the parameter {key!r}, got {list(params)}")
    value = params.get(key, default)
    if value is None:
        raise UtilityError(f"{name} utility needs {key!r}")
    if name != "table":
        value = (value,)
    elif not isinstance(value, (list, tuple)):
        raise UtilityError(f"table {key!r} must be a list, got {value!r}")
    return UtilitySpec(name, tuple(map(_rational, value)), _rational(beta))


# -- payoff structure -------------------------------------------------------


def payoff_matrix(g: Graph, u: UtilitySpec) -> tuple:
    """Hider-payoff matrix of a graph with at least one node, as a tuple of
    rows of Fractions: row h is the hider's position, column k the node the
    seeker inspects.

    One low-link DFS gives every column's component sizes: deleting k leaves
    its separated child subtrees, the rest of k's component, and the other
    components unchanged (``graphs._deletion_pieces``).  Each column holds 0
    where k's inspection catches the hider, at k and its neighbours, and the
    hider's component size elsewhere: a pattern that no utility enters.  The
    matrix maps 0 to -beta and a size c >= 1 to f(c).
    """
    n = g.node_count
    if n < 1:
        raise GraphError("payoff matrix needs at least one node")
    links = _dfs_low_links(g)
    order, tin, _, size, _, comp_start = links
    whole = [size[order[comp_start[v]]] for v in order]  # by preorder position
    # sizes[k][tin[h]]: 0 if inspecting k catches h, else h's component size
    # once k is deleted.
    sizes = []
    for k in range(n):
        pieces, rest = _deletion_pieces(links, k)
        a, c = comp_start[k], whole[tin[k]]
        column = whole[:]
        column[a : a + c] = [rest] * c
        for ch in pieces:
            t = tin[ch]
            column[t : t + size[ch]] = [size[ch]] * size[ch]
        column[tin[k]] = 0
        for w in g.neighbors(k):
            column[tin[w]] = 0
        sizes.append(column)
    caught = -u.beta
    return tuple(
        tuple(u.value(column[t]) if column[t] else caught for column in sizes)
        for t in tin
    )


def strategy_payoffs(g: Graph, u: UtilitySpec, hider, seeker) -> tuple:
    """Exact (M.seeker, hider.M) of g's hider-payoff matrix M, without M.

    Deleting k leaves its separated DFS child subtrees, the rest of k's
    component, and the other components unchanged
    (``graphs._deletion_pieces``).  Column k sums f(piece) times each
    piece's uncaught hider mass; rows take range adds over preorder
    intervals, with point corrections on k's closed neighbourhood.  Weights
    are integers over each strategy's common denominator, and range adds are
    keyed by piece size, so Fractions appear only where f does.  f is
    evaluated only at sizes some uncaught cell of M holds, as in
    ``payoff_matrix``.  Cost: O((n + e) log max-degree) exact operations.
    """
    n = g.node_count
    if n < 1:
        raise GraphError("payoff matrix needs at least one node")
    rho, rho_den = over_common_denominator(hider)
    sigma, sigma_den = over_common_denominator(seeker)
    if len(rho) != n or len(sigma) != n:
        raise GraphError("strategy length must equal node count")
    links = _dfs_low_links(g)
    order, tin, _, size, _, comp_start = links
    prefix = list(accumulate((rho[v] for v in order), initial=0))
    beta = u.beta
    # (preorder position, piece size x) -> seeker weight earning f(x) from
    # there on: the differences of the range adds.
    steps: dict = defaultdict(int)
    caught = [0] * n  # seeker weight catching the node at each position

    def add(start, stop, x, weight):
        steps[start, x] += weight
        steps[stop, x] -= weight

    # Hiding in another component earns f(its size) whatever k is deleted.
    col_other = {}  # component start -> f-weighted hider mass elsewhere
    roots = [v for v in order if tin[v] == comp_start[v]]
    if len(roots) > 1:
        sigma_total = sum(sigma)
        earned = {}
        for r in roots:
            a, c = tin[r], size[r]
            earned[a] = u.value(c) * (prefix[a + c] - prefix[a])
            add(a, a + c, c, sigma_total - sum(sigma[v] for v in order[a : a + c]))
        total = sum(earned.values())
        col_other = {a: total - e for a, e in earned.items()}

    col = [None] * n
    for k in range(n):
        tk = tin[k]
        a = comp_start[k]
        c = size[order[a]]
        pieces, rest_size = _deletion_pieces(links, k)
        starts = [tin[ch] for ch in pieces]
        # Per piece: [size, hider mass, caught count, caught hider mass];
        # the last entry is the rest of k's component.
        stats = [[size[ch], prefix[t + size[ch]] - prefix[t], 0, 0]
                 for ch, t in zip(pieces, starts)]
        rest_mass = prefix[a + c] - prefix[a] - rho[k] - sum(st[1] for st in stats)
        stats.append([rest_size, rest_mass, 0, 0])
        neighbors = g.neighbors(k)
        where = []
        for w in neighbors:
            tw = tin[w]
            i = bisect_right(starts, tw) - 1
            if i < 0 or tw >= starts[i] + stats[i][0]:
                i = len(pieces)
            where.append(i)
            stats[i][2] += 1
            stats[i][3] += rho[w]
        # f(piece), or None when every node of the piece is caught.
        values = [u.value(st[0]) if st[0] > st[2] else None for st in stats]
        total = col_other.get(a, 0) - beta * (rho[k] + sum(st[3] for st in stats))
        for st, fv in zip(stats, values):
            if fv is not None:
                total += fv * (st[1] - st[3])
        col[k] = Fraction(total, rho_den)

        weight = sigma[k]
        if not weight:
            continue
        caught[tk] += weight
        rest_on = values[-1] is not None
        if rest_on:
            add(a, a + c, rest_size, weight)
            add(tk, tk + 1, rest_size, -weight)
        for t, st, fv in zip(starts, stats, values):
            if fv is not None:
                add(t, t + st[0], st[0], weight)
            if rest_on:
                add(t, t + st[0], rest_size, -weight)
        for w, i in zip(neighbors, where):
            tw = tin[w]
            caught[tw] += weight
            if values[i] is not None:
                add(tw, tw + 1, stats[i][0], -weight)

    shift = [0] * (n + 1)  # f-weighted seeker mass entering at each position
    for (pos, x), w in steps.items():
        if w:
            shift[pos] += u.value(x) * w
    rows = [None] * n
    running = 0
    for pos, v in enumerate(order):
        running += shift[pos]
        rows[v] = Fraction(running - beta * caught[pos] if caught[pos] else running, sigma_den)
    return rows, col


def capture_probability(g: Graph, hider, seeker, within=None) -> Fraction:
    """Probability the hider is caught under a pair of mixed strategies.

    ``hider`` and ``seeker`` index nodes of g.  When ``within`` is given,
    both strategies are conditioned on that node set (useful for reading the
    capture rate inside a single component of a larger design).  Every
    probability must be an int or a Fraction, and every node of ``within`` an
    int in 0..n-1; anything else, a float, a string or a bool included, is a
    ValueError.  Inspecting k catches the hider mass on k and its neighbours,
    so the sum takes O(n + e) exact operations.
    """
    n = g.node_count
    hider, seeker = list(hider), list(seeker)
    if any(type(p) is not int and type(p) is not Fraction for p in hider + seeker):
        raise ValueError("strategy probabilities must be int or Fraction")
    hp = [Fraction(p) for p in hider]
    sp = [Fraction(p) for p in seeker]
    if len(hp) != n or len(sp) != n:
        raise GraphError("strategy length must equal node count")
    if within is not None:
        within = list(within)
        if any(type(i) is not int or not 0 <= i < n for i in within):
            raise ValueError(f"within must hold node ids in 0..{n - 1}")
        inside = set(within)
        hmass = sum(hp[i] for i in inside)
        smass = sum(sp[i] for i in inside)
        if hmass == 0 or smass == 0:
            raise ValueError("cannot condition on a zero-mass node set")
        hp = [hp[i] / hmass if i in inside else Fraction(0) for i in range(n)]
        sp = [sp[i] / smass if i in inside else Fraction(0) for i in range(n)]
    total = Fraction(0)
    for k in range(n):
        if sp[k]:
            total += sp[k] * (hp[k] + sum(hp[w] for w in g.neighbors(k)))
    return total
