"""Utility specifications and the hider-payoff matrix of a fixed graph.

The hider's payoff against an inspected node k is -beta when caught (hiding
at k or any of its neighbors) and otherwise the component value f applied to
the size of the hider's component once k is deleted.  The game is zero-sum;
only the hider matrix is stored, the seeker's payoffs are its negation.
Every query here reads captures straight off the graph's neighbour tuples,
and component sizes off one low-link DFS; no neighbour bitmask is built.
Payoffs are read through one integer table, ``UtilitySpec.integer_table``
(-beta and f at the sizes asked for, over their lcm D): the matrix
(``integer_payoffs``), the design certificate (``strategy_payoffs``) and
``closed_form`` build no Fraction to read one (its scan reads each f once, by
``evaluate``), and ``payoff_matrix`` is only the integer matrix's Fractions.
Mixed strategies (``MixedStrategy``, integer weights over one denominator)
and the best-response regrets of what they earn (``gap_from_payoffs``) live
here too, so the design certificate needs no game solver: ``hsnet.matrix_game``
imports both from this module, which imports no solver.

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
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

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
        """f(x) for a nonnegative integer component size, kept once read."""
        cached = self._cache.get(x)
        if cached is None:
            cached = self._cache[x] = self.evaluate(x)
        return cached

    def evaluate(self, x: int) -> Fraction:
        """f(x), evaluated on each call and not kept: for a caller that reads
        each size once, such as the isolated-node scan."""
        if x < 0:
            raise UtilityError(f"component size {x} is negative")
        family, p = self.family, self.params[0]  # a table's p is f(0)
        try:
            if family == "linear":
                return Fraction(p.numerator * x, p.denominator)
            if family == "power":
                if p.denominator == 1:
                    return Fraction(_int_power(x, int(p)))
                return Fraction(float(x) ** float(p)) if x else Fraction(0)
            if family == "ratio_power":
                if x == 0:
                    return Fraction(0)
                if p.denominator == 1:
                    g = int(p)
                    return Fraction(_int_power(x, g), _int_power(x + 1, g - 1))
                return Fraction(float(x) ** float(p) / float(x + 1) ** (float(p) - 1.0))
        except OverflowError as exc:
            raise UtilityError(f"{family} utility overflows a float at component size {x}") from exc
        if x >= len(self.params):
            raise UtilityError(f"table utility has no entry for component size {x}")
        return self.params[x]

    def integer_table(self, sizes) -> tuple:
        """(values, D): f at each given size, in order, as an integer over D,
        with -beta for size 0, the pattern's mark of a capture.  D is the lcm
        of those values' denominators: f is read at no other size."""
        return over_common_denominator(self.value(c) if c else -self.beta for c in sizes)

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


def integer_payoffs(g: Graph, u: UtilitySpec) -> tuple:
    """(rows, D): the hider-payoff matrix of a graph with at least one node,
    as a tuple of rows of integers over D: row h is the hider's position,
    column k the node the seeker inspects.

    One low-link DFS gives every column's component sizes: deleting k leaves
    its separated child subtrees, the rest of k's component, and the other
    components unchanged (``graphs._deletion_pieces``).  Each column holds 0
    where k's inspection catches the hider, at k and its neighbours, and the
    hider's component size elsewhere: a pattern that no utility enters.  It
    is read through ``u.integer_table`` over the sizes it holds, so D is the
    lcm of the matrix's denominators.
    """
    n = g.node_count
    if n < 1:
        raise GraphError("payoff matrix needs at least one node")
    links = _dfs_low_links(g)
    order, tin, _, size, comp_start = links
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
    held = sorted(set().union(*sizes))
    values, den = u.integer_table(held)
    table = dict(zip(held, values))
    return tuple(tuple(table[column[t]] for column in sizes) for t in tin), den


def payoff_matrix(g: Graph, u: UtilitySpec) -> tuple:
    """The matrix of ``integer_payoffs`` as a tuple of rows of Fractions, each
    entry its integer over D."""
    rows, den = integer_payoffs(g, u)
    view = {v: Fraction(v, den) for v in set().union(*rows)}
    return tuple(tuple(view[v] for v in row) for row in rows)


# -- strategies and what they earn ------------------------------------------


class MixedStrategy(Record):
    """Probability vector over actions, held exactly as integer weights over
    one denominator, reduced so that equal vectors hold equal weights, and
    validated at construction: weights >= 0 summing to the denominator.  A
    Fraction is built only when a probability is read."""

    __slots__ = _fields = ("weights", "denominator")

    def __init__(self, probs):
        try:
            weights, den = over_common_denominator(probs)
        except ValueError:
            raise ValueError("strategy probabilities must be int or Fraction") from None
        self._hold(weights, den)

    @classmethod
    def from_weights(cls, weights, den: int) -> "MixedStrategy":
        """Action i with probability weights[i] / den (ints, den > 0)."""
        strategy = cls.__new__(cls)
        strategy._hold(weights, den)
        return strategy

    def _hold(self, weights, den):
        weights = tuple(weights)
        if min(weights, default=0) < 0:
            raise ValueError("strategy probabilities must be nonnegative")
        total = sum(weights)
        if type(total) is not int or type(den) is not int or total != den or den < 1:
            raise ValueError("strategy probabilities must sum to exactly 1")
        g = gcd(den, *weights)
        Record.__init__(self, tuple(w // g for w in weights) if g > 1 else weights, den // g)

    @staticmethod
    def uniform(n: int) -> "MixedStrategy":
        return MixedStrategy.from_weights([1] * n, n)

    @property
    def probs(self) -> tuple:
        view = {w: Fraction(w, self.denominator) for w in set(self.weights)}
        return tuple(map(view.__getitem__, self.weights))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w)

    def to_pq(self) -> list[str]:
        """The probabilities as "p/q" strings, each distinct weight formatted once."""
        text = {w: format_rational(Fraction(w, self.denominator)) for w in set(self.weights)}
        return list(map(text.__getitem__, self.weights))

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return Fraction(self.weights[i], self.denominator)

    def __iter__(self):
        return iter(self.probs)

    def __reduce__(self):
        return MixedStrategy.from_weights, self._values()


def _weights(strategy) -> tuple:
    """(weights, D) of a MixedStrategy as held, or of ints and Fractions."""
    if isinstance(strategy, MixedStrategy):
        return strategy.weights, strategy.denominator
    return over_common_denominator(strategy)


def strategy_payoffs(g: Graph, u: UtilitySpec, hider, seeker) -> tuple:
    """(rows, cols, D): M.seeker and hider.M of g's hider-payoff matrix M, as
    lists of integers over one denominator D, without M.  A strategy is a
    MixedStrategy, read as its weights, or a sequence of ints and Fractions.

    Deleting k leaves its separated DFS child subtrees, the rest of k's
    component and the other components (``graphs._deletion_pieces``).  A
    part is held when k leaves a node of it uncaught.  One pass records each
    held part's size and uncaught hider mass, and where k's seeker weight
    earns its f: ranges of preorder positions less some points.  Then
    ``u.integer_table`` is read once, over those sizes, which cells of M
    hold.  Captures (size 0, as in ``integer_payoffs``) and the other
    components are per-node and per-component sums.  No Fraction is built.
    Cost: O((n + e) log max-degree) integer operations.
    """
    n = g.node_count
    if n < 1:
        raise GraphError("payoff matrix needs at least one node")
    rho, rho_den = _weights(hider)
    sigma, sigma_den = _weights(seeker)
    if len(rho) != n or len(sigma) != n:
        raise GraphError("strategy length must equal node count")
    links = _dfs_low_links(g)
    order, tin, _, size, comp_start = links
    prefix = list(accumulate((rho[v] for v in order), initial=0))
    sigma_at, rho_at = sigma.__getitem__, rho.__getitem__
    caught_rows, caught_cols = [0] * n, [0] * n  # sigma(N[h]) and rho(N[k])
    # The rest of each k: its size, its uncaught hider mass and, when it is
    # held and k has seeker weight, k's neighbours outside its held pieces,
    # which with k earn less than the range add over k's component.
    rest_size, rest_mass, rest_points = [0] * n, [0] * n, [None] * n
    held_pieces = []  # (k, start, size, uncaught hider mass, k's neighbours in it)
    for k in range(n):
        a, nbrs = comp_start[k], g.neighbors(k)
        caught_rows[k] = sigma[k] + sum(map(sigma_at, nbrs))
        caught_cols[k] = rho[k] + sum(map(rho_at, nbrs))
        c = size[order[a]]
        pieces, rest = _deletion_pieces(links, k) if size[k] > 1 else ((), c - 1)
        left = prefix[a + c] - prefix[a] - caught_cols[k]
        points, near = nbrs, len(nbrs)
        if pieces:
            starts = [tin[ch] for ch in pieces]
            points, inside = [], [[] for _ in pieces]
            for w in nbrs:
                tw = tin[w]
                i = bisect_right(starts, tw) - 1
                if i >= 0 and tw < starts[i] + size[pieces[i]]:
                    inside[i].append(w)
                else:
                    points.append(w)
            near = len(points)
            for t, ch, hit in zip(starts, pieces, inside):
                x = size[ch]
                if len(hit) == x:  # fully caught: its nodes earn a capture
                    points.extend(hit)
                    continue
                m = prefix[t + x] - prefix[t] - sum(map(rho_at, hit))
                left -= m
                held_pieces.append((k, t, x, m, hit))
        rest_size[k], rest_mass[k] = rest, left
        if sigma[k] and near < rest:
            rest_points[k] = tuple(points)

    # Hiding in another component earns f(its size) whatever k is deleted.
    roots = [t for t, v in enumerate(order) if comp_start[v] == t]
    several = len(roots) > 1
    held = (x for x, m, p in zip(rest_size, rest_mass, rest_points) if m or p is not None)
    sizes = sorted({0, *held, *(x for _, _, x, _, _ in held_pieces),
                    *(size[order[t]] for t in roots if several)})
    values, den = u.integer_table(sizes)
    table = dict(zip(sizes, values))
    rows = [table[0] * w for w in caught_rows]
    cols = [table[0] * m for m in caught_cols]
    shift = [0] * (n + 1)
    for k in range(n):
        x, points = rest_size[k], rest_points[k]
        if rest_mass[k]:
            cols[k] += table[x] * rest_mass[k]
        if points is not None:
            v = table[x] * sigma[k]
            a = comp_start[k]
            shift[a] += v
            shift[a + size[order[a]]] -= v
            rows[k] -= v
            for w in points:
                rows[w] -= v
    for k, t, x, m, hit in held_pieces:
        cols[k] += table[x] * m
        v = table[x] * sigma[k]
        for w in hit:
            rows[w] -= v
        if rest_points[k] is not None:
            v -= table[rest_size[k]] * sigma[k]
        shift[t] += v
        shift[t + x] -= v
    for v, acc in zip(order, accumulate(shift)):
        rows[v] += acc
    if several:
        sigma_prefix = list(accumulate((sigma[v] for v in order), initial=0))
        earned = [(t, size[order[t]]) for t in roots]
        everywhere = sum(table[c] * (prefix[t + c] - prefix[t]) for t, c in earned)
        for t, c in earned:
            outside = sigma_prefix[n] - sigma_prefix[t + c] + sigma_prefix[t]
            elsewhere = everywhere - table[c] * (prefix[t + c] - prefix[t])
            for v in order[t : t + c]:
                rows[v] += table[c] * outside
                cols[v] += elsewhere
    # Rows are over D sigma_den and columns over D rho_den: bring both over one.
    common = lcm(rho_den, sigma_den)
    rows = [v * (common // sigma_den) for v in rows]
    cols = [v * (common // rho_den) for v in cols]
    return rows, cols, den * common


def gap_from_payoffs(row: MixedStrategy, row_payoffs, col_payoffs):
    """(row regret, column regret) from M.col and row.M, however computed, in
    the payoffs' own unit (integers over D give regrets over D).  The row
    strategy's weights are read as they are held, so only the two regrets
    are Fractions."""
    rho, den = row.weights, row.denominator
    current = sum(p * v for p, v in zip(rho, row_payoffs) if p)  # den row.M.col
    row_regret = max(row_payoffs) * den - current
    return Fraction(row_regret, den), Fraction(current - min(col_payoffs) * den, den)


def capture_probability(g: Graph, hider, seeker, within=None) -> Fraction:
    """Probability the hider is caught under a pair of mixed strategies.

    ``hider`` and ``seeker`` index nodes of g.  When ``within`` is given,
    both strategies are conditioned on that node set (useful for reading the
    capture rate inside a single component of a larger design).  Every
    probability must be an int or a Fraction (a MixedStrategy is read as its
    weights), and every node of ``within`` an int in 0..n-1; anything else, a
    float, a string or a bool included, is a ValueError.  Inspecting k
    catches the hider mass on k and its neighbours, so the sum takes O(n + e)
    integer operations and builds one Fraction.
    """
    n = g.node_count
    try:
        (hp, hden), (sp, sden) = _weights(hider), _weights(seeker)
    except ValueError:
        raise ValueError("strategy probabilities must be int or Fraction") from None
    if len(hp) != n or len(sp) != n:
        raise GraphError("strategy length must equal node count")
    if within is not None:
        within = list(within)
        if any(type(i) is not int or not 0 <= i < n for i in within):
            raise ValueError(f"within must hold node ids in 0..{n - 1}")
        # Conditioned, each strategy is its weights on the set over their total.
        inside = set(within)
        hp = [p if i in inside else 0 for i, p in enumerate(hp)]
        sp = [q if i in inside else 0 for i, q in enumerate(sp)]
        hden, sden = sum(hp), sum(sp)
        if not hden or not sden:
            raise ValueError("cannot condition on a zero-mass node set")
    hider_at = hp.__getitem__
    caught = sum(q * (hp[k] + sum(map(hider_at, g.neighbors(k)))) for k, q in enumerate(sp) if q)
    return Fraction(caught, hden * sden)
