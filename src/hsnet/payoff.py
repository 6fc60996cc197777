"""Utility specifications, mixed strategies, and the regrets of what they earn:
the half of the game that no network enters.

The hider's payoff against an inspected node k is -beta when caught (hiding
at k or any of its neighbors) and otherwise the component value f applied to
the size of the hider's component once k is deleted.  The game is zero-sum;
only the hider matrix is stored, the seeker's payoffs are its negation.
Payoffs are read through one integer table, ``UtilitySpec.integer_table``
(-beta and f at the sizes asked for, over their lcm D), so no caller builds
a Fraction to read one.  Mixed strategies (``MixedStrategy``, integer weights
over one denominator) and the best-response regrets of what they earn
(``gap_from_payoffs``) live here too.  A MixedStrategy is the one form in
which the game code reads a strategy, through ``_weights``, which refuses any
other (a list included).  No graph is read here: the matrix of a
graph and the capture rate are built in ``hsnet.matrix_game``, which solves
them, and the design certificate in ``hsnet.designer``, which runs it, so
``hsnet.closed_form`` and ``hsnet value-table`` load no graph code.

Component values f are strictly increasing with f(0) = 0.  ``FAMILIES`` is
the one table of the built-in families: each family's parameter name (in JSON
and on the command line), its default and the bound it must exceed.  Every
route to a ``UtilitySpec`` ends in its constructor, which checks all of it.
Families evaluate to exact rationals except powers with non-integer
exponents, which fall back to floats (wrapped exactly, flagged via
``is_exact``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
    component size, and keeps nothing.  Instances are immutable and hashable,
    safe to share.
    """

    _fields = ("family", "params", "beta")
    __slots__ = _fields + ("is_exact",)

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
        """f(x) for a nonnegative integer component size, read afresh."""
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
        """The spec of an object with ``family``, ``beta`` and optionally
        ``params``, itself an object.  Anything but an object is refused, and
        so, by name, are any other key and a missing ``family`` or ``beta``."""
        if not isinstance(data, dict):
            raise UtilityError("utility spec must be a JSON object")
        for key in data:
            if key not in ("family", "params", "beta"):
                raise UtilityError(f"unknown utility key {key!r}")
        for key in ("family", "beta"):
            if key not in data:
                raise UtilityError(f"utility spec needs {key!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise UtilityError(f"utility params must be an object, got {params!r}")
        return builtin_utilities(data["family"], params, data["beta"])


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
    """(weights, D) of a MixedStrategy as held: the one strategy form that
    the game code reads.  Anything else, a list included, is a ValueError."""
    if not isinstance(strategy, MixedStrategy):
        raise ValueError(f"a strategy must be a MixedStrategy, got {type(strategy).__name__}")
    return strategy.weights, strategy.denominator


def gap_from_payoffs(row: MixedStrategy, row_payoffs, col_payoffs):
    """(row regret, column regret) from M.col and row.M, however computed, in
    the payoffs' own unit (integers over D give regrets over D).  The row
    strategy's weights are read as they are held, so only the two regrets
    are Fractions."""
    rho, den = _weights(row)
    current = sum(p * v for p, v in zip(rho, row_payoffs) if p)  # den row.M.col
    row_regret = max(row_payoffs) * den - current
    return Fraction(row_regret, den), Fraction(current - min(col_payoffs) * den, den)
