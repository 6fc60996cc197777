"""Reading and writing exact rationals as reduced "p/q" strings.

All reports emitted by this package serialize numbers as reduced fraction
strings so that identical inputs produce byte-identical output.  Floats are
only allowed for utility families with irrational parameters, and those are
flagged explicitly by the caller.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


def format_rational(value) -> str:
    """Render an int or a Fraction as the reduced string "p/q" (denominator
    always shown), read from ``.numerator``/``.denominator``; anything else (a
    float, a string, a bool) is a ValueError."""
    if type(value) is not int and type(value) is not Fraction:
        raise ValueError(f"expected an int or a Fraction, got {value!r}")
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text) -> Fraction:
    """Parse "p/q", "p", an int or a Fraction into a Fraction.

    A string is ASCII digits with an optional sign on p: "p" or "p/q" with
    q > 0, and optional whitespace around the whole; anything else (an
    underscore, another script's digits, a sign on q, inner spaces) is
    refused, and so is a subclass of int, Fraction or str (a bool among
    them), as ``UtilitySpec`` refuses one.  Floats are rejected: exactness
    everywhere is the contract, so a caller holding a float must opt in
    explicitly via Fraction(float).
    """
    if type(text) is bool:
        raise ValueError("booleans are not rationals")
    if type(text) is int:
        return Fraction(text)
    if type(text) is Fraction:
        return text
    if isinstance(text, float):
        raise ValueError("refusing to coerce a float silently; pass a 'p/q' string")
    if type(text) is not str:
        raise ValueError(f"cannot parse rational from {type(text).__name__}")
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", text.strip())
    if match and int(match[2] or 1):
        return Fraction(int(match[1]), int(match[2] or 1))
    raise ValueError(f"invalid rational {text!r}")


def over_common_denominator(values) -> tuple:
    """(numerators, D): ints and Fractions as integers over their least common
    denominator D, read from ``.numerator``/``.denominator`` with no Fraction
    built; anything else (a float, a string, a bool) is a ValueError."""
    values = tuple(values)
    if any(type(v) is not int and type(v) is not Fraction for v in values):
        raise ValueError("expected ints and Fractions only")
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def format_float(value: float) -> str:
    """17 significant digits, enough to round-trip an IEEE double."""
    return format(value, ".17g")
