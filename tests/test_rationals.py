"""Rational string round-trips."""

from decimal import Decimal
from fractions import Fraction as F

import pytest

from hsnet.rationals import (
    format_float,
    format_rational,
    over_common_denominator,
    parse_rational,
)


def test_format_always_shows_denominator():
    assert format_rational(F(0)) == "0/1"
    assert format_rational(F(-2)) == "-2/1"
    assert format_rational(F(6, 4)) == "3/2"


def test_format_takes_only_ints_and_fractions():
    assert format_rational(7) == "7/1"
    assert format_rational(-3) == "-3/1"
    # A float, a string or a bool is refused, as over_common_denominator
    # refuses them, rather than converted.
    for bad in (0.5, "3/4", True, False, None, Decimal(1), Exact(1), ExactFraction(1, 2)):
        with pytest.raises(ValueError, match="int or a Fraction"):
            format_rational(bad)


def test_parse_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(5) == F(5)
    assert parse_rational(F(1, 3)) == F(1, 3)
    for bad in ("1.5", "a/b", "1/0", None, 1.5, True):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_accepts_ascii_digits_with_a_sign_on_p_only():
    assert parse_rational(" +12/8 \n") == F(3, 2)
    assert parse_rational("-0") == 0
    assert parse_rational("007/010") == F(7, 10)
    # Each of these int() or Fraction() would read; none is a "p/q" string.
    for bad in ("-1/-2", "2/-3", "1/+2", "1_000", "1/2_0", "٣", "１/２",
                "1 / 2", "1/ 2", "--1", "+", "", " ", "/", "1/", "/2", "1/2/3", "0x10",
                "1e3", "0/0", "-5/0"):
        with pytest.raises(ValueError, match="invalid rational"):
            parse_rational(bad)


def test_roundtrip():
    for f in (F(0), F(22, 7), F(-355, 113)):
        assert parse_rational(format_rational(f)) == f


def test_float_formatting():
    assert float(format_float(2.0 ** 0.5)) == 2.0 ** 0.5


def test_over_common_denominator():
    assert over_common_denominator([F(1, 2), -3, F(-5, 6), 0]) == ([3, -18, -5, 0], 6)
    assert over_common_denominator([]) == ([], 1)
    for bad in (0.5, "1/2", None, True, False, Decimal(1), Exact(1), ExactFraction(1, 2)):
        with pytest.raises(ValueError):
            over_common_denominator([F(1, 2), bad])


class Exact(int):
    """An int subclass: not exactly an int, so refused."""


class ExactFraction(F):
    """A Fraction subclass, refused for the same reason."""
