"""The value records keep what frozen dataclasses gave them: the same
constructor, equality, hashing and repr, immutability, and pickling."""

import pickle
from dataclasses import make_dataclass
from fractions import Fraction as F

import pytest

import hsnet.closed_form as cf
import hsnet.designer as dz
from hsnet.matrix_game import GameSolution, solve_zero_sum
from hsnet.payoff import MixedStrategy, UtilitySpec, UtilityError
from hsnet.records import Record

from conftest import identity_u, payoff_matrix, square_u


def samples():
    """Two unequal instances of each record class, made the way the package
    makes them."""
    design = dz.design_optimal(9, identity_u(2))
    topo = dz.design_topology(9, 0, 3)
    rows = cf.value_table_rows(8, identity_u(1))  # (s, m) = (0, 2), last (8, 0)
    return [
        (identity_u(2), square_u(F(1, 2))),
        (solve_zero_sum(payoff_matrix(dz.build_cycle(5), identity_u(1))),
         solve_zero_sum(payoff_matrix(dz.build_cycle(4), identity_u(1)))),
        (rows[2], rows[-1]),
        (topo, dz.design_topology(6, 0, 0)),
        (design, dz.design_optimal(8, identity_u(2))),
    ]


def twin(record):
    """A frozen dataclass with the same name, fields and values."""
    cls = type(record)
    shadow = make_dataclass(cls.__name__, cls._fields, frozen=True)
    return shadow(*record._values())


@pytest.mark.parametrize("pair", samples(), ids=lambda p: type(p[0]).__name__)
def test_record_matches_a_frozen_dataclass(pair):
    a, b = pair
    assert isinstance(a, Record) and not hasattr(a, "__dict__")
    assert repr(a) == repr(twin(a))
    assert hash(a) == hash(twin(a))
    cls = type(a)
    values = a._values()
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_position == a == by_keyword and hash(by_position) == hash(a)
    assert a != b and a != twin(a) and a != values
    assert pickle.loads(pickle.dumps(a)) == a
    for name in cls._fields[:1] + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, cls._fields[0])
    assert a._values() == values


@pytest.mark.parametrize("cls", [GameSolution, cf.ValueReport, dz.DesignTopology, dz.DesignResult])
def test_record_constructor_takes_each_field_once(cls):
    fields = cls._fields
    with pytest.raises(TypeError):
        cls(*range(len(fields) - 1))
    with pytest.raises(TypeError):
        cls(*range(len(fields) + 1))
    with pytest.raises(TypeError):
        cls(*range(len(fields) - 1), **{fields[0]: 0})
    with pytest.raises(TypeError):
        cls(*range(len(fields) - 1), extra=0)


def test_utility_spec_validates_and_evaluates_after_a_round_trip():
    with pytest.raises(UtilityError):
        UtilitySpec("cubic", (F(1),), F(0))
    with pytest.raises(UtilityError):
        UtilitySpec("linear", (F(1),), F(-1))
    u = UtilitySpec("power", (F(3, 2),), F(1))
    assert u == UtilitySpec.power(F(3, 2), 1) and not u.is_exact
    assert u.value(4) == 8
    copy = pickle.loads(pickle.dumps(u))
    assert copy == u and copy.value(9) == 27
    assert MixedStrategy([1]) == pickle.loads(pickle.dumps(MixedStrategy([1])))


def test_oracle_records_are_records(oracle_report):
    rep, other = oracle_report(4, identity_u(1)), oracle_report(4, identity_u(2))
    for pair in ((rep, other), rep.structural_checks[:2]):
        test_record_matches_a_frozen_dataclass(pair)
        test_record_constructor_takes_each_field_once(type(pair[0]))
