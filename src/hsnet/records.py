"""Immutable value records over ``__slots__``, in place of frozen dataclasses.

Importing ``dataclasses`` loads ``inspect`` and its dependencies, and building
each dataclass compiles its methods at import time; on a one-shot command
that is a measurable share of the run.  A ``Record`` subclass lists its fields
in ``_fields`` and its slots in ``__slots__``, and gets what a frozen
dataclass would give it: a constructor taking the fields by position or
keyword, equality and hashing by field tuple (between instances of the same
class only), a ``Name(field=value, ...)`` repr, and an AttributeError on any
assignment or deletion.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        rest = fields[len(args):]
        if len(args) > len(fields) or len(kwargs) != len(rest) or not kwargs.keys() <= set(rest):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in rest:
            object.__setattr__(self, name, kwargs[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        # Pickling by constructor: the default slot-state path would call
        # __setattr__.
        return type(self), self._values()
