"""Bases of the package's record types.

A record is a plain class with an explicit `__init__` and its field names,
in order, in `_fields`.  `Record` compares records of one class field by
field and shows their fields in its repr; like any class that defines
`__eq__` alone, it has no hash.  `FrozenRecord` also hashes the tuple of
its fields and refuses assignment, so its `__init__` fills `__dict__`.
`replace` builds a copy with some fields changed, through the class's own
`__init__`, so the copy passes that class's checks again.

These stand in for `dataclasses`, whose decorations generate and compile
each class's methods on every import of the package.
"""

import operator

__all__ = ["Record", "FrozenRecord", "replace"]


class Record:
    """A mutable record: == and repr field by field, no hash."""

    _fields = ()

    def __init_subclass__(cls):
        # one C-level getter per record class reads the tuple of its fields
        if cls._fields:
            get = operator.attrgetter(*cls._fields)
            if len(cls._fields) == 1:
                cls._values = lambda self: (get(self),)
            else:
                cls._values = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """An immutable record: hashed by its fields; assignment raises."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record, **changes):
    """A new record of the same class, its fields those of `record` but for `changes`."""
    for name in record._fields:
        changes.setdefault(name, getattr(record, name))
    return record.__class__(**changes)
