"""Immutable value records, the base of the package's result types.

A record names its fields in ``__slots__`` and sets each one once, in its
own ``__init__``, with ``_set``; assigning or deleting a field afterwards
raises AttributeError.  Records compare and hash by class and field values,
print every field, and pickle through their constructor, as frozen
dataclasses do, but without importing ``dataclasses`` at start-up.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
