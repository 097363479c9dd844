"""Immutable value records, the base of the package's result types.

A record names its fields in ``__slots__``; assigning or deleting a field
afterwards raises AttributeError.  A record that only stores its fields
gets an ``__init__``, compiled from ``__slots__`` with the defaults in the
private class attribute ``_defaults``, that stores each field through its
slot's descriptor; a record that validates or coerces writes its own and
sets each field once with ``_set``.  Records compare and hash by class and
field values, print every field, and pickle through their constructor, as
frozen dataclasses do, but without importing ``dataclasses`` at start-up.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        if "__init__" in vars(cls):
            return
        names = cls.__slots__
        params = ", ".join(
            f"{name}=_defaults[{name!r}]" if name in cls._defaults else name
            for name in names
        )
        body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
        namespace["_defaults"] = cls._defaults
        exec(f"def __init__(self, {params}):\n{body}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

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
