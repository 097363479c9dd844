"""Immutable value records, the base of the package's result types.

A record names its fields in ``__slots__``; assigning or deleting a field
afterwards raises AttributeError.  Every record gets ``_store``, compiled
from ``__slots__`` with the defaults in the private class attribute
``_defaults``, which stores each field through its slot's descriptor.  A
record that only stores its fields has it as its ``__init__``; one that
validates or coerces writes its own, which ends in ``self._store(...)``.
Records compare and hash by class and field values, print every field,
and pickle through their constructor, as frozen dataclasses do, but
without importing ``dataclasses`` at start-up.
"""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        names = cls.__slots__
        params = ", ".join(
            f"{name}=_defaults[{name!r}]" if name in cls._defaults else name
            for name in names
        )
        body = "".join(f"    _set_{name}(self, {name})\n" for name in names)
        namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
        namespace.update(_defaults=cls._defaults, __name__=cls.__module__)
        exec(f"def _store(self, {params}):\n{body}", namespace)
        cls._store = store = namespace["_store"]
        if "__init__" not in vars(cls):
            store.__name__ = "__init__"
            cls.__init__ = store
        store.__qualname__ = f"{cls.__qualname__}.{store.__name__}"

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
