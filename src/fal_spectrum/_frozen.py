"""Base of the package's immutable value classes."""


class Frozen:
    """An immutable value whose fields are its ``__slots__``.

    A subclass lists its fields in ``__slots__``, in the order its own
    ``__init__`` takes them, and sets each there with ``object.__setattr__``;
    assigning or deleting a field later raises AttributeError.  Equality
    holds between instances of one class whose ``_key()`` tuples are equal,
    and the hash is that tuple's; ``_key`` reads every field unless a
    subclass narrows it.  ``repr`` shows the fields without a leading
    underscore, and copying or pickling calls the class again with them.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _fields(self) -> list[str]:
        return [name for name in self.__slots__ if not name.startswith("_")]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields())
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields()])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
