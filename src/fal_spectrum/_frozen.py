"""Base of the package's immutable value classes."""


class Frozen:
    """An immutable value whose fields are its ``__slots__``.

    The constructor stores one value per slot, positionally in slot order,
    through the slot's descriptor (collected once per class), and raises
    TypeError on any other count; a subclass that checks its arguments
    passes them on with ``super().__init__``.  Assigning or
    deleting a field raises AttributeError.  ``repr``, ``_key`` (unless a
    subclass narrows it), copying and pickling read ``_fields()``, the
    slots without a leading underscore unless a subclass names others, and
    a copy or an unpickle calls the subclass's constructor with them, so
    its checks run again.  Equality compares ``_key()`` within one class,
    and the hash is that tuple's.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values) -> None:
        stores = self._stores
        if len(values) != len(stores):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}, got {len(values)} values")
        for store, value in zip(stores, values):
            store(self, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields()])

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
