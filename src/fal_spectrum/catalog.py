"""Base link catalog: exact volumes, JSON parsing, validation.

A catalog file is a UTF-8 JSON document::

    {"links": [{"name": "L41", "c_oct": "2", "c_tet": "0",
                "remainder": "0", "a": 2, "note": "..."}]}

Rational coefficients are "p/q" strings (plain integers allowed) and the
remainder is a decimal string, so nothing passes through binary floats.
Missing c_oct/c_tet/remainder default to "0".
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

from . import numerics
from ._frozen import Frozen
from .errors import CatalogError, DomainError
from .numerics import PrecisionContext

__all__ = [
    "BaseLink",
    "Catalog",
    "Diagnostic",
    "ExactVolume",
    "builtin_links",
    "builtin_catalog",
    "load_catalog",
    "validate_entry",
]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parsed(parse, value, what: str, *args):
    """``parse(value, what, *args)``, a numerics input check, refusing with CatalogError."""
    try:
        return parse(value, what, *args)
    except DomainError as exc:
        raise CatalogError(str(exc)) from None


class ExactVolume(Frozen):
    """A volume c_oct*v_oct + c_tet*v_tet + remainder with exact components.

    The remainder carries any part of the volume that is not a rational
    multiple of the two base constants; it is stored as the exact rational
    value of its decimal form, so sums and integer multiples stay exact.
    All components are nonnegative.
    """

    __slots__ = ("c_oct", "c_tet", "remainder")

    def __init__(self, c_oct=Fraction(0), c_tet=Fraction(0), remainder=Fraction(0)) -> None:
        for name, value in (("c_oct", c_oct), ("c_tet", c_tet), ("remainder", remainder)):
            value = _parsed(numerics.parse_rational, value, name)
            if value < 0:
                raise CatalogError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)

    @classmethod
    def from_fields(cls, c_oct="0", c_tet="0", remainder="0") -> "ExactVolume":
        """Build from the file-format fields (rationals as "p/q", decimal remainder)."""
        return cls(c_oct, c_tet, Fraction(_parsed(numerics.parse_decimal, remainder, "remainder")))

    def is_zero(self) -> bool:
        return not (self.c_oct or self.c_tet or self.remainder)

    def components(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c_oct, self.c_tet, self.remainder)

    def __add__(self, other: "ExactVolume") -> "ExactVolume":
        if not isinstance(other, ExactVolume):
            return NotImplemented
        return ExactVolume(
            self.c_oct + other.c_oct,
            self.c_tet + other.c_tet,
            self.remainder + other.remainder,
        )

    def __mul__(self, scalar) -> "ExactVolume":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return ExactVolume(self.c_oct * scalar, self.c_tet * scalar, self.remainder * scalar)

    def evaluate(self, ctx: PrecisionContext) -> Decimal:
        """The volume correctly rounded to ``ctx.digits``."""
        return numerics.correctly_rounded(self.c_oct, self.c_tet, self.remainder, 1, ctx)


class BaseLink(Frozen):
    """A named fully augmented link with known volume and augmentation count.

    Links are equal when name, volume and augmentation count agree (the
    note is not compared) and hash by name alone."""

    __slots__ = ("name", "volume", "augmentations", "note")

    def __init__(self, name: str, volume: ExactVolume, augmentations: int, note: str = "") -> None:
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise CatalogError(f"link name must be an identifier, got {name!r}")
        _parsed(numerics.parse_count, augmentations, f"{name}: augmentation count", 2)
        if not isinstance(volume, ExactVolume):
            raise CatalogError(f"{name}: volume must be an ExactVolume")
        if volume.is_zero():
            raise CatalogError(f"{name}: volume must be positive")
        if not isinstance(note, str):
            raise CatalogError(f"{name}: note must be a string")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "augmentations", augmentations)
        object.__setattr__(self, "note", note)

    def _key(self) -> tuple:
        return (self.name, self.volume, self.augmentations)

    def __hash__(self) -> int:
        return hash((self.name,))

    @property
    def atilde(self) -> int:
        """Modified augmentation count a - 1."""
        return self.augmentations - 1

    def sort_key(self):
        return (self.name, self.augmentations, *self.volume.components())


def builtin_links() -> tuple[BaseLink, ...]:
    """Links every catalog ships with (unless a file shadows the name)."""
    return (
        BaseLink(
            name="L41",
            volume=ExactVolume(c_oct=Fraction(2)),
            augmentations=2,
            note="fully augmented figure-eight knot; volume 2*v_oct, density at the spectrum floor",
        ),
    )


class Catalog(Frozen):
    """Immutable name-indexed collection of base links, compared by its links."""

    __slots__ = ("links", "_by_name")

    def __init__(self, links: tuple[BaseLink, ...]) -> None:
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "_by_name", {link.name: link for link in links})

    def _key(self) -> tuple:
        return (self.links,)

    @classmethod
    def from_links(cls, links) -> "Catalog":
        seen: dict[str, BaseLink] = {}
        for link in links:
            if link.name in seen:
                raise CatalogError(f"duplicate link name {link.name!r}")
            seen[link.name] = link
        for link in builtin_links():
            seen.setdefault(link.name, link)
        return cls(tuple(sorted(seen.values(), key=BaseLink.sort_key)))

    def __iter__(self) -> Iterator[BaseLink]:
        return iter(self.links)

    def __len__(self) -> int:
        return len(self.links)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> BaseLink:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(link.name for link in self.links)
            raise CatalogError(f"unknown link {name!r} (catalog has: {known})") from None


def builtin_catalog() -> Catalog:
    return Catalog.from_links(())


_ENTRY_FIELDS = {"name", "c_oct", "c_tet", "remainder", "a", "note"}


def load_catalog(source: str) -> Catalog:
    """Parse a catalog document; the builtin L41 is present unless shadowed."""
    import json

    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed catalog JSON: {exc}") from exc
    except ValueError:  # an int past the interpreter's limit on digits
        raise CatalogError("malformed catalog JSON: a number has too many digits") from None
    except RecursionError:
        raise CatalogError("malformed catalog JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("links"), list):
        raise CatalogError('catalog document must be an object with a "links" array')
    entries = []
    for index, raw in enumerate(doc["links"]):
        where = f"links[{index}]"
        if not isinstance(raw, dict):
            raise CatalogError(f"{where}: entry must be an object")
        unknown = set(raw) - _ENTRY_FIELDS
        if unknown:
            raise CatalogError(f"{where}: unknown fields {sorted(unknown)}")
        for required in ("name", "a"):
            if required not in raw:
                raise CatalogError(f'{where}: missing required field "{required}"')
        try:
            volume = ExactVolume.from_fields(
                raw.get("c_oct", "0"), raw.get("c_tet", "0"), raw.get("remainder", "0")
            )
            entries.append(
                BaseLink(
                    name=raw["name"],
                    volume=volume,
                    augmentations=raw["a"],
                    note=raw.get("note", ""),
                )
            )
        except CatalogError as exc:
            raise CatalogError(f"{where}: {exc}") from exc
    return Catalog.from_links(entries)


def load_catalog_file(path) -> Catalog:
    try:
        with open(path, encoding="utf-8") as handle:
            return load_catalog(handle.read())
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CatalogError(
            f"cannot read catalog {path!r}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


class Diagnostic(Frozen):
    __slots__ = ("level", "link", "message")

    def __init__(self, level: str, link: str, message: str) -> None:
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "link", link)
        object.__setattr__(self, "message", message)


def validate_entry(link: BaseLink, ctx: PrecisionContext) -> list[Diagnostic]:
    """Soft checks against the known density window, each decided exactly
    by ``numerics.sign``, so a printed value can equal its bound when the two
    differ past its last digit.

    Violations are warnings, not errors: synthetic or hypothetical entries
    are allowed so the search engine can be exercised across the whole
    window.
    """
    a, (c_oct, c_tet, remainder) = link.augmentations, link.volume.components()
    failed = (
        numerics.sign(c_oct - a, c_tet, remainder, ctx) < 0,
        numerics.sign(c_oct, c_tet - 10 * a, remainder, ctx) >= 0,
        numerics.sign(c_oct - 2 * (a - 1), c_tet, remainder, ctx) < 0,
    )
    vd = numerics.correctly_rounded(c_oct, c_tet, remainder, a, ctx)
    messages = (
        f"vd = {vd} lies below the spectrum floor v_oct",
        f"vd = {vd} is at or above 10*v_tet, which no fully augmented link attains",
        f"volume {link.volume.evaluate(ctx)} is below the Miyamoto bound "
        f"2*(a-1)*v_oct = {numerics.correctly_rounded(2 * (a - 1), 0, 0, 1, ctx)}",
    )
    return [Diagnostic("warning", link.name, message) for bad, message in zip(failed, messages) if bad]
