"""Belted-sum composition calculus and the two volume densities.

Belted sums of base links form a commutative monoid at the value level:
volumes add, and modified augmentation counts (a - 1) add.  A composition
is therefore canonically a multiset of base links with multiplicities;
the order in which sums were taken is irrelevant and two recipes are
equal exactly when their multisets agree.  The totals vol(c) and a(c) - 1
are therefore fixed when the multiset is built: composition() computes
them once, and every later query reads them.

For a composition c with volume vol(c) and augmentation count a(c):

    vd(c)     = vol(c) / a(c)          (volume density)
    vd_mod(c) = vol(c) / (a(c) - 1)    (modified volume density)

Both carry an exact form (an ExactVolume numerator over an integer
denominator) next to their evaluated decimal, so identities such as the
invariance of vd_mod under self-sums hold with zero tolerance whenever
the inputs are exact.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from decimal import Decimal
from fractions import Fraction

from . import numerics
from ._frozen import Frozen
from .catalog import BaseLink, Catalog, ExactVolume
from .errors import DomainError
from .numerics import PrecisionContext

__all__ = [
    "Composition",
    "DensityValue",
    "belted_sum",
    "composition",
    "densities",
    "exact_combo_string",
    "format_recipe",
    "parse_recipe",
    "replicate",
    "replication_error",
    "self_sum",
    "vd",
    "vd_mod",
    "volume",
]


class Composition(Frozen):
    """Multiset of (base link, multiplicity) pairs with its total volume and
    a - 1; build via composition(), which alone computes the totals.
    Compositions are equal, and hash, by their parts alone."""

    __slots__ = ("parts", "volume", "atilde")

    def __init__(self, parts: tuple[tuple[BaseLink, int], ...], volume: ExactVolume, atilde: int) -> None:
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "volume", volume)
        object.__setattr__(self, "atilde", atilde)

    def _key(self) -> tuple:
        return (self.parts,)


def composition(parts: Mapping[BaseLink, int] | Iterable[tuple[BaseLink, int]]) -> Composition:
    items = parts.items() if isinstance(parts, Mapping) else parts
    merged: dict[BaseLink, int] = {}
    c_oct = c_tet = remainder = Fraction(0)
    atilde = 0
    for link, multiplicity in items:
        if not isinstance(link, BaseLink):
            raise DomainError(f"composition parts must be BaseLink, got {type(link).__name__}")
        numerics.parse_count(multiplicity, f"multiplicity for {link.name}")
        merged[link] = merged.get(link, 0) + multiplicity
        part = link.volume
        if part.c_oct:
            c_oct += part.c_oct * multiplicity
        if part.c_tet:
            c_tet += part.c_tet * multiplicity
        if part.remainder:
            remainder += part.remainder * multiplicity
        atilde += link.atilde * multiplicity
    if not merged:
        raise DomainError("a composition needs at least one part")
    ordered = tuple(sorted(merged.items(), key=lambda item: item[0].sort_key()))
    return Composition(ordered, ExactVolume(c_oct, c_tet, remainder), atilde)


def belted_sum(x: Composition, y: Composition) -> Composition:
    """Multiset union; multiplicities add for shared base links."""
    return composition(x.parts + y.parts)


def self_sum(link: BaseLink, k: int) -> Composition:
    """k copies of one link."""
    return composition({link: k})


def replicate(c: Composition, m: int) -> Composition:
    """m copies of the whole composition."""
    numerics.parse_count(m, "replication count")
    return composition({link: k * m for link, k in c.parts})


def volume(c: Composition) -> ExactVolume:
    """Total volume: volumes add under belted sum."""
    return c.volume


class DensityValue(Frozen):
    """A density with exact form (numerator volume / integer denominator)
    alongside its evaluated decimal."""

    __slots__ = ("numerator", "denominator", "evaluated")

    def __init__(self, numerator: ExactVolume, denominator: int, evaluated: Decimal) -> None:
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "evaluated", evaluated)

    def exact_parts(self) -> tuple[Fraction, Fraction, Fraction]:
        """(c_oct, c_tet, remainder) of the density itself, exact."""
        d = self.denominator
        n = self.numerator
        return (n.c_oct / d, n.c_tet / d, n.remainder / d)

    def exact_string(self, ctx: PrecisionContext) -> str:
        oct_part, tet_part, rem_part = self.exact_parts()
        return exact_combo_string(oct_part, tet_part, rem_part, ctx)


def exact_combo_string(
    c_oct: Fraction, c_tet: Fraction, remainder: Fraction, ctx: PrecisionContext
) -> str:
    """Render "p/q*voct+r/s*vtet+rem"; the remainder is exact when it has a
    finite decimal form and correctly rounded otherwise."""
    rem = numerics.exact_decimal_string(remainder)
    if rem is None:
        rem = str(numerics.correctly_rounded(0, 0, remainder, 1, ctx))
    return f"{numerics.rational_string(c_oct)}*voct+{numerics.rational_string(c_tet)}*vtet+{rem}"


def vd(c: Composition, ctx: PrecisionContext) -> DensityValue:
    """Volume density vol/a."""
    return densities(c, ctx)[0]


def vd_mod(c: Composition, ctx: PrecisionContext) -> DensityValue:
    """Modified volume density vol/(a-1)."""
    return densities(c, ctx)[1]


def densities(c: Composition, ctx: PrecisionContext) -> tuple[DensityValue, DensityValue]:
    """(vd(c), vd_mod(c)), each correctly rounded."""
    parts = c.volume.components()
    return tuple(
        DensityValue(c.volume, den, numerics.correctly_rounded(*parts, den, ctx))
        for den in (c.atilde + 1, c.atilde)
    )


def replication_error(c: Composition, m: int, ctx: PrecisionContext) -> Decimal:
    """Exact gap vd_mod(c^(m)) - vd(c^(m)) = vd_mod(c) / (m * (a-1) + 1)."""
    numerics.parse_count(m, "replication count")
    return numerics.correctly_rounded(*c.volume.components(), c.atilde * (m * c.atilde + 1), ctx)


# ---------------------------------------------------------------------------
# Recipe strings: comma-separated name*multiplicity, multiplicity defaults to 1

def parse_recipe(text: str, catalog: Catalog) -> Composition:
    parts = []
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            raise DomainError(f"empty part in recipe {text!r}")
        name, star, mult_text = token.partition("*")
        name = name.strip()
        mult_text = mult_text.strip()
        if star and not (mult_text.isascii() and mult_text.isdigit()):
            raise DomainError(f"bad multiplicity in recipe part {token!r}")
        try:
            multiplicity = int(mult_text) if star else 1
        except ValueError:  # more digits than int() converts
            raise DomainError(f"bad multiplicity in recipe part {token!r}") from None
        parts.append((catalog[name], multiplicity))
    return composition(parts)


def format_recipe(c: Composition) -> str:
    return ",".join(
        link.name if k == 1 else f"{link.name}*{numerics.rational_string(k)}" for link, k in c.parts
    )
