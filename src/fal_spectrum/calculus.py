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
the inputs are exact.  All of it is int arithmetic: the parts' volumes
are put over one common denominator D, the totals are int sums over D,
and a density is those totals over D*a or D*(a-1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from decimal import Decimal
from fractions import Fraction

from . import numerics
from ._frozen import Frozen
from .catalog import BaseLink, Catalog, ExactVolume
from .errors import DomainError
from .numerics import PrecisionContext

__all__ = [
    "Composition", "DensityValue", "belted_sum", "composition", "densities", "exact_combo_string",
    "format_recipe", "parse_recipe", "replicate", "replication_error", "self_sum", "vd", "vd_mod",
    "volume",
]


class Composition(Frozen):
    """Multiset of (base link, multiplicity) pairs with its total volume and
    a - 1; build via composition(), which alone computes the totals.
    Compositions are equal, and hash, by their parts alone."""

    __slots__ = ("parts", "volume", "atilde")

    def _key(self) -> tuple:
        return (self.parts,)


def composition(parts: Mapping[BaseLink, int] | Iterable[tuple[BaseLink, int]]) -> Composition:
    items = parts.items() if isinstance(parts, Mapping) else parts
    merged: dict[BaseLink, int] = {}
    for link, multiplicity in items:
        if not isinstance(link, BaseLink):
            raise DomainError(f"composition parts must be BaseLink, got {type(link).__name__}")
        numerics.parse_count(multiplicity, f"multiplicity for {link.name}")
        merged[link] = merged.get(link, 0) + multiplicity
    if not merged:
        raise DomainError("a composition needs at least one part")
    den, volumes = _common_denominator(merged)
    totals = [sum(k * v[i] for k, v in zip(merged.values(), volumes)) for i in range(3)]
    atilde = sum(link.atilde * k for link, k in merged.items())
    ordered = tuple(sorted(merged.items(), key=lambda item: item[0].sort_key()))
    return Composition(ordered, ExactVolume.over(*totals, den), atilde)


def _common_denominator(links: Iterable[BaseLink]) -> tuple[int, list[tuple[int, int, int]]]:
    """(D, ints): the least common denominator D of the links' volumes and
    each volume's (oct, tet, rem) over D, in the links' order."""
    volumes = [link.volume for link in links]
    den = math.lcm(*(v.den for v in volumes))
    return den, [(v.oct * (den // v.den), v.tet * (den // v.den), v.rem * (den // v.den)) for v in volumes]


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

    def exact_parts(self) -> tuple[Fraction, Fraction, Fraction]:
        """(c_oct, c_tet, remainder) of the density itself, exact."""
        n = self.numerator
        d = n.den * self.denominator
        return (Fraction(n.oct, d), Fraction(n.tet, d), Fraction(n.rem, d))

    def exact_string(self, ctx: PrecisionContext) -> str:
        n = self.numerator
        return exact_combo_string(n.oct, n.tet, n.rem, n.den * self.denominator, ctx)


def exact_combo_string(oct: int, tet: int, rem: int, den: int, ctx: PrecisionContext) -> str:
    """Render (oct*v_oct + tet*v_tet + rem)/den, ints over a positive den, as
    "p/q*voct+r/s*vtet+rem", each rational in lowest terms; the remainder is
    exact when it has a finite decimal form and correctly rounded otherwise."""
    text = numerics.exact_decimal_string(rem, den)
    if text is None:
        text = str(numerics._quotient(rem, den, ctx.digits))
    return f"{numerics.rational_string(oct, den)}*voct+{numerics.rational_string(tet, den)}*vtet+{text}"


def vd(c: Composition, ctx: PrecisionContext) -> DensityValue:
    """Volume density vol/a."""
    return densities(c, ctx)[0]


def vd_mod(c: Composition, ctx: PrecisionContext) -> DensityValue:
    """Modified volume density vol/(a-1)."""
    return densities(c, ctx)[1]


def densities(c: Composition, ctx: PrecisionContext) -> tuple[DensityValue, DensityValue]:
    """(vd(c), vd_mod(c)), each correctly rounded."""
    return _density_pair(c.volume, c.atilde, ctx)


def _density_pair(volume: ExactVolume, atilde: int, ctx: PrecisionContext) -> tuple[DensityValue, DensityValue]:
    """(vol/(atilde+1), vol/atilde), each correctly rounded from one enclosure of the volume's ints."""
    den = volume.den
    vd, vd_mod = numerics.rounded_over(volume.oct, volume.tet, volume.rem, (den * (atilde + 1), den * atilde), ctx)
    return DensityValue(volume, atilde + 1, vd), DensityValue(volume, atilde, vd_mod)


def replication_error(c: Composition, m: int, ctx: PrecisionContext) -> Decimal:
    """Exact gap vd_mod(c^(m)) - vd(c^(m)) = vd_mod(c) / (m * (a-1) + 1)."""
    numerics.parse_count(m, "replication count")
    v = c.volume
    return numerics.correctly_rounded(v.oct, v.tet, v.rem, v.den * c.atilde * (m * c.atilde + 1), ctx)


# ---------------------------------------------------------------------------
# Recipe strings: comma-separated name*multiplicity, multiplicity defaults to 1

def parse_recipe(text: str, catalog: Catalog) -> Composition:
    parts = []
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            raise DomainError(f"empty part in recipe {numerics._shown(text)}")
        name, star, mult_text = token.partition("*")
        name = name.strip()
        mult_text = mult_text.strip()
        if star and not (mult_text.isascii() and mult_text.isdigit()):
            raise DomainError(f"bad multiplicity in recipe part {numerics._shown(token)}")
        try:
            multiplicity = int(mult_text) if star else 1
        except ValueError:  # more digits than int() converts
            raise DomainError(f"bad multiplicity in recipe part {numerics._shown(token)}") from None
        parts.append((catalog[name], multiplicity))
    return composition(parts)


def format_recipe(c: Composition) -> str:
    return ",".join(
        link.name if k == 1 else f"{link.name}*{numerics.rational_string(k)}" for link, k in c.parts
    )
