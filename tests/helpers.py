"""Small construction helpers shared by the test modules."""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction

from fal_spectrum import BaseLink, Catalog, CatalogError, ExactVolume
from fal_spectrum.numerics import PrecisionContext, _pi_at, exact_decimal_string

# v_oct + PROBE_TET*v_tet lies 8.5e-33 below 2*v_oct (mpmath), closer than the
# comparison tolerance at 20 and 30 digits.
PROBE_TET = Fraction(26507018463176257, 7342818352340129)


def make_link(name, c_oct=0, c_tet=0, remainder="0", a=2, note="synthetic test link"):
    volume = ExactVolume.from_fields(str(c_oct), str(c_tet), remainder)
    return BaseLink(name=name, volume=volume, augmentations=a, note=note)


def pi_angle(ctx: PrecisionContext, numerator: int, denominator: int) -> Decimal:
    """numerator*pi/denominator formed at working precision, so the angle
    itself does not eat into the comparison budget."""
    with ctx.working():
        return _pi_at(ctx.working_prec) * numerator / denominator


def integer_form(c_oct, c_tet, remainder, den: int = 1) -> tuple[int, int, int, int]:
    """(a, b, r, d): rational components and a denominator as the ints that
    numerics evaluates, (a*v_oct + b*v_tet + r)/d."""
    parts = [Fraction(x) for x in (c_oct, c_tet, remainder)]
    common = math.lcm(*(x.denominator for x in parts))
    return (*(x.numerator * (common // x.denominator) for x in parts), den * common)


def remainder_decimal_string(volume: ExactVolume) -> str:
    text = exact_decimal_string(volume.rem, volume.den)
    if text is None:
        raise CatalogError(f"remainder {volume.remainder} has no finite decimal form")
    return text


def save_catalog(catalog: Catalog) -> str:
    """Serialize to the catalog file format; load_catalog(save_catalog(c)) == c."""
    doc = {
        "links": [
            {
                "name": link.name,
                "c_oct": str(link.volume.c_oct),
                "c_tet": str(link.volume.c_tet),
                "remainder": remainder_decimal_string(link.volume),
                "a": link.augmentations,
                "note": link.note,
            }
            for link in catalog
        ]
    }
    return json.dumps(doc, indent=2) + "\n"
