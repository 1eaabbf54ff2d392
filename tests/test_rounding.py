"""Every printed decimal is correctly rounded, with exactly ``digits``
significant digits.

The reference is mpmath: each value is formed from 4*Catalan and
Cl_2(pi/3) at REFERENCE_DIGITS digits and rounded at the printed
precision, which must be decided within SLACK of the reference.  The
golden catalog's scan at budget 18 (5824 rows) holds S10,T*2,U*3, whose
vd_mod 7.26152362833436565545000073... rounds to ...6555 at 20 digits
(rounding at working precision first gives ...6554), and the Hi*5,L41,T
family, whose vd_mod rounds to ...133741 at 21 digits (not ...133742).
"""

import random
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from fal_spectrum import bounds, calculus, catalog, numerics
from fal_spectrum.numerics import PrecisionContext
from helpers import integer_form

REFERENCE_DIGITS = 60
SLACK = Decimal("1e-50")  # relative to the value
_WIDE = Context(prec=2 * REFERENCE_DIGITS)
GOLDEN_CATALOG = Path(__file__).parent / "golden" / "catalog.json"


@pytest.fixture(scope="module")
def golden():
    return catalog.load_catalog_file(GOLDEN_CATALOG)


@pytest.fixture(scope="module")
def constants():
    with mpmath.workdps(REFERENCE_DIGITS + 10):
        return 4 * mpmath.catalan, mpmath.clsin(2, mpmath.pi / 3)


def _reference(parts, den, constants) -> Decimal:
    """(c_oct*v_oct + c_tet*v_tet + remainder)/den by mpmath."""
    voct, vtet = constants
    with mpmath.workdps(REFERENCE_DIGITS + 10):
        c_oct, c_tet, remainder = (mpmath.mpf(x.numerator) / x.denominator for x in parts)
        value = (c_oct * voct + c_tet * vtet + remainder) / den
        return Decimal(mpmath.nstr(value, REFERENCE_DIGITS, strip_zeros=False))


def _correctly_rounded(reference: Decimal, digits: int) -> Decimal:
    context = Context(prec=digits)
    slack = _WIDE.multiply(abs(reference), SLACK)
    below = context.plus(_WIDE.subtract(reference, slack))
    assert below == context.plus(_WIDE.add(reference, slack)), "the reference cannot decide the rounding"
    return below


def _misrounded(printed, constants):
    """The (recipe, quantity, digits, text) of ``printed`` whose text is not
    the correctly rounded reference."""
    return [
        (recipe, name, digits, text)
        for recipe, name, parts, den, digits, text in printed
        if text != str(_correctly_rounded(_reference(parts, den, constants), digits))
    ]


def _densities(recipe, pair, digits):
    for name, value in zip(("vd", "vd_mod"), pair):
        yield recipe, name, value.numerator.components(), value.denominator, digits, str(value.evaluated)


@pytest.mark.parametrize("digits", [20, 21])
def test_golden_scan_densities_are_correctly_rounded(golden, constants, digits):
    rows = bounds.spectrum_scan(golden, 18, PrecisionContext(digits))
    assert len(rows) == 5824
    printed = (item for row in rows for item in _densities(row.recipe, (row.vd, row.vd_mod), digits))
    assert _misrounded(printed, constants) == []


@pytest.mark.parametrize("digits", [20, 21])
def test_golden_scan_volumes_are_correctly_rounded(golden, constants, digits):
    # the volume_decimal and vol_decimal columns of catalog list and density
    ctx = PrecisionContext(digits)
    printed = (
        (row.recipe, "volume", v.components(), 1, digits, str(numerics.correctly_rounded(v.oct, v.tet, v.rem, v.den, ctx)))
        for row in bounds.spectrum_scan(golden, 18, ctx)
        for v in [row.vd.numerator]
    )
    assert _misrounded(printed, constants) == []


def test_golden_scan_sample_is_correctly_rounded_at_22_to_40_digits(golden, constants):
    rng = random.Random(18)
    rows = bounds.spectrum_scan(golden, 18, PrecisionContext(20))
    printed = []
    for row in rng.sample(rows, 300):
        digits = rng.randint(22, 40)
        c = calculus.parse_recipe(row.recipe, golden)
        printed.extend(_densities(row.recipe, calculus.densities(c, PrecisionContext(digits)), digits))
    assert _misrounded(printed, constants) == []


@pytest.mark.parametrize(
    "parts,den",
    [
        ((2, -7, 0), 1),  # signed coefficients: 2*v_oct - 7*v_tet
        ((-1, 3, Fraction(1, 3)), 7),
        ((Fraction(1, 10**40), 0, 0), 1),
        ((1, 1, Fraction(10**400)), 3),
    ],
)
@pytest.mark.parametrize("digits", [20, 33, 47])
def test_evaluator_matches_mpmath(constants, parts, den, digits):
    expected = _correctly_rounded(_reference([Fraction(x) for x in parts], den, constants), digits)
    got = numerics.correctly_rounded(*integer_form(*parts, den), PrecisionContext(digits))
    assert str(got) == str(expected)


@pytest.mark.parametrize(
    "remainder,den,text",
    [
        (Fraction(1, 3), 1, "0.33333333333333333333"),
        (Fraction(3, 2 * 10**20), 1, "1.5000000000000000000E-20"),
        (Fraction(15, 10), 2, "0.75000000000000000000"),
        (Fraction(10**5000), 3, "3.3333333333333333333E+4999"),
    ],
)
def test_exact_rationals_keep_every_digit(remainder, den, text):
    assert str(numerics.correctly_rounded(*integer_form(0, 0, remainder, den), PrecisionContext(20))) == text


def test_ziv_loop_settles_a_value_just_past_a_midpoint(monkeypatch):
    # 1 + 5e-20 + 1e-40 is 1e-40 above a rounding midpoint at 20 digits, too
    # close for the first scale, so the loop must double the guard digits.
    settled = []
    settle = numerics._settle

    def counted(lo, hi, frac, context):
        settled.append(settle(lo, hi, frac, context))
        return settled[-1]

    monkeypatch.setattr(numerics, "_settle", counted)
    value = Fraction("1.00000000000000000005") + Fraction(1, 10**40)
    assert str(numerics.correctly_rounded(*integer_form(0, 0, value), PrecisionContext(20))) == "1.0000000000000000001"
    assert settled[0] is None and len(settled) > 1
