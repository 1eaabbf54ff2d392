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
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from fal_spectrum import bounds, calculus, catalog, numerics
from fal_spectrum.numerics import PrecisionContext
from helpers import integer_form
from oracles import settled_rounding

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
        (Fraction("1.00000000000000000005") + Fraction(1, 10**40), 1, "1.0000000000000000001"),  # past a tie
    ],
)
def test_exact_rationals_keep_every_digit(remainder, den, text):
    assert str(numerics.correctly_rounded(*integer_form(0, 0, remainder, den), PrecisionContext(20))) == text


def test_ziv_loop_settles_a_value_just_past_a_midpoint(constants, monkeypatch):
    # v_oct + r lies within 1e-40 above a rounding midpoint at 20 digits, too
    # close for the first enclosure, so that den alone redoes the enclosure with
    # doubled guard digits; half the value is far from every midpoint and
    # settles from the first enclosure.
    voct = Decimal(mpmath.nstr(constants[0], REFERENCE_DIGITS + 5))
    tie = Context(prec=20, rounding=ROUND_DOWN).plus(voct) + Decimal("5e-20")
    r = _WIDE.subtract(tie, Context(prec=41, rounding=ROUND_DOWN).plus(voct))
    a, b, rem, den = integer_form(1, 0, r)
    enclosed, settled = [], []
    enclose, settle = numerics._enclose, numerics._settle
    monkeypatch.setattr(numerics, "_enclose", lambda *args: enclosed.append(args) or enclose(*args))
    monkeypatch.setattr(numerics, "_settle", lambda *args: settled.append(settle(*args)) or settled[-1])
    got = numerics.rounded_over(a, b, rem, (den, 2 * den), PrecisionContext(20))
    assert got == [tie.next_plus(Context(prec=20)), _correctly_rounded(_WIDE.divide(_WIDE.add(voct, r), 2), 20)]
    assert settled[0] is None and None not in settled[1:] and len(settled) == 3
    assert len(enclosed) == 2 and enclosed[1][3] > enclosed[0][3]


_signed = st.one_of(st.just(0), st.integers(-(10**6), 10**6), st.integers(-(10**40), 10**40))
_dens = st.one_of(
    st.integers(1, 10**15),
    st.builds(lambda i, j, k: 2**i * 5**j * k, st.integers(0, 60), st.integers(0, 60), st.sampled_from([1, 3, 7])),
)


@settings(max_examples=400)
@given(_signed, _signed, _signed, st.lists(_dens, min_size=1, max_size=3), st.sampled_from([20, 30, 60, 200]))
@example(0, 0, 3, [4, 10**25, 1], 20)  # exact quotients keep their trailing zeros
@example(0, 0, 1, [10**40], 30)
@example(0, 0, 0, [1, 7], 60)  # an exact zero
@example(0, 0, -(10**30), [1, 3], 20)
@example(2, -7, 0, [1, 2 * 10**9], 200)
def test_evaluator_matches_the_settled_reference(a, b, r, dens, digits):
    got = numerics.rounded_over(a, b, r, dens, PrecisionContext(digits))
    assert [str(value) for value in got] == [str(settled_rounding(a, b, r, den, digits)) for den in dens]


def test_a_scan_row_costs_at_most_one_enclosure(golden, monkeypatch):
    # vd and vd_mod round one enclosure of the row's volume (none for a
    # volume without v_oct or v_tet), and the exact strings' remainders are
    # decimal divisions; a retry near a tie would add one, and the golden
    # scan needs none at 30 digits.
    ctx = PrecisionContext(30)
    numerics.v_oct(ctx)  # the enclosure cache warm
    enclosed = []
    enclose = numerics._enclose
    monkeypatch.setattr(numerics, "_enclose", lambda *args: enclosed.append(args[3]) or enclose(*args))
    rows = bounds.spectrum_scan(golden, 20, ctx)
    texts = [value.exact_string(ctx) for row in rows for value in (row.vd, row.vd_mod)]
    assert len(rows) == 9279 and len(texts) == 2 * 9279
    assert len(enclosed) <= len(rows)
