"""The input boundary: every public entry point refuses a bad number or count
with a FalSpectrumError that names the argument, never a raw ValueError,
OverflowError or decimal.InvalidOperation, and never by running on."""

from decimal import Decimal
from fractions import Fraction

import pytest

from fal_spectrum import (
    Catalog,
    CatalogError,
    DomainError,
    ExactVolume,
    FalSpectrumError,
    approximate_vd,
    approximate_vd_mod,
    best_rational_approximations,
    classify,
    max_augmentations_below,
    spectrum_scan,
)
from fal_spectrum.numerics import PrecisionContext
from helpers import make_link

CTX = PrecisionContext(30)
L41 = Catalog()["L41"]
S10 = make_link("S10", remainder="50", a=6)

# entry point name -> (call with the bad value, argument named in the error, error class)
NUMBER_ENTRY_POINTS = {
    "ExactVolume": (lambda v: ExactVolume(c_oct=v), "c_oct", CatalogError),
    "ExactVolume.from_fields": (lambda v: ExactVolume.from_fields(remainder=v), "remainder", CatalogError),
    "classify": (lambda v: classify(v, CTX), "density", DomainError),
    "max_augmentations_below": (lambda v: max_augmentations_below(v, CTX), "density", DomainError),
    "approximate_vd": (lambda v: approximate_vd(Decimal(9), L41, S10, v, CTX), "eps", DomainError),
    "approximate_vd-target": (lambda v: approximate_vd(v, L41, S10, Decimal("1e-6"), CTX), "target", DomainError),
    "approximate_vd_mod-target": (
        lambda v: approximate_vd_mod(v, L41, S10, Decimal("1e-6"), CTX), "target", DomainError
    ),
    "approximate_vd_mod-eps": (lambda v: approximate_vd_mod(Decimal(9), L41, S10, v, CTX), "eps", DomainError),
}

BAD_NUMBERS = {
    "float": 1.5,
    "nan": Decimal("NaN"),
    "infinity": Decimal("Infinity"),
    "minus-infinity": Decimal("-Infinity"),
    "abc": "abc",
    "exponent-str": "1e10001",
    "exponent-decimal": Decimal("1e10001"),
    "bool": True,
}

COUNT_ENTRY_POINTS = {
    "spectrum_scan-max_rows": (lambda v: spectrum_scan(Catalog(), 3, CTX, max_rows=v), "max_rows"),
    "best_rational_approximations-max_denominator": (
        lambda v: best_rational_approximations(Fraction(3, 2), max_denominator=v), "max_denominator"
    ),
}

BAD_COUNTS = {"bool": True, "negative": -5, "float": 2.5}


@pytest.mark.parametrize("value", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
@pytest.mark.parametrize("entry", list(NUMBER_ENTRY_POINTS))
def test_bad_number_is_refused_at_the_boundary(entry, value):
    call, what, error = NUMBER_ENTRY_POINTS[entry]
    with pytest.raises(FalSpectrumError, match=what) as info:
        call(value)
    assert isinstance(info.value, error)


@pytest.mark.parametrize("value", list(BAD_COUNTS.values()), ids=list(BAD_COUNTS))
@pytest.mark.parametrize("entry", list(COUNT_ENTRY_POINTS))
def test_bad_count_is_refused_at_the_boundary(entry, value):
    call, what = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=what):
        call(value)


@pytest.mark.parametrize(
    "value",
    ["1.5e-10000", Decimal("1.5e-10000"), "0." + "0" * 10000 + "1"],
    ids=["str", "decimal", "no-exponent-written"],
)
def test_fractional_digits_count_toward_the_exponent(value):
    # the Decimal's own exponent is -10001 in each case
    with pytest.raises(CatalogError, match="exponent out of range"):
        ExactVolume.from_fields(remainder=value)


def test_a_rational_past_the_int_digit_limit_is_refused_as_too_many_digits():
    # int() refuses a 5000-digit numerator; the message names that, not the value
    with pytest.raises(CatalogError, match="^c_oct: too many digits$"):
        ExactVolume(c_oct="1" * 5000 + "/3")


def test_exact_components_pass_straight_through():
    third = Fraction(1, 3)
    volume = ExactVolume(third, 2, Fraction(0))
    assert volume.c_oct is third
    assert volume.components() == (third, Fraction(2), Fraction(0))
