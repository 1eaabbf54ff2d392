"""Lobachevsky series against the quadrature oracle, precision contracts,
correct rounding and proven enclosures of the constants, the proven sign
and floor quotient of exact combinations, the exact tangent numbers, the
enclosure cache and exact decimal strings."""

import functools
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import ROUND_DOWN, Context, Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from fal_spectrum import (
    ConfigurationError,
    DomainError,
    ExactVolume,
    WindowClass,
    classify,
    max_augmentations_below,
)
from fal_spectrum import numerics
from fal_spectrum.numerics import (
    PrecisionContext,
    lobachevsky,
    pi,
    round_to,
    ten_v_tet,
    two_v_oct,
    v_oct,
    v_tet,
)
from helpers import PROBE_TET, pi_angle
from oracles import (
    closed_form_constants,
    lobachevsky_quadrature,
    quadrature_v_oct,
    quadrature_v_tet,
    reference_constants,
    tangent_numbers,
)

# Frozen from the quadrature oracle at 45 digits.
V_OCT_REF = Decimal("3.6638623767088760602184140597295364430965975")
V_TET_REF = Decimal("1.01494160640965362502120255427452028594168931")
LAM_PI4_REF = Decimal("0.457982797088609507527301757466192055387074687")
LAM_PI6_REF = Decimal("0.507470803204826812510601277137260142970844654")
LAM_PI3_REF = Decimal("0.338313868803217875007067518091506761980563102")


def test_context_invariants(ctx):
    assert ctx.digits == 30
    assert ctx.working_prec == 35
    assert ctx.comparison_tolerance == Decimal("1e-25")
    assert ctx.comparison_tolerance > 0


@pytest.mark.parametrize("bad", [19, 0, -3, 2.5, "30", True])
def test_precision_floor_rejected(bad):
    with pytest.raises(ConfigurationError):
        PrecisionContext(bad)


@pytest.mark.parametrize("bad", [numerics.MAX_DIGITS + 1, 100_000])
def test_precision_ceiling_rejected(bad):
    with pytest.raises(ConfigurationError, match="at most 1000 digits"):
        PrecisionContext(bad)


def test_precision_range_ends_accepted():
    assert PrecisionContext(numerics.MIN_DIGITS).digits == 20
    assert PrecisionContext(numerics.MAX_DIGITS).digits == 1000


def test_pi_reference(ctx):
    assert str(pi(ctx)).startswith("3.1415926535897932384626433832")


def test_constants_match_frozen_oracle(ctx):
    assert abs(v_oct(ctx) - V_OCT_REF) < Decimal("1e-28")
    assert abs(v_tet(ctx) - V_TET_REF) < Decimal("1e-28")
    assert str(v_oct(ctx)).startswith("3.6638623767")
    assert str(v_tet(ctx)).startswith("1.0149416064")


def test_constants_match_live_quadrature(ctx):
    assert abs(v_oct(ctx) - quadrature_v_oct(40)) < Decimal("1e-25")
    assert abs(v_tet(ctx) - quadrature_v_tet(40)) < Decimal("1e-25")


@pytest.mark.parametrize("digits", [20, 30, 40])
@pytest.mark.parametrize("num,den,ref", [(1, 6, LAM_PI6_REF), (1, 4, LAM_PI4_REF), (1, 3, LAM_PI3_REF)])
def test_series_and_quadrature_agree(digits, num, den, ref):
    ctx = PrecisionContext(digits)
    theta = pi_angle(ctx, num, den)
    series = lobachevsky(theta, ctx)
    quad = lobachevsky_quadrature(theta, digits=digits + 5)
    assert abs(series - quad) < Decimal(1).scaleb(-digits + 2)
    if digits >= 30:
        assert abs(series - ref) < Decimal(1).scaleb(-digits + 2)


def test_series_and_quadrature_agree_random_angles():
    ctx = PrecisionContext(25)
    rng = random.Random(7)
    for _ in range(5):
        theta = Decimal(rng.randrange(5_000, 15_707)) / Decimal(10_000)
        series = lobachevsky(theta, ctx)
        quad = lobachevsky_quadrature(theta, digits=32)
        assert abs(series - quad) < Decimal("1e-23")


@pytest.mark.parametrize("digits", [20, 30, 45])
def test_lambda_vanishes_at_half_pi(digits):
    # The exact value is 0; the computed one only carries series truncation
    # and guard-digit noise.
    ctx = PrecisionContext(digits)
    value = lobachevsky(pi_angle(ctx, 1, 2), ctx)
    assert abs(value) < Decimal(1).scaleb(-digits + 2)


def test_lambda_positive_inside_window(ctx):
    for num, den in [(1, 12), (1, 6), (1, 4), (1, 3), (5, 12)]:
        assert lobachevsky(pi_angle(ctx, num, den), ctx) > 0


def test_angle_domain(ctx):
    with pytest.raises(DomainError):
        lobachevsky(Decimal(0), ctx)
    with pytest.raises(DomainError):
        lobachevsky(Decimal("-0.5"), ctx)
    with pytest.raises(DomainError):
        lobachevsky(Decimal("1.6"), ctx)  # > pi/2 past tolerance
    # within tolerance of pi/2 is accepted
    theta = pi_angle(ctx, 1, 2) + Decimal("1e-26")
    lobachevsky(theta, ctx)


@pytest.mark.parametrize("digits", [20, 25, 30, 40, 60])
def test_ordering_invariants(digits):
    ctx = PrecisionContext(digits)
    assert 0 < v_oct(ctx) < two_v_oct(ctx) < ten_v_tet(ctx)
    assert 0 < v_tet(ctx) < v_oct(ctx)


@pytest.mark.parametrize("high,low", [(45, 30), (40, 20), (60, 30)])
def test_monotone_precision(high, low):
    ctx_high, ctx_low = PrecisionContext(high), PrecisionContext(low)
    for fn in (v_oct, v_tet):
        refined = fn(ctx_high)
        coarse = fn(ctx_low)
        rounded = round_to(refined, ctx_low)
        ulp = Decimal(1).scaleb(rounded.adjusted() - low + 1)
        assert abs(rounded - coarse) <= ulp


def test_decimal_text_roundtrip(ctx):
    for value in (v_oct(ctx), v_tet(ctx), two_v_oct(ctx), ten_v_tet(ctx), pi(ctx)):
        assert Decimal(str(value)) == value


def test_constant_cache_concurrent_reads():
    numerics.clear_caches()
    ctx = PrecisionContext(30)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: (v_oct(ctx), v_tet(ctx)), range(32)))
    assert len(set(results)) == 1


def test_derived_window_constants(ctx):
    # 2*v_oct < 10*v_tet keeps the dense window nonempty
    assert str(two_v_oct(ctx)).startswith("7.3277247534")
    assert str(ten_v_tet(ctx)).startswith("10.149416064")
    assert two_v_oct(ctx) < ten_v_tet(ctx)


def test_tangent_table_equals_fraction_recurrence():
    assert numerics._tangent_numbers(250) == tangent_numbers(250)


def test_constants_match_closed_forms_at_300_digits():
    ctx = PrecisionContext(300)
    voct_ref, vtet_ref = closed_form_constants(300)
    assert abs(v_oct(ctx) - voct_ref) < ctx.comparison_tolerance
    assert abs(v_tet(ctx) - vtet_ref) < ctx.comparison_tolerance


def _lambda_pair(digits):
    """(Lambda(pi/4), Lambda(pi/6)) at ``digits``."""
    ctx = PrecisionContext(digits)
    return lobachevsky(pi_angle(ctx, 1, 4), ctx), lobachevsky(pi_angle(ctx, 1, 6), ctx)


def test_lobachevsky_concurrent_calls_match_serial():
    digits = (30, 60, 120, 200, 300, 90)
    serial = {d: _lambda_pair(d) for d in digits}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(digits)) as pool:
            results = dict(zip(digits, pool.map(_lambda_pair, digits, timeout=60)))
    finally:
        sys.setswitchinterval(switch)
    assert results == serial


# ---------------------------------------------------------------------------
# Correct rounding against mpmath, and the proven enclosures behind it

REFERENCE_DIGITS = 1010
# The reference is rounded to 1010 digits; a rounding it decides must not
# change anywhere within this distance of it.
REFERENCE_SLACK = Decimal("1e-1005")
_WIDE = Context(prec=2 * REFERENCE_DIGITS)


@pytest.fixture(scope="module")
def reference():
    """(v_oct, v_tet, pi) from mpmath to REFERENCE_DIGITS digits."""
    return reference_constants(REFERENCE_DIGITS)


def _correctly_rounded(value: Decimal, digits: int) -> Decimal:
    context = Context(prec=digits)
    below = context.plus(_WIDE.subtract(value, REFERENCE_SLACK))
    above = context.plus(_WIDE.add(value, REFERENCE_SLACK))
    assert below == above, f"the reference cannot decide the rounding at {digits} digits"
    return below


def _constants_cold(digits: int) -> tuple[Decimal, ...]:
    numerics.clear_caches()
    ctx = PrecisionContext(digits)
    return v_oct(ctx), v_tet(ctx), two_v_oct(ctx), ten_v_tet(ctx)


def _expected(reference, digits: int) -> tuple[Decimal, ...]:
    voct, vtet, _ = reference
    exact = (voct, vtet, _WIDE.multiply(2, voct), _WIDE.multiply(10, vtet))
    return tuple(_correctly_rounded(value, digits) for value in exact)


def test_constants_correctly_rounded_from_20_to_400_digits(reference):
    wrong = [
        (digits, label)
        for digits in range(20, 401)
        for label, got, want in zip(
            ("v_oct", "v_tet", "2*v_oct", "10*v_tet"), _constants_cold(digits), _expected(reference, digits)
        )
        if got != want
    ]
    assert wrong == []


@pytest.mark.parametrize("digits", [500, 700, 1000])
def test_constants_correctly_rounded_at_high_precision(reference, digits):
    assert _constants_cold(digits) == _expected(reference, digits)


def test_pi_correctly_rounded(reference):
    wrong = [
        digits
        for digits in range(20, 1001)
        if pi(PrecisionContext(digits)) != _correctly_rounded(reference[2], digits)
    ]
    assert wrong == []


def test_ziv_retries_keep_correct_rounding(reference, monkeypatch):
    # One guard digit is too few for the proven bounds.  The constants settle
    # at ``digits`` with five working digits to spare, but ``sign`` must
    # separate the probe, 8.5e-33 below 2*v_oct, from 0, and at 20-30 digits
    # it doubles the guard and redoes the sums.  Every constant must still
    # come out correctly rounded and every sign be mpmath's.  Each scale
    # summed since a cold start is one miss of the enclosure cache.
    monkeypatch.setattr(numerics, "_GUARD", 1)
    voct, vtet, _ = reference
    gap = _WIDE.subtract(_WIDE.divide(_WIDE.multiply(vtet, PROBE_TET.numerator), PROBE_TET.denominator), voct)
    assert -Decimal("1e-32") < gap < 0  # probe - 2*v_oct = PROBE_TET*v_tet - v_oct
    misses = 0
    digits = range(20, 81)
    for d in digits:
        assert _constants_cold(d) == _expected(reference, d)
        numerics.clear_caches()
        assert numerics.sign(-1, PROBE_TET, 0, PrecisionContext(d)) == -1
        misses += numerics._enclosures.cache_info().misses
    assert misses > len(digits)


def test_sign_counts_a_value_unseparated_past_the_cap_as_zero(monkeypatch):
    ctx = PrecisionContext(20)  # built before the cap drops below its digits
    monkeypatch.setattr(numerics, "MAX_DIGITS", 4)
    monkeypatch.setattr(numerics, "_GUARD", 1)
    # the scale stops at 2*4 = 8 digits, too few for a gap of 8.5e-33
    assert numerics.sign(-1, PROBE_TET, 0, ctx) == 0
    probe = ExactVolume(1, PROBE_TET, 0)
    assert classify(probe, ctx) is WindowClass.DENSE_WINDOW  # counted as on 2*v_oct
    with pytest.raises(DomainError, match="reaches the dense window"):
        max_augmentations_below(probe, ctx)
    # a gap the cap can see keeps its sign, and no cap touches an exact value
    assert numerics.sign(-1, Fraction(7, 2), 0, ctx) == -1
    assert numerics.sign(0, 0, Fraction(-1, 10**5000), ctx) == -1
    assert numerics.sign(Fraction(1, 3), 0, 0, ctx) == 1


@functools.cache
def _mp_constants():
    with mpmath.workdps(90):
        return 4 * mpmath.catalan, mpmath.clsin(2, mpmath.pi / 3), mpmath.mpf(1)


def _mp_value(triple):
    """c_oct*v_oct + c_tet*v_tet + remainder by mpmath at its current precision."""
    return sum(mpmath.mpf(c.numerator) / c.denominator * v for c, v in zip(triple, _mp_constants()))


_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)


@given(st.tuples(_fractions, _fractions, _fractions))
def test_sign_matches_mpmath(triple):
    with mpmath.workdps(80):
        value = _mp_value(triple)
    assert numerics.sign(*triple, PrecisionContext(20)) == (value > 0) - (value < 0)


_positive = st.fractions(min_value=0, max_value=20, max_denominator=1000)
_triples = st.tuples(_positive, _positive, _positive).filter(any)


@given(_triples, _triples)
def test_floor_quotient_matches_mpmath(num, den):
    ratio = next(n / d for n, d in zip(num, den) if d)
    if all(n == ratio * d for n, d in zip(num, den)):
        expected = math.floor(ratio)  # x/y is rational, and mpmath may round it onto an integer
    else:
        with mpmath.workdps(80):
            expected = int(mpmath.floor(_mp_value(num) / _mp_value(den)))
    assert numerics.floor_quotient(num, den, PrecisionContext(20)) == expected


def test_correctly_rounded_retries_near_a_tie(reference):
    # v_oct + r lies within 1e-59 above a tie at 20 digits, so the first
    # enclosures straddle it and the sums are redone with more guard digits.
    voct = reference[0]
    tie = Context(prec=20, rounding=ROUND_DOWN).plus(voct) + Decimal("5e-20")
    r = _WIDE.subtract(tie, Context(prec=61, rounding=ROUND_DOWN).plus(voct))
    numerics.clear_caches()
    got = numerics.correctly_rounded(1, 0, Fraction(r), 1, PrecisionContext(20))
    assert got == _correctly_rounded(_WIDE.add(voct, r), 20) == tie.next_plus(Context(prec=20))
    assert numerics._enclosures.cache_info().misses > 1


@pytest.mark.parametrize("digits", [20, 30, 60])
@pytest.mark.parametrize("zero", [(0, 0, 0, 1), (Fraction(0), 0, Fraction(0, 7), 3)])
def test_an_exact_zero_is_one_decimal_at_every_precision(zero, digits):
    got = numerics.correctly_rounded(*zero, PrecisionContext(digits))
    assert got.as_tuple() == Decimal(0).as_tuple()
    assert str(got) == "0"


def test_clear_caches_recomputes_the_enclosures():
    ctx = PrecisionContext(30)
    numerics.clear_caches()
    v_oct(ctx)
    assert numerics._enclosures.cache_info().misses == 1
    v_tet(ctx)
    assert numerics._enclosures.cache_info().misses == 1  # one enclosure serves both constants
    numerics.clear_caches()
    assert numerics._enclosures.cache_info().currsize == 0
    v_oct(ctx)
    assert numerics._enclosures.cache_info().misses == 1


def test_proven_enclosures_contain_reference(reference):
    # Every scale in 20..400: an error bound that misses a few units of
    # rounding error shows up at some of them.
    voct, vtet, pi_ref = reference
    for frac in (*range(20, 401), 700, 1000):
        p, err = numerics._pi_scaled(frac)
        for label, (lo, hi), value in zip(
            ("v_oct", "v_tet", "pi"), (*numerics._enclosures(frac), (p - err, p + err)), (voct, vtet, pi_ref)
        ):
            assert lo < _WIDE.scaleb(value, frac) < hi, (label, frac)
            assert hi - lo < 20 * frac  # the bounds stay tight enough for Ziv's test


def _finite_decimal_denominator(den: int) -> bool:
    for prime in (2, 5):
        while den % prime == 0:
            den //= prime
    return den == 1


@given(
    st.integers(-(10**40), 10**40),
    st.integers(0, 80),
    st.integers(0, 80),
    st.sampled_from([1, 1, 3, 7, 11 * 13]),
)
def test_exact_decimal_string_is_exact_and_minimal(numerator, twos, fives, other):
    value = Fraction(numerator, 2**twos * 5**fives * other)
    text = numerics.exact_decimal_string(value)
    if not _finite_decimal_denominator(value.denominator):
        assert text is None
        return
    assert re.fullmatch(r"-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?", text), text
    assert Fraction(Decimal(text)) == value


def test_exact_decimal_string_of_long_denominators():
    assert numerics.exact_decimal_string(Fraction(-3, 10**9000)) == "-0." + "0" * 8999 + "3"
    assert numerics.exact_decimal_string(Fraction(1, 2**50)) == "0." + str(5**50).rjust(50, "0")
    assert numerics.exact_decimal_string(Fraction(7 * 10**5000)) == "7" + "0" * 5000
    assert numerics.exact_decimal_string(Fraction(1, 3 * 10**9000)) is None


@pytest.mark.parametrize("digits", [20, 30, 60, 150, 300])
def test_lobachevsky_cross_checks_constants(digits):
    ctx = PrecisionContext(digits)
    with ctx.working():
        voct = 8 * lobachevsky(pi_angle(ctx, 1, 4), ctx)
        vtet = 2 * lobachevsky(pi_angle(ctx, 1, 6), ctx)
    assert abs(voct - v_oct(ctx)) < ctx.comparison_tolerance
    assert abs(vtet - v_tet(ctx)) < ctx.comparison_tolerance
