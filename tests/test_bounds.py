"""Euler counts, Miyamoto-derived bounds, certificates, window classes, scan."""

import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from fal_spectrum import (
    CapExceededError,
    Catalog,
    DomainError,
    ExactVolume,
    WindowClass,
    builtin_catalog,
    classify,
    euler_characteristic,
    max_augmentations_below,
    miyamoto_volume_lower_bound,
    spectrum_scan,
    vd,
    vd_lower_bound,
    self_sum,
)
from fal_spectrum import calculus, numerics
from fal_spectrum.numerics import PrecisionContext, round_to, ten_v_tet, two_v_oct, v_oct
from helpers import PROBE_TET, make_link
from oracles import count_scan_rows


@pytest.mark.parametrize("a,chi", [(2, -1), (3, -2), (10, -9), (1000, -999)])
def test_euler_characteristic(a, chi):
    assert euler_characteristic(a) == chi


@pytest.mark.parametrize("bad", [1, 0, -5, 2.0, "3", True])
def test_augmentation_domain(bad, ctx):
    with pytest.raises(DomainError):
        euler_characteristic(bad)
    with pytest.raises(DomainError):
        miyamoto_volume_lower_bound(bad, ctx)
    with pytest.raises(DomainError):
        vd_lower_bound(bad, ctx)


def test_miyamoto_bound_values(ctx, l41):
    assert miyamoto_volume_lower_bound(2, ctx) == two_v_oct(ctx)
    assert str(miyamoto_volume_lower_bound(2, ctx)).startswith("7.327724753")
    # the builtin figure-eight attains the bound exactly
    assert round_to(l41.volume.evaluate(ctx), ctx) == miyamoto_volume_lower_bound(2, ctx)
    with ctx.working():
        assert abs(miyamoto_volume_lower_bound(3, ctx) - 2 * two_v_oct(ctx)) <= ctx.comparison_tolerance


def test_vd_lower_bound_values(ctx):
    assert vd_lower_bound(2, ctx) == v_oct(ctx)
    with ctx.working():
        expected = 3 * v_oct(ctx) / 2
        assert abs(vd_lower_bound(4, ctx) - expected) <= ctx.comparison_tolerance


def test_vd_lower_bound_monotone_below_two_voct(ctx):
    samples = [2, 3, 4, 7, 19, 120, 10_000, 1_000_000]
    values = [vd_lower_bound(a, ctx) for a in samples]
    assert values == sorted(values)
    assert all(value < two_v_oct(ctx) for value in values)


# ---------------------------------------------------------------------------
# certificates

def test_certificates_at_exact_thresholds(ctx):
    with ctx.working():
        voct = v_oct(ctx)
        assert max_augmentations_below(voct, ctx).max_augmentations == 2
        assert max_augmentations_below(Decimal("1.5") * voct, ctx).max_augmentations == 4
        assert max_augmentations_below(Decimal("1.9") * voct, ctx).max_augmentations == 20


def test_certificate_statement_and_threshold(ctx):
    certificate = max_augmentations_below(Decimal("5.5"), ctx)
    assert certificate.max_augmentations == 4
    assert "a(L) <= 4" in certificate.statement
    assert str(certificate.threshold).startswith("5.5")


def test_certificate_requires_discrete_window(ctx):
    with pytest.raises(DomainError, match="below the spectrum floor"):
        max_augmentations_below(Decimal("3.0"), ctx)
    with pytest.raises(DomainError, match="no finite certificate"):
        max_augmentations_below(two_v_oct(ctx), ctx)
    with pytest.raises(DomainError, match="no finite certificate"):
        max_augmentations_below(Decimal("7.33"), ctx)


def test_certificate_exact_input_near_boundary(ctx):
    # exact thresholds are accepted anywhere strictly inside the window
    certificate = max_augmentations_below(ExactVolume(c_oct=Fraction(19, 10)), ctx)
    assert certificate.max_augmentations == 20
    with pytest.raises(DomainError):
        max_augmentations_below(ExactVolume(c_oct=2), ctx)


def test_certificate_soundness_and_tightness_sampled(ctx):
    rng = random.Random(42)
    with ctx.working():
        voct = v_oct(ctx)
        for _ in range(200):
            d = voct * (1 + Decimal(rng.randrange(0, 10**9)) / Decimal(10**9))
            certificate = max_augmentations_below(d, ctx)
            n = certificate.max_augmentations
            assert vd_lower_bound(n, ctx) <= d
            assert vd_lower_bound(n + 1, ctx) > d


# ---------------------------------------------------------------------------
# window classification

def test_classify_boundaries_exactly(ctx):
    assert classify(ExactVolume(c_oct=1), ctx) is WindowClass.DISCRETE_WINDOW
    assert classify(ExactVolume(c_oct=2), ctx) is WindowClass.DENSE_WINDOW
    assert classify(ExactVolume(c_tet=10), ctx) is WindowClass.AT_OR_ABOVE_UPPER_BOUND
    assert classify(ExactVolume(c_oct=Fraction(1, 2)), ctx) is WindowClass.BELOW_SPECTRUM


def test_classify_decimals_with_tolerance(ctx):
    assert classify(Decimal("1.0"), ctx) is WindowClass.BELOW_SPECTRUM
    assert classify(v_oct(ctx), ctx) is WindowClass.DISCRETE_WINDOW
    assert classify(Decimal("5.0"), ctx) is WindowClass.DISCRETE_WINDOW
    assert classify(Decimal("9.0"), ctx) is WindowClass.DENSE_WINDOW
    assert classify(two_v_oct(ctx), ctx) is WindowClass.DENSE_WINDOW
    assert classify(ten_v_tet(ctx), ctx) is WindowClass.AT_OR_ABOVE_UPPER_BOUND
    assert classify(Decimal("42"), ctx) is WindowClass.AT_OR_ABOVE_UPPER_BOUND


def test_classify_density_values(ctx, l41):
    assert classify(vd(self_sum(l41, 1), ctx), ctx) is WindowClass.DISCRETE_WINDOW


def test_classify_is_a_partition(ctx):
    probes = [Decimal(i) / 4 for i in range(0, 48)]
    for probe in probes:
        assert isinstance(classify(probe, ctx), WindowClass)


# ---------------------------------------------------------------------------
# decisions on exact input near a boundary, against mpmath

def _mp_probe(remainder=0):
    """(2*v_oct - probe, probe) by mpmath at 120 digits."""
    with mpmath.workdps(120):
        voct = 4 * mpmath.catalan
        value = voct + PROBE_TET.numerator * mpmath.clsin(2, mpmath.pi / 3) / PROBE_TET.denominator
        value += mpmath.mpf(remainder.numerator) / remainder.denominator if remainder else 0
        return 2 * voct - value, value


@pytest.mark.parametrize("digits", [20, 30, 40])
def test_probe_below_two_voct_is_discrete(digits):
    assert 0 < _mp_probe()[0] < mpmath.mpf("1e-32")
    probe = ExactVolume(1, PROBE_TET, 0)
    assert classify(probe, PrecisionContext(digits)) is WindowClass.DISCRETE_WINDOW


@pytest.mark.parametrize("digits", [20, 30, 40])
def test_probe_mirror_above_two_voct_is_dense(digits):
    remainder = Fraction(1, 10**32)
    assert -mpmath.mpf("1e-32") < _mp_probe(remainder)[0] < 0
    mirror = ExactVolume(1, PROBE_TET, remainder)
    assert classify(mirror, PrecisionContext(digits)) is WindowClass.DENSE_WINDOW


@pytest.mark.parametrize("digits", [20, 30, 40])
def test_probe_certificate_is_the_exact_floor(digits):
    gap, value = _mp_probe()
    with mpmath.workdps(120):
        expected = int(mpmath.floor((value + gap) / gap))  # 2*v_oct / (2*v_oct - t)
    assert expected == 862029258296913429903366667497505
    certificate = max_augmentations_below(ExactVolume(1, PROBE_TET, 0), PrecisionContext(digits))
    assert certificate.max_augmentations == expected


def test_certificate_for_an_exact_threshold_a_thousand_digits_below_two_voct(ctx):
    # 2*v_oct/(2*v_oct - t) is the integer 2e1020: the quotient's floor is
    # decided by an exact zero, not by a tolerance
    threshold = ExactVolume(c_oct=2 - Fraction(1, 10**1020))
    assert max_augmentations_below(threshold, ctx).max_augmentations == 2 * 10**1020


def test_certificate_ladder_rungs_bracket_their_thresholds(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    import certificate_ladder

    steps = 12
    assert certificate_ladder.main(["--steps", str(steps)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == steps
    ctx = PrecisionContext(30)
    with ctx.working():
        voct = v_oct(ctx)
        thresholds = [voct * (1 + Decimal(i) / steps) for i in range(steps)]
    with mpmath.workdps(60):
        two_voct = 8 * mpmath.catalan
        for row, threshold in zip(rows, thresholds):
            printed, n = row.split()[:2]
            assert printed == str(threshold)[:12]
            # the rule for a decimal threshold: widened by the context tolerance
            t = mpmath.mpf(str(threshold)) + mpmath.mpf(str(ctx.comparison_tolerance))
            n = int(n)
            assert two_voct * (n - 1) / n <= t < two_voct * n / (n + 1)


# ---------------------------------------------------------------------------
# spectrum scan

def test_scan_builtin_budget_three(ctx):
    rows = spectrum_scan(builtin_catalog(), 3, ctx)
    assert [row.recipe for row in rows] == ["L41", "L41*2", "L41*3"]
    assert [row.vd.exact_parts()[0] for row in rows] == [
        Fraction(1),
        Fraction(4, 3),
        Fraction(6, 4),
    ]
    assert [row.a for row in rows] == [2, 3, 4]


def test_scan_budget_one_lists_unit_atilde_entries(ctx):
    cat = Catalog.from_links([make_link("S", c_tet=50, a=6)])
    rows = spectrum_scan(cat, 1, ctx)
    assert [row.recipe for row in rows] == ["L41"]


def test_scan_two_link_catalog_counts(ctx):
    cat = Catalog.from_links([make_link("P", c_oct=4, a=3)])  # atilde 2 next to L41's 1
    rows = spectrum_scan(cat, 3, ctx)
    assert {row.recipe for row in rows} == {"L41", "L41,P", "L41*2", "L41*3", "P"}


def test_scan_rows_sorted_and_bounded(ctx):
    rows = spectrum_scan(builtin_catalog(), 20, ctx)
    densities = [row.vd.evaluated for row in rows]
    assert densities == sorted(densities)
    assert all(d < two_v_oct(ctx) for d in densities)
    assert all(row.vd.evaluated >= vd_lower_bound(row.a, ctx) - ctx.comparison_tolerance for row in rows)
    # below 2*v_oct the values stay isolated: every gap at least the one
    # between the last two rows, 2*v_oct/(20*21)
    with ctx.working():
        floor_gap = two_v_oct(ctx) / (20 * 21) - ctx.comparison_tolerance
    gaps = [b - a for a, b in zip(densities, densities[1:])]
    assert all(gap >= floor_gap for gap in gaps)


def test_scan_cap(ctx):
    cat = Catalog.from_links([make_link("P", c_oct=4, a=3), make_link("Q", c_oct=6, a=4)])
    with pytest.raises(CapExceededError, match="rows"):
        spectrum_scan(cat, 60, ctx, max_rows=10)


def test_scan_rejects_bad_budget(ctx):
    with pytest.raises(DomainError):
        spectrum_scan(builtin_catalog(), 0, ctx)


def test_scan_deterministic(ctx):
    first = spectrum_scan(builtin_catalog(), 12, ctx)
    second = spectrum_scan(builtin_catalog(), 12, ctx)
    assert first == second


_SCAN_CATALOGS = {
    "builtin": [],
    "atilde-1-2": [make_link("P", c_oct=4, a=3)],
    "atilde-1-2-3": [make_link("P", c_oct=4, a=3), make_link("Q", c_oct=6, a=4)],
    "mixed": [
        make_link("S10", remainder="50", a=6),
        make_link("U", c_oct=5, remainder="0.125", a=3),
        make_link("T", c_oct="7/3", c_tet="1/2", a=4),
        make_link("W", c_tet="9/7", a=2),
    ],
}


@pytest.mark.parametrize("name", sorted(_SCAN_CATALOGS))
def test_scan_row_count_matches_knapsack_oracle(ctx, name):
    cat = Catalog.from_links(_SCAN_CATALOGS[name])
    atildes = [link.atilde for link in cat]
    for budget in (1, 2, 3, 5, 8, 11):
        rows = spectrum_scan(cat, budget, ctx)
        assert len(rows) == count_scan_rows(atildes, budget)
        assert len({row.recipe for row in rows}) == len(rows)
        assert all(row.atilde <= budget for row in rows)


def test_scan_of_1200_link_catalog(ctx):
    links = [make_link(f"X{i:04d}", c_oct=2 * (2 + i % 5), a=3 + i % 5) for i in range(1200)]
    cat = Catalog.from_links(links)
    rows = spectrum_scan(cat, 2, ctx)
    assert len(rows) == count_scan_rows([link.atilde for link in cat], 2) == 242


def test_scan_refusal_is_prompt_and_builds_no_row(ctx, monkeypatch):
    # about 1.07e10 multisets fit the budget; only cap+1 may be walked
    cat = Catalog.from_links([make_link("A", c_oct=3, a=2), make_link("B", c_tet=9, a=2)])
    evaluated = []
    # spectrum_scan imports densities from calculus when it runs
    monkeypatch.setattr(calculus, "densities", lambda c, ctx: evaluated.append(c))
    started = time.perf_counter()
    with pytest.raises(CapExceededError, match="more than 100000 rows"):
        spectrum_scan(cat, 4000, ctx)
    assert time.perf_counter() - started < 2.0
    assert evaluated == []


def _voct_truncated(places: int) -> tuple[Fraction, mpmath.mpf]:
    """(v_oct truncated after ``places`` decimals, v_oct minus that truncation) by mpmath."""
    with mpmath.workdps(places + 60):
        scaled = int(mpmath.floor(4 * mpmath.catalan * mpmath.mpf(10) ** places))
        return Fraction(scaled, 10**places), 4 * mpmath.catalan - mpmath.mpf(scaled) / mpmath.mpf(10) ** places


def test_a_gap_past_a_thousand_digits_reads_alike_at_every_precision():
    # v_oct + R sits about 1e-1401 below 2*v_oct: a sum of 1305 digits cannot see
    # it, one of 2000 can, so the answer must not hang on how far --digits reaches
    remainder, gap = _voct_truncated(1400)
    assert mpmath.mpf("1e-1500") < gap < mpmath.mpf("1e-1400")
    probe = ExactVolume(1, 0, remainder)
    answers = {
        digits: (classify(probe, PrecisionContext(digits)), max_augmentations_below(probe, PrecisionContext(digits)))
        for digits in (20, 1000)
    }
    assert [window for window, _ in answers.values()] == [WindowClass.DISCRETE_WINDOW] * 2
    assert answers[20][1].max_augmentations == answers[1000][1].max_augmentations


def test_a_gap_past_the_sign_cap_reads_zero_at_every_precision():
    # 1e-2101 below 2*v_oct is past the 2*MAX_DIGITS scale, so it counts as on it
    remainder, gap = _voct_truncated(2100)
    assert mpmath.mpf("1e-2200") < gap < mpmath.mpf("1e-2100")
    for digits in (20, 1000):
        ctx = PrecisionContext(digits)
        assert numerics.sign(-1, 0, remainder, ctx) == 0
        assert classify(ExactVolume(1, 0, remainder), ctx) is WindowClass.DENSE_WINDOW
