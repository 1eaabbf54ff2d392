"""Value-level monoid laws of the belted sum and the density identities."""

import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fal_spectrum import (
    Catalog,
    DomainError,
    ExactVolume,
    belted_sum,
    composition,
    format_recipe,
    parse_recipe,
    replicate,
    replication_error,
    self_sum,
    spectrum_scan,
    vd,
    vd_mod,
    volume,
)
from fal_spectrum.numerics import two_v_oct, v_oct
from helpers import make_link
from oracles import volume_fold, weighted_average_vd_mod

S50 = make_link("S", c_tet=50, a=6)


def test_belted_sum_merges_multiplicities(l41):
    left = self_sum(l41, 1)
    summed = belted_sum(left, left)
    assert summed == self_sum(l41, 2)
    assert volume(summed).components() == (Fraction(4), Fraction(0), Fraction(0))
    assert summed.atilde + 1 == 3


def test_volume_linearity(l41):
    assert volume(self_sum(l41, 3)).components() == (Fraction(6), Fraction(0), Fraction(0))
    mixed = belted_sum(self_sum(l41, 1), self_sum(S50, 2))
    assert volume(mixed).components() == (Fraction(2), Fraction(100), Fraction(0))


def test_augmentation_counts(l41):
    for k in (1, 2, 7, 100):
        assert self_sum(l41, k).atilde + 1 == k + 1
    single = self_sum(S50, 1)
    assert single.atilde + 1 == S50.augmentations
    mixed = belted_sum(self_sum(l41, 2), self_sum(S50, 3))
    assert mixed.atilde == 2 * 1 + 3 * 5 == 17
    assert mixed.atilde + 1 == 18


def test_densities_of_builtin(ctx, l41):
    one = self_sum(l41, 1)
    assert vd(one, ctx).exact_parts() == (Fraction(1), Fraction(0), Fraction(0))
    assert vd(one, ctx).evaluated == v_oct(ctx)
    assert vd_mod(one, ctx).exact_parts() == (Fraction(2), Fraction(0), Fraction(0))
    assert vd_mod(one, ctx).evaluated == two_v_oct(ctx)


def test_vd_of_double_sum(ctx, l41):
    double = self_sum(l41, 2)
    assert vd(double, ctx).exact_parts() == (Fraction(4, 3), Fraction(0), Fraction(0))
    # 4*v_oct/3, frozen from the oracle value of v_oct
    assert str(vd(double, ctx).evaluated).startswith("4.88514983561")


def test_self_sum_preserves_vd_mod(ctx, l41):
    base = vd_mod(self_sum(l41, 1), ctx)
    for k in (1, 2, 10, 1000):
        assert vd_mod(self_sum(l41, k), ctx).exact_parts() == base.exact_parts()


def test_self_sum_rejects_nonpositive(l41):
    with pytest.raises(DomainError):
        self_sum(l41, 0)
    with pytest.raises(DomainError):
        self_sum(l41, -2)


def test_replication_error_closed_form(ctx, l41):
    one = self_sum(l41, 1)
    assert replication_error(one, 1, ctx) == v_oct(ctx)
    gap = replication_error(one, 999, ctx)
    expected = vd_mod(one, ctx).evaluated / 1000
    assert abs(gap - expected) <= ctx.comparison_tolerance
    gaps = [replication_error(one, m, ctx) for m in (1, 2, 5, 50, 999)]
    assert gaps == sorted(gaps, reverse=True)


def test_replication_identity_exact(ctx, l41):
    mixed = belted_sum(self_sum(l41, 2), self_sum(S50, 1))
    atilde = mixed.atilde
    for m in (1, 3, 17):
        expanded = replicate(mixed, m)
        gap = tuple(
            a - b
            for a, b in zip(vd_mod(expanded, ctx).exact_parts(), vd(expanded, ctx).exact_parts())
        )
        expected = tuple(p / (m * atilde + 1) for p in vd_mod(mixed, ctx).exact_parts())
        assert gap == expected


# ---------------------------------------------------------------------------
# property tests

_link_pool = st.sampled_from(
    [
        Catalog()["L41"],
        S50,
        make_link("T", c_oct="7/3", c_tet="1/2", a=4),
        make_link("U", c_oct=5, remainder="0.125", a=3),
        make_link("W", c_tet="9/7", a=2),
        make_link("X", c_oct="1/6", c_tet=2, remainder="2.5", a=7),
    ]
)
_compositions = st.dictionaries(_link_pool, st.integers(1, 20), min_size=1, max_size=6).map(
    composition
)


@given(_compositions, _compositions)
def test_belted_sum_commutes(x, y):
    assert belted_sum(x, y) == belted_sum(y, x)


@given(_compositions, _compositions, _compositions)
def test_belted_sum_associates(x, y, z):
    assert belted_sum(belted_sum(x, y), z) == belted_sum(x, belted_sum(y, z))


@given(_compositions, _compositions)
def test_value_level_additivity(x, y):
    summed = belted_sum(x, y)
    assert volume(summed) == volume(x) + volume(y)
    assert summed.atilde == x.atilde + y.atilde
    assert (summed.atilde + 1) == (x.atilde + 1) + (y.atilde + 1) - 1


@settings(max_examples=60)
@given(_compositions)
def test_weighted_average_identity(ctx, c):
    direct = vd_mod(c, ctx)
    averaged = weighted_average_vd_mod(c, ctx)
    assert direct.exact_parts() == averaged.exact_parts()
    assert abs(direct.evaluated - averaged.evaluated) <= ctx.comparison_tolerance


@settings(max_examples=40)
@given(_compositions, st.integers(1, 1000))
def test_replication_identity_property(ctx, c, m):
    atilde = c.atilde
    expanded = replicate(c, m)
    gap = tuple(
        a - b for a, b in zip(vd_mod(expanded, ctx).exact_parts(), vd(expanded, ctx).exact_parts())
    )
    assert gap == tuple(p / (m * atilde + 1) for p in vd_mod(c, ctx).exact_parts())


_compliant_links = st.builds(
    lambda idx, a, extra: make_link(f"M{idx}", c_oct=2 * (a - 1) + extra, a=a),
    st.integers(0, 5),
    st.integers(2, 8),
    st.fractions(min_value=0, max_value=3, max_denominator=4),
)


@settings(max_examples=40)
@given(st.dictionaries(_compliant_links, st.integers(1, 10), min_size=1, max_size=4).map(composition))
def test_bound_propagation(ctx, c):
    # every part obeys vol >= 2*(a-1)*v_oct, so the mixture's vd_mod >= 2*v_oct
    assert vd_mod(c, ctx).evaluated >= two_v_oct(ctx) - ctx.comparison_tolerance


_coefficients = st.fractions(min_value=0, max_value=20, max_denominator=12)
_remainders = st.decimals(min_value=0, max_value=50, places=4).map(str)


@st.composite
def _catalog_parts(draw):
    """Two lists of (link, multiplicity) parts over one random small catalog;
    a list may name a link more than once, so composition() has to merge."""
    links = []
    for i in range(draw(st.integers(1, 4))):
        c_oct, c_tet, remainder = draw(
            st.tuples(_coefficients, _coefficients, _remainders).filter(
                lambda v: v[0] or v[1] or Decimal(v[2])
            )
        )
        links.append(make_link(f"R{i}", c_oct, c_tet, remainder, a=draw(st.integers(2, 9))))
    parts = st.lists(st.tuples(st.sampled_from(links), st.integers(1, 10**6)), min_size=1, max_size=6)
    return draw(parts), draw(parts)


@settings(max_examples=80)
@given(_catalog_parts())
def test_totals_fixed_at_construction_match_reference(parts_pair):
    # Composition == compares parts only, so the totals need their own check
    x, y = (composition(parts) for parts in parts_pair)
    for c, parts in zip((x, y), parts_pair):
        assert c.volume == volume_fold(parts)
        assert c.atilde == sum(k * (link.augmentations - 1) for link, k in parts)
    summed = belted_sum(x, y)
    assert summed.volume == x.volume + y.volume
    assert summed.atilde == x.atilde + y.atilde


@given(_compositions, st.integers(1, 50))
def test_replicate_scales_counts(c, m):
    expanded = replicate(c, m)
    assert expanded.atilde == m * c.atilde
    assert volume(expanded) == volume(c) * m


# ---------------------------------------------------------------------------
# the int representation against plain Fraction sums

_p_over_q = st.builds("{}/{}".format, st.integers(0, 40), st.integers(1, 12))
_link_fields = st.tuples(_p_over_q, _p_over_q, _remainders, st.integers(2, 4)).filter(
    lambda f: Fraction(f[0]) or Fraction(f[1]) or Decimal(f[2])
)


def _fraction_volume(fields):
    """(c_oct, c_tet, remainder) of an entry, read by the test from its strings."""
    c_oct, c_tet, remainder, _ = fields
    return Fraction(c_oct), Fraction(c_tet), Fraction(Decimal(remainder))


@settings(max_examples=30, deadline=None)
@given(st.lists(_link_fields, min_size=1, max_size=3), st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_int_totals_are_the_fraction_sums(ctx, entries, counts):
    fields = {f"R{i}": entry for i, entry in enumerate(entries)}
    catalog = Catalog([make_link(name, *entry[:3], a=entry[3]) for name, entry in fields.items()])
    for name, entry in fields.items():
        volume = catalog[name].volume
        assert volume.components() == _fraction_volume(entry)
    parts = [(catalog[name], k) for name, k in zip(fields, counts) if k] or [(catalog["R0"], 1)]
    c = composition(parts)
    # every row of the scan up to c's budget, c's own among them, against Fraction sums
    rows = spectrum_scan(catalog, c.atilde, ctx)
    assert format_recipe(c) in {row.recipe for row in rows}
    for row in rows:
        totals, atilde = [Fraction(0)] * 3, 0
        for token in row.recipe.split(","):
            name, _, k = token.partition("*")
            k = int(k or 1)
            entry = fields.get(name)
            parts_volume = _fraction_volume(entry) if entry else (Fraction(2), Fraction(0), Fraction(0))  # L41
            totals = [t + k * x for t, x in zip(totals, parts_volume)]
            atilde += k * ((entry[3] if entry else 2) - 1)
        volume = row.vd.numerator
        assert (row.atilde, row.vd.denominator, row.vd_mod.denominator) == (atilde, atilde + 1, atilde)
        assert math.gcd(volume.oct, volume.tet, volume.rem, volume.den) == 1 and volume.den > 0
        assert [Fraction(n, volume.den) for n in (volume.oct, volume.tet, volume.rem)] == totals
        assert row.vd.exact_parts() == tuple(t / (atilde + 1) for t in totals)
        assert row.vd_mod.exact_parts() == tuple(t / atilde for t in totals)
        twin = ExactVolume(*totals)
        assert volume == twin and hash(volume) == hash(twin)
        assert pickle.loads(pickle.dumps(volume)) == volume
    assert c.volume == next(row.vd.numerator for row in rows if row.recipe == format_recipe(c))


def test_equal_volumes_hold_equal_ints():
    half, quarters = ExactVolume("1/2"), ExactVolume("2/4")
    assert half == quarters and hash(half) == hash(quarters)
    assert (quarters.oct, quarters.tet, quarters.rem, quarters.den) == (1, 0, 0, 2)
    twin = pickle.loads(pickle.dumps(quarters))
    assert twin == half and hash(twin) == hash(half)
    assert ExactVolume("1/3", "1/6", "0.25") == ExactVolume(Fraction(4, 12), "2/12", Fraction(1, 4))


# ---------------------------------------------------------------------------
# recipe strings

def test_recipe_round_trip(l41):
    cat = Catalog()
    comp = parse_recipe("L41*3", cat)
    assert comp == self_sum(l41, 3)
    assert format_recipe(comp) == "L41*3"
    assert parse_recipe(format_recipe(comp), cat) == comp
    assert format_recipe(self_sum(l41, 1)) == "L41"
    assert parse_recipe("L41", cat) == self_sum(l41, 1)
    assert parse_recipe(" L41 * 2 , L41", cat) == self_sum(l41, 3)


@pytest.mark.parametrize("text", ["", ",", "L41*", "L41*0", "L41*-1", "L41*x", "nope"])
def test_bad_recipes_rejected(text):
    with pytest.raises(DomainError):
        parse_recipe(text, Catalog())


def test_composition_requires_parts():
    with pytest.raises(DomainError):
        composition({})
