"""Catalog loading, validation warnings, and file round-trips."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fal_spectrum import (
    BaseLink,
    CatalogError,
    Catalog,
    ExactVolume,
    load_catalog,
    validate_entry,
    vd,
    self_sum,
)
from helpers import make_link, save_catalog


def test_builtin_figure_eight(l41):
    assert l41.name == "L41"
    assert l41.augmentations == 2
    assert l41.atilde == 1
    assert l41.volume.components() == (Fraction(2), Fraction(0), Fraction(0))


def test_builtin_density_is_spectrum_floor(ctx, l41):
    from fal_spectrum.numerics import v_oct

    density = vd(self_sum(l41, 1), ctx)
    assert density.exact_parts() == (Fraction(1), Fraction(0), Fraction(0))
    assert density.evaluated == v_oct(ctx)


def test_load_single_entry_catalog():
    doc = json.dumps({"links": [{"name": "L41", "c_oct": "2", "a": 2, "note": "builtin again"}]})
    cat = load_catalog(doc)
    assert len(cat) == 1
    assert cat["L41"].volume.c_oct == 2
    assert cat["L41"].augmentations == 2


# the two ways to build a catalog from entries, which must hold the same invariants
BUILDERS = {
    "load_catalog": lambda entries: load_catalog(json.dumps({"links": entries})),
    "Catalog": lambda entries: Catalog(
        [make_link(e["name"], e.get("c_oct", 0), e.get("c_tet", 0), a=e["a"]) for e in entries]
    ),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_builtin_present_unless_shadowed(build):
    assert build([]) == Catalog() and [link.name for link in Catalog()] == ["L41"]
    cat = build([{"name": "S", "c_tet": "50", "a": 6}])
    assert [link.name for link in cat] == ["L41", "S"]
    shadowed = build([{"name": "L41", "c_oct": "4", "a": 3}])
    assert len(shadowed) == 1
    assert shadowed["L41"].volume.c_oct == 4
    assert shadowed["L41"].augmentations == 3


def test_missing_coefficients_default_to_zero():
    cat = load_catalog(json.dumps({"links": [{"name": "X", "remainder": "7.25", "a": 4}]}))
    assert cat["X"].volume.components() == (Fraction(0), Fraction(0), Fraction(29, 4))


def test_synthetic_pure_tet_entry(ctx):
    cat = load_catalog(json.dumps({"links": [{"name": "S", "c_tet": "50", "a": 6}]}))
    density = vd(self_sum(cat["S"], 1), ctx)
    assert density.exact_parts() == (Fraction(0), Fraction(25, 3), Fraction(0))
    # 50*v_tet/6, frozen from the oracle value of v_tet
    assert str(density.evaluated).startswith("8.45784672008")


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "B", "a": 1, "c_oct": "2"},  # augmentation floor
        {"name": "B", "a": 2},  # zero volume
        {"name": "B", "a": "2", "c_oct": "2"},  # non-integer a
        {"name": "B", "a": 2, "c_oct": "-1"},  # negative coefficient
        {"name": "B", "a": 2, "c_oct": "x/y"},  # unparsable rational
        {"name": "B", "a": 2, "remainder": "abc"},  # unparsable decimal
        {"name": "B", "a": 2, "c_oct": 0.5},  # float smuggling
        {"name": "B", "a": 2, "remainder": 0.5},  # float smuggling
        {"name": "bad name", "a": 2, "c_oct": "2"},  # not an identifier
        {"name": "B", "a": 2, "c_oct": "2", "extra": 1},  # unknown field
        {"a": 2, "c_oct": "2"},  # missing name
        {"name": "B", "c_oct": "2"},  # missing a
        {"name": "B", "a": 2, "remainder": "Infinity"},  # non-finite decimal
        {"name": "B", "a": 2, "remainder": "-inf"},  # non-finite decimal
        {"name": "B", "a": 2, "remainder": "NaN"},  # non-finite decimal
        {"name": "A\n", "a": 2, "c_oct": "2"},  # trailing newline after an identifier
        {"name": "B", "a": True, "c_oct": "2"},  # a bool is not a count
        {"name": "B", "a": 2, "c_oct": True},  # a bool is not a number
    ],
)
def test_invalid_entries_rejected(entry):
    with pytest.raises(CatalogError):
        load_catalog(json.dumps({"links": [entry]}))


@pytest.mark.parametrize("build", BUILDERS.values(), ids=list(BUILDERS))
def test_duplicate_names_rejected(build):
    with pytest.raises(CatalogError, match="duplicate link name 'B'"):
        build([{"name": "B", "a": 2, "c_oct": "2"}, {"name": "B", "a": 3, "c_oct": "4"}])


@pytest.mark.parametrize(
    "links, refused",
    [  # a bad item among the links (ids as before), then links that are not iterable
        pytest.param([make_link("B", c_oct=2), "L41"], "BaseLink, got str", id="L41"),
        pytest.param([make_link("B", c_oct=2), None], "BaseLink, got NoneType", id="None"),
        pytest.param([make_link("B", c_oct=2), {"name": "B", "a": 2, "c_oct": "2"}], "BaseLink, got dict", id="item2"),
        pytest.param(5, "an iterable of BaseLink, got int", id="int-links"),
        pytest.param(None, "an iterable of BaseLink, got NoneType", id="None-links"),
    ],
)
def test_catalog_refuses_what_is_not_a_link(links, refused):
    with pytest.raises(CatalogError, match=f"^catalog links must be {refused}$"):
        Catalog(links)


@pytest.mark.parametrize("text", ["", "{", "[]", '{"links": 3}', "null"])
def test_malformed_documents_rejected(text):
    with pytest.raises(CatalogError):
        load_catalog(text)


def test_unknown_link_lookup_lists_names():
    with pytest.raises(CatalogError, match="L41"):
        Catalog()["nope"]


def test_validate_builtin_is_clean(ctx, l41):
    assert validate_entry(l41, ctx) == []


def test_validate_flags_miyamoto_violation(ctx):
    # vol = v_oct with a = 2 sits below 2*(a-1)*v_oct = 2*v_oct
    link = make_link("B", c_oct=1, a=2)
    diagnostics = validate_entry(link, ctx)
    assert any("Miyamoto" in d.message for d in diagnostics)
    assert any("below the spectrum floor" in d.message for d in diagnostics)
    assert all(d.level == "warning" for d in diagnostics)


def test_validate_flags_unattainable_density(ctx):
    # vd = 15*v_tet >= 10*v_tet
    link = make_link("B", c_tet=30, a=2)
    diagnostics = validate_entry(link, ctx)
    assert any("10*v_tet" in d.message for d in diagnostics)


def test_validate_accepts_interior_synthetic(ctx):
    link = make_link("S", c_tet=50, a=6)  # vd ~ 8.46, inside the dense window
    assert validate_entry(link, ctx) == []


def test_save_load_round_trip():
    cat = load_catalog(
        json.dumps(
            {
                "links": [
                    {"name": "S", "c_tet": "50", "a": 6, "note": "pure tet"},
                    {"name": "T", "c_oct": "7/3", "remainder": "0.125", "a": 4},
                ]
            }
        )
    )
    again = load_catalog(save_catalog(cat))
    assert again == cat
    assert [link.note for link in again] == [link.note for link in cat]


def test_save_refuses_remainder_without_finite_decimal():
    link = BaseLink(name="Third", volume=ExactVolume(c_oct=2, remainder="1/3"), augmentations=2, note="")
    with pytest.raises(CatalogError, match="remainder 1/3 has no finite decimal form"):
        save_catalog(Catalog([link]))


_names = st.sampled_from(["A", "B2", "C_3", "Delta", "E"])
_coeffs = st.fractions(min_value=0, max_value=9, max_denominator=8)
_remainders = st.sampled_from(["0", "0.5", "1.25", "3.0625", "0.2"])


@st.composite
def _catalog_entries(draw):
    names = draw(st.lists(_names, unique=True, min_size=1, max_size=4))
    links = []
    for name in names:
        c_oct = draw(_coeffs)
        c_tet = draw(_coeffs)
        rem = draw(_remainders)
        if c_oct == 0 and c_tet == 0 and Decimal(rem) == 0:
            c_oct = Fraction(1)
        links.append(make_link(name, c_oct=c_oct, c_tet=c_tet, remainder=rem, a=draw(st.integers(2, 9))))
    return Catalog(links)


@given(_catalog_entries())
def test_round_trip_property(cat):
    assert load_catalog(save_catalog(cat)) == cat


@given(_catalog_entries())
def test_loaded_entries_satisfy_invariants(cat):
    for link in cat:
        assert link.augmentations >= 2
        assert not link.volume.is_zero()
        assert all(part >= 0 for part in link.volume.components())


def test_exact_volume_arithmetic():
    a = ExactVolume.from_fields("2", "1/3", "0.5")
    b = ExactVolume.from_fields("1", "2/3", "0.25")
    total = a + b
    assert total.components() == (Fraction(3), Fraction(1), Fraction(3, 4))
    assert (a * 3).components() == (Fraction(6), Fraction(1), Fraction(3, 2))
    with pytest.raises(CatalogError):
        ExactVolume(c_oct=Fraction(-1))


def test_exact_volume_rejects_floats():
    with pytest.raises(CatalogError):
        ExactVolume(c_oct=0.5)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_exact_volume_rejects_non_finite_decimals(value):
    with pytest.raises(CatalogError, match="not a valid rational"):
        ExactVolume(remainder=Decimal(value))


def test_volume_must_be_positive():
    with pytest.raises(CatalogError, match="positive"):
        make_link("Z", c_oct=0, c_tet=0, remainder="0", a=2)
