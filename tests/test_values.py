"""Value semantics of the package's immutable classes: equality and hashing
over the compared fields, no attribute assignment, the constructors'
validation, a readable repr, and copies that compare equal."""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from fal_spectrum import (
    BaseLink,
    CatalogError,
    Catalog,
    Certificate,
    Composition,
    ConfigurationError,
    DensityValue,
    Diagnostic,
    ExactVolume,
    PrecisionContext,
    Recipe,
    ScanRow,
    composition,
)

S10_VOLUME = ExactVolume(remainder=50)


def _link(name="S10", volume=S10_VOLUME, augmentations=6, note="modified density ten"):
    return BaseLink(name, volume, augmentations, note)


def _density(evaluated="1.5"):
    return DensityValue(ExactVolume(3), 2, Decimal(evaluated))


def _recipe(error="0.25"):
    return Recipe(1, 2, 1, composition([(_link(), 2)]), _density(), _density("1.25"), Decimal(error), "vdmod")


# class name -> (build, an unequal instance); build() twice gives equal instances built apart
CASES = {
    "PrecisionContext": (lambda: PrecisionContext(30), PrecisionContext(31)),
    "ExactVolume": (lambda: ExactVolume(2, Fraction(1, 3), "0.5"), ExactVolume(2, Fraction(1, 3), "0.25")),
    "BaseLink": (_link, _link(augmentations=7)),
    "Catalog": (lambda: Catalog((_link(),)), Catalog((_link(), _link("T")))),
    "Diagnostic": (lambda: Diagnostic("warning", "S10", "low"), Diagnostic("warning", "S10", "high")),
    "Composition": (lambda: composition([(_link(), 2)]), composition([(_link(), 3)])),
    "DensityValue": (_density, _density("1.25")),
    "Recipe": (_recipe, _recipe("0.5")),
    "Certificate": (lambda: Certificate(Decimal("5.5"), 3, "s"), Certificate(Decimal("5.5"), 4, "s")),
    "ScanRow": (lambda: ScanRow("S10", 6, 5, _density(), _density()), ScanRow("S10", 6, 5, _density(), _density("2"))),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal_and_hash_alike(name):
    build, other = CASES[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != other
    assert first != object()


FIELDS = {
    "PrecisionContext": ("digits",),
    "ExactVolume": ("c_oct", "c_tet", "remainder"),
    "BaseLink": ("name", "volume", "augmentations", "note"),
    "Catalog": ("links",),
    "Diagnostic": ("level", "link", "message"),
    "Composition": ("parts", "volume", "atilde"),
    "DensityValue": ("numerator", "denominator", "evaluated"),
    "Recipe": ("k", "l", "m", "composition", "achieved_vd_mod", "achieved_vd", "error", "mode"),
    "Certificate": ("threshold", "max_augmentations", "statement"),
    "ScanRow": ("recipe", "a", "atilde", "vd", "vd_mod"),
}


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    for field in FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert value == CASES[name][0]()


@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_compare_equal(name):
    value = CASES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_base_link_hashes_by_name_and_ignores_the_note():
    link = _link()
    assert link == _link(note="another note")
    assert hash(link) == hash(_link(volume=ExactVolume(c_oct=7), augmentations=9)) == hash(("S10",))
    assert link != _link(volume=ExactVolume(remainder=51))
    assert link != _link(name="T")
    assert len({link, _link(note="x"), _link(augmentations=9)}) == 2


def test_composition_compares_on_parts_only():
    parts = ((_link(), 2),)
    first = Composition(parts, ExactVolume(remainder=100), 10)
    second = Composition(parts, ExactVolume(c_oct=1), 3)
    assert first == second and hash(first) == hash(second)
    assert composition([(_link(), 1), (_link(), 1)]) == first


def test_catalog_compares_on_its_links():
    assert Catalog((_link(),)) == Catalog((_link(note="x"),))
    assert "S10" in Catalog((_link(),)) and len(Catalog((_link(),))) == 1


def test_reprs_name_the_fields():
    assert repr(PrecisionContext(30)) == "PrecisionContext(digits=30)"
    assert repr(ExactVolume(2)) == (
        "ExactVolume(c_oct=Fraction(2, 1), c_tet=Fraction(0, 1), remainder=Fraction(0, 1))"
    )
    link = _link(volume=ExactVolume(remainder=50))
    assert repr(link) == (
        "BaseLink(name='S10', volume=ExactVolume(c_oct=Fraction(0, 1), c_tet=Fraction(0, 1), "
        "remainder=Fraction(50, 1)), augmentations=6, note='modified density ten')"
    )
    assert repr(Catalog((link,))) == f"Catalog(links=({link!r},))"
    assert repr(Diagnostic("warning", "S10", "low")) == "Diagnostic(level='warning', link='S10', message='low')"
    assert repr(Certificate(Decimal("5.5"), 3, "s")) == (
        "Certificate(threshold=Decimal('5.5'), max_augmentations=3, statement='s')"
    )
    comp = composition([(link, 2)])
    assert repr(comp) == f"Composition(parts=(({link!r}, 2),), volume={comp.volume!r}, atilde=10)"
    density = _density()
    assert repr(density) == f"DensityValue(numerator={ExactVolume(3)!r}, denominator=2, evaluated=Decimal('1.5'))"
    assert repr(ScanRow("S10", 6, 5, density, density)).startswith("ScanRow(recipe='S10', a=6, atilde=5, vd=DensityValue(")
    assert repr(_recipe()).startswith("Recipe(k=1, l=2, m=1, composition=Composition(")
    assert repr(_recipe()).endswith("error=Decimal('0.25'), mode='vdmod')")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PrecisionContext(19), ConfigurationError, "precision must be at least 20, got 19"),
        (lambda: PrecisionContext(1001), ConfigurationError, "precision must be at most 1000 digits, got 1001"),
        (lambda: PrecisionContext("30"), ConfigurationError, "precision must be an integer, got '30'"),
        (lambda: PrecisionContext(True), ConfigurationError, "precision must be an integer, got True"),
        (lambda: ExactVolume(-1), CatalogError, "c_oct must be nonnegative, got -1"),
        (lambda: ExactVolume(0, "-1/3"), CatalogError, "c_tet must be nonnegative, got -1/3"),
        (lambda: ExactVolume(remainder=0.5), CatalogError, "remainder: floats are not accepted: 0.5"),
        (lambda: ExactVolume("x"), CatalogError, "c_oct: not a valid rational: 'x'"),
        (lambda: _link(name="1x"), CatalogError, "link name must be an identifier, got '1x'"),
        (lambda: _link(name=5), CatalogError, "link name must be an identifier, got 5"),
        (lambda: _link(augmentations=1), CatalogError, "S10: augmentation count must be at least 2, got 1"),
        (lambda: _link(augmentations=6.0), CatalogError, "S10: augmentation count must be an integer, got 6.0"),
        (lambda: _link(volume=50), CatalogError, "S10: volume must be an ExactVolume"),
        (lambda: _link(volume=ExactVolume()), CatalogError, "S10: volume must be positive"),
        (lambda: _link(note=None), CatalogError, "S10: note must be a string"),
    ],
)
def test_constructors_validate_as_before(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_exact_volume_keeps_exact_components():
    volume = ExactVolume(2, "1/3", 0)
    assert volume.components() == (Fraction(2), Fraction(1, 3), Fraction(0))
    assert all(type(part) is Fraction for part in volume.components())
    assert volume + volume == volume * 2 == ExactVolume(4, Fraction(2, 3))
