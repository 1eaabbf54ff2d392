"""Discreteness-side machinery: volume bounds, certificates, window classes
and the budgeted spectrum scan.

Cutting a fully augmented link complement along its reflection surface
leaves two pieces with totally geodesic boundary and Euler characteristic
1 - a, so Miyamoto's theorem (vol >= -v_oct * chi for such manifolds)
bounds the total volume below by 2*(a-1)*v_oct and the density by
2*v_oct*(a-1)/a.  That bound increases with a, which turns any density
threshold below 2*v_oct into a cap on the augmentation count: the
certificates issued here state that cap.

``spectrum_scan`` lists every composition whose modified augmentation
count fits a budget.  One iterative walk yields the multisets, so its
depth does not grow with the catalog, and the scan stops at the first
multiset past its row cap: a refusal costs O(cap), not the full count.
"""

from __future__ import annotations

import enum
from decimal import Decimal
from fractions import Fraction

from . import numerics
from ._frozen import Frozen
from .errors import CapExceededError, DomainError
from .numerics import PrecisionContext

__all__ = [
    "Certificate",
    "DEFAULT_SCAN_CAP",
    "ScanRow",
    "WindowClass",
    "classify",
    "euler_characteristic",
    "max_augmentations_below",
    "miyamoto_volume_lower_bound",
    "spectrum_scan",
    "vd_lower_bound",
]

DEFAULT_SCAN_CAP = 100_000


class WindowClass(enum.Enum):
    BELOW_SPECTRUM = "BelowSpectrum"
    DISCRETE_WINDOW = "DiscreteWindow"
    DENSE_WINDOW = "DenseWindow"
    AT_OR_ABOVE_UPPER_BOUND = "AtOrAboveUpperBound"


class Certificate(Frozen):
    """Finiteness statement: every FAL with vd at most ``threshold`` has
    at most ``max_augmentations`` augmentation circles."""

    __slots__ = ("threshold", "max_augmentations", "statement")


def euler_characteristic(a: int) -> int:
    """chi = 1 - a for either half of the cut-open complement."""
    numerics.parse_count(a, "augmentation count", 2)
    return 1 - a


def miyamoto_volume_lower_bound(a: int, ctx: PrecisionContext) -> Decimal:
    """2*(a-1)*v_oct, attained exactly by octahedral decompositions."""
    numerics.parse_count(a, "augmentation count", 2)
    return numerics.correctly_rounded(2 * (a - 1), 0, 0, 1, ctx)


def vd_lower_bound(a: int, ctx: PrecisionContext) -> Decimal:
    """2*v_oct*(a-1)/a; strictly increasing in a with supremum 2*v_oct."""
    numerics.parse_count(a, "augmentation count", 2)
    return numerics.correctly_rounded(2 * (a - 1), 0, 0, a, ctx)


def _density_parts(value, ctx: PrecisionContext) -> tuple[tuple[Fraction, Fraction, Fraction], Fraction]:
    """A density input's exact (c_oct, c_tet, remainder) parts and its slack:
    0 for an exact input, the context tolerance for a decimal one."""
    if not isinstance(value, (str, int, Decimal)):  # imported here, so a decimal loads neither layer
        from .calculus import DensityValue
        from .catalog import ExactVolume

        if isinstance(value, DensityValue):
            return value.exact_parts(), Fraction(0)
        if isinstance(value, ExactVolume):
            return value.components(), Fraction(0)
    density = Fraction(numerics.parse_decimal(value, "density"))
    return (Fraction(0), Fraction(0), density), Fraction(ctx.comparison_tolerance)


def _below(parts, slack: Fraction, oct_coeff: int, tet_coeff: int, ctx: PrecisionContext) -> bool:
    """Whether parts + slack lies below oct_coeff*v_oct + tet_coeff*v_tet, by a proven sign."""
    return numerics.sign(parts[0] - oct_coeff, parts[1] - tet_coeff, parts[2] + slack, ctx) < 0


def classify(density, ctx: PrecisionContext) -> WindowClass:
    """Place a density against the half-open windows
    [v_oct, 2*v_oct) discrete and [2*v_oct, 10*v_tet) dense.

    Accepts a Decimal, an ExactVolume, or a DensityValue.  Every boundary is
    decided by ``numerics.sign``: exactly for exact inputs (up to its cap),
    and for a decimal with the context tolerance added, so a decimal within
    the tolerance below a boundary counts as sitting on it."""
    parts, slack = _density_parts(density, ctx)
    if _below(parts, slack, 1, 0, ctx):
        return WindowClass.BELOW_SPECTRUM
    if _below(parts, slack, 2, 0, ctx):
        return WindowClass.DISCRETE_WINDOW
    if _below(parts, slack, 0, 10, ctx):
        return WindowClass.DENSE_WINDOW
    return WindowClass.AT_OR_ABOVE_UPPER_BOUND


def max_augmentations_below(density, ctx: PrecisionContext) -> Certificate:
    """Certificate for a threshold t in the discrete window [v_oct, 2*v_oct).

    Returns the largest a with 2*v_oct*(a-1)/a <= t, floor(2*v_oct/(2*v_oct - t))
    exactly; any link with more augmentations has density strictly above t,
    and only finitely many links exist per augmentation count.  A decimal t
    is widened by the context tolerance, as in ``classify``."""
    parts, slack = _density_parts(density, ctx)
    if _below(parts, slack, 1, 0, ctx):
        raise DomainError("threshold lies below the spectrum floor v_oct; nothing to certify")
    if not _below(parts, slack, 2, 0, ctx):
        raise DomainError(
            "threshold reaches the dense window at 2*v_oct; no finite certificate exists there"
        )
    n = numerics.floor_quotient((2, 0, 0), (2 - parts[0], -parts[1], -parts[2] - slack), ctx)
    threshold = numerics.correctly_rounded(*parts, 1, ctx)
    return Certificate(threshold, n, f"every FAL with vd(L) <= {threshold} has a(L) <= {n}")


class ScanRow(Frozen):
    __slots__ = ("recipe", "a", "atilde", "vd", "vd_mod")


def _multisets(catalog: Catalog, budget: int):
    """Yield each nonempty multiset with sum k*atilde <= budget once, as a
    tuple of (link, k) parts with k >= 1.

    Depth-first over an explicit stack: a multiset extends only with links
    after its last part, taken in increasing atilde so the first link that
    no longer fits ends the extension."""
    links = sorted(catalog, key=lambda link: link.atilde)
    stack = [((), 0, budget)]
    while stack:
        parts, start, remaining = stack.pop()
        for index in range(start, len(links)):
            link = links[index]
            if link.atilde > remaining:
                break
            for k in range(1, remaining // link.atilde + 1):
                extended = parts + ((link, k),)
                yield extended
                stack.append((extended, index + 1, remaining - k * link.atilde))


def spectrum_scan(
    catalog: Catalog,
    budget: int,
    ctx: PrecisionContext,
    max_rows: int = DEFAULT_SCAN_CAP,
) -> list[ScanRow]:
    """All compositions over the catalog with total atilde <= budget,
    one row each, sorted by vd (ties broken by recipe string).

    Raises CapExceededError as soon as a row past ``max_rows`` turns up,
    before any row is evaluated."""
    from .calculus import composition, densities, format_recipe

    numerics.parse_count(budget, "budget")
    numerics.parse_count(max_rows, "max_rows")
    multisets = []
    for parts in _multisets(catalog, budget):
        if len(multisets) == max_rows:
            raise CapExceededError(
                f"scan with budget {budget} would emit more than {max_rows} rows (the cap)"
            )
        multisets.append(parts)
    rows = []
    for parts in multisets:
        c = composition(parts)
        row_vd, row_vd_mod = densities(c, ctx)
        rows.append(ScanRow(format_recipe(c), c.atilde + 1, c.atilde, row_vd, row_vd_mod))
    rows.sort(key=lambda row: (row.vd.evaluated, row.recipe))
    return rows
