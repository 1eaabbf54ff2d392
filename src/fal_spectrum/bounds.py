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
import itertools
from decimal import Decimal

from . import numerics
from ._frozen import Frozen
from .errors import CapExceededError, DomainError
from .numerics import PrecisionContext

__all__ = [
    "Certificate", "DEFAULT_SCAN_CAP", "ScanRow", "WindowClass", "classify", "euler_characteristic",
    "max_augmentations_below", "miyamoto_volume_lower_bound", "spectrum_scan", "vd_lower_bound",
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


def _density_parts(value, ctx: PrecisionContext) -> tuple[tuple[int, int, int], int, int]:
    """(parts, slack, den): a density input's exact (c_oct, c_tet, remainder)
    and its slack as ints over den, the slack 0 for an exact input and the
    context tolerance for a decimal one."""
    if not isinstance(value, (str, int, Decimal)):  # imported here, so a decimal loads neither layer
        from .calculus import DensityValue
        from .catalog import ExactVolume

        value, scale = (value.numerator, value.denominator) if isinstance(value, DensityValue) else (value, 1)
        if isinstance(value, ExactVolume):
            return (value.oct, value.tet, value.rem), 0, value.den * scale
    n, d = numerics.parse_decimal(value, "density").as_integer_ratio()
    tol_n, tol_d = ctx.comparison_tolerance.as_integer_ratio()
    return (0, 0, n * tol_d), tol_n * d, d * tol_d


def _below(parts, slack: int, den: int, oct_coeff: int, tet_coeff: int, ctx: PrecisionContext) -> bool:
    """Whether (parts + slack)/den lies below oct_coeff*v_oct + tet_coeff*v_tet, by a proven sign."""
    return numerics.sign(parts[0] - oct_coeff * den, parts[1] - tet_coeff * den, parts[2] + slack, ctx) < 0


def classify(density, ctx: PrecisionContext) -> WindowClass:
    """Place a density against the half-open windows
    [v_oct, 2*v_oct) discrete and [2*v_oct, 10*v_tet) dense.

    Accepts a Decimal, an ExactVolume, or a DensityValue.  Every boundary is
    decided by ``numerics.sign``: exactly for exact inputs (up to its cap),
    and for a decimal with the context tolerance added, so a decimal within
    the tolerance below a boundary counts as sitting on it."""
    parts, slack, den = _density_parts(density, ctx)
    if _below(parts, slack, den, 1, 0, ctx):
        return WindowClass.BELOW_SPECTRUM
    if _below(parts, slack, den, 2, 0, ctx):
        return WindowClass.DISCRETE_WINDOW
    if _below(parts, slack, den, 0, 10, ctx):
        return WindowClass.DENSE_WINDOW
    return WindowClass.AT_OR_ABOVE_UPPER_BOUND


def max_augmentations_below(density, ctx: PrecisionContext) -> Certificate:
    """Certificate for a threshold t in the discrete window [v_oct, 2*v_oct).

    Returns the largest a with 2*v_oct*(a-1)/a <= t, floor(2*v_oct/(2*v_oct - t))
    exactly; any link with more augmentations has density strictly above t,
    and only finitely many links exist per augmentation count.  A decimal t
    is widened by the context tolerance, as in ``classify``."""
    parts, slack, den = _density_parts(density, ctx)
    if _below(parts, slack, den, 1, 0, ctx):
        raise DomainError("threshold lies below the spectrum floor v_oct; nothing to certify")
    if not _below(parts, slack, den, 2, 0, ctx):
        raise DomainError(
            "threshold reaches the dense window at 2*v_oct; no finite certificate exists there"
        )
    n = numerics.floor_quotient((2 * den, 0, 0), (2 * den - parts[0], -parts[1], -parts[2] - slack), ctx)
    threshold = numerics.correctly_rounded(*parts, den, ctx)
    return Certificate(threshold, n, f"every FAL with vd(L) <= {threshold} has a(L) <= {n}")


class ScanRow(Frozen):
    __slots__ = ("recipe", "a", "atilde", "vd", "vd_mod")


def _multisets(links: list[tuple[str, int, int, int, int]], budget: int):
    """Yield (recipe, atilde, oct, tet, rem) once for each nonempty multiset
    with total atilde <= budget, of links given as (name, atilde, oct, tet,
    rem) in catalog order: its recipe string and its int totals.

    Depth-first over an explicit stack: a multiset extends only with links
    after its last part, so its recipe string grows by appending, and the
    least atilde among the links left ends an extension once none fits."""
    least = [*itertools.accumulate((step for _, step, *_ in reversed(links)), min)][::-1] + [budget + 1]
    stack = [(0, "", 0, 0, 0, 0)]  # next link, then recipe, atilde, oct, tet, rem
    while stack:
        start, recipe, used, oct, tet, rem = stack.pop()
        prefix = recipe + "," if recipe else ""
        for index in range(start, len(links)):
            if least[index] > budget - used:
                break
            name, step, l_oct, l_tet, l_rem = links[index]
            for k in range(1, (budget - used) // step + 1):
                row = (prefix + (name if k == 1 else f"{name}*{k}"), used + k * step,
                       oct + k * l_oct, tet + k * l_tet, rem + k * l_rem)
                yield row
                stack.append((index + 1, *row))


def spectrum_scan(
    catalog: Catalog,
    budget: int,
    ctx: PrecisionContext,
    max_rows: int = DEFAULT_SCAN_CAP,
) -> list[ScanRow]:
    """All compositions over the catalog with total atilde <= budget,
    one row each, sorted by vd (ties broken by recipe string).

    Raises CapExceededError as soon as a row past ``max_rows`` turns up,
    before any row is evaluated.  Each row comes from the walk's int totals
    over the catalog's common denominator, with no Composition built."""
    from . import calculus
    from .catalog import ExactVolume

    numerics.parse_count(budget, "budget")
    numerics.parse_count(max_rows, "max_rows")
    den, volumes = calculus._common_denominator(catalog)
    links = [(link.name, link.atilde, *v) for link, v in zip(catalog, volumes)]
    multisets = []
    for item in _multisets(links, budget):
        if len(multisets) == max_rows:
            raise CapExceededError(
                f"scan with budget {budget} would emit more than {max_rows} rows (the cap)"
            )
        multisets.append(item)
    rows = []
    for recipe, atilde, oct, tet, rem in multisets:
        row_vd, row_vd_mod = calculus._density_pair(ExactVolume.over(oct, tet, rem, den), atilde, ctx)
        rows.append(ScanRow(recipe, atilde + 1, atilde, row_vd, row_vd_mod))
    rows.sort(key=lambda row: (row.vd.evaluated, row.recipe))
    return rows
