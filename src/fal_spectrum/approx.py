"""Recipe search: realize a target density as a belted sum of two links.

Any value between the modified densities of two anchor links L1, L2 is a
convex combination alpha*vd_mod(L1) + (1-alpha)*vd_mod(L2).  Mixing k
copies of L1 with l copies of L2 realizes the combination with effective
weight ratio k*(a1-1) : l*(a2-1), so driving k/l toward

    r = (a2-1)*alpha / ((a1-1)*(1-alpha))

makes the mixture converge to the target.  Continued-fraction
convergents of r supply the (k, l) pairs: they are the best rational
approximations per denominator and reach any tolerance in O(log) steps.

The plain (non-modified) density of a recipe always sits below its
modified density by exactly vd_mod/(m*atilde+1) after replicating the
whole recipe m times, so targets for vd are reached by first matching
vd_mod to half the tolerance and then replicating until the remaining
gap fits in the other half.

Each candidate (k, l) is tested on integer totals: once per search, every
volume component of the two anchors is put over one common denominator D,
so k copies of L1 and l of L2 total (k*n1 + l*n2)/D exactly, and the
modified density is evaluated from those integers with the Decimal
operations of calculus.vd_mod, giving the same digits.  Only the recipe
that is returned becomes a Composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction

from .calculus import (
    Composition,
    DensityValue,
    composition,
    densities,
    replicate,
    replication_error,
)
from .catalog import BaseLink
from .errors import CapExceededError, DegeneratePairError, DomainError, TargetRangeError
from .numerics import PrecisionContext, parse_count, parse_decimal, parse_rational, raw_constants, round_to

__all__ = [
    "DEFAULT_MAX_DENOMINATOR",
    "Recipe",
    "alpha_for_target",
    "approximate_vd",
    "approximate_vd_mod",
    "best_rational_approximations",
    "target_ratio",
]

DEFAULT_MAX_DENOMINATOR = 10**9


@dataclass(frozen=True)
class Recipe:
    """A found approximation: m replications of (k copies of L1 + l copies of L2).

    ``composition`` is the fully expanded multiset (m*k copies of L1 and
    m*l copies of L2); re-evaluating it through the calculus module
    reproduces the stored densities exactly.  ``error`` is the distance
    of the mode's achieved density from the target.
    """

    k: int
    l: int
    m: int
    composition: Composition
    achieved_vd_mod: DensityValue
    achieved_vd: DensityValue
    error: Decimal
    target: Decimal
    mode: str


def _as_decimal(value, what: str) -> Decimal:
    if isinstance(value, DensityValue):
        return value.evaluated
    return parse_decimal(value, what)


def alpha_for_target(target, v1, v2, ctx: PrecisionContext) -> Fraction:
    """Exact mixing weight alpha with target = alpha*v1 + (1-alpha)*v2."""
    return _mixing_weight(_as_decimal(target, "target"), _as_decimal(v1, "v1"), _as_decimal(v2, "v2"), ctx)


def _mixing_weight(t: Decimal, d1: Decimal, d2: Decimal, ctx: PrecisionContext) -> Fraction:
    """alpha_for_target on decimals already checked or computed here."""
    tol = ctx.comparison_tolerance
    if abs(d1 - d2) <= tol:
        raise DegeneratePairError(
            f"anchor densities {d1} and {d2} coincide within tolerance; no mixing ratio exists"
        )
    low, high = sorted((d1, d2))
    if t < low - tol or t > high + tol:
        raise TargetRangeError(f"target {t} lies outside [{low}, {high}]")
    alpha = (Fraction(t) - Fraction(d2)) / (Fraction(d1) - Fraction(d2))
    return min(max(alpha, Fraction(0)), Fraction(1))


def target_ratio(alpha: Fraction, atilde1: int, atilde2: int) -> Fraction:
    """Ratio r that k/l must approach so the weights mix as alpha : 1-alpha."""
    alpha = parse_rational(alpha, "alpha")
    if not 0 < alpha < 1:
        raise DomainError(
            f"mixing weight must be strictly between 0 and 1, got {alpha} "
            "(endpoints are pure self-sums of one link)"
        )
    parse_count(atilde1, "atilde1")
    parse_count(atilde2, "atilde2")
    return Fraction(atilde2) * alpha / (Fraction(atilde1) * (1 - alpha))


def best_rational_approximations(r, max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> list[Fraction]:
    """Continued-fraction convergents of r with denominator <= max_denominator.

    Emitted in increasing denominator order; every convergent p/q
    satisfies |r - p/q| < 1/q^2 and is a best approximation among all
    fractions with denominator at most q.  A leading integer convergent
    that the next convergent (same denominator 1) supersedes is dropped,
    as are zero-numerator convergents of r < 1.
    """
    value = parse_rational(r, "ratio")
    if value <= 0:
        raise DomainError(f"ratio must be positive, got {r}")
    parse_count(max_denominator, "max_denominator")

    convergents: list[Fraction] = []
    h_prev, h = 0, 1  # numerator recurrence seeds p_{n-2}, p_{n-1}
    k_prev, k = 1, 0  # denominator recurrence seeds q_{n-2}, q_{n-1}
    num, den = value.numerator, value.denominator
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if k > max_denominator:
            break
        if h == 0:
            continue
        candidate = Fraction(h, k)
        if convergents and convergents[-1].denominator == k:
            convergents[-1] = candidate
        else:
            convergents.append(candidate)
    return convergents


def _vd_mod_evaluator(link1: BaseLink, link2: BaseLink, ctx: PrecisionContext):
    """(k, l) -> the evaluated vd_mod of k copies of link1 and l of link2,
    digit for digit, from integer totals over common denominators."""
    voct, vtet = raw_constants(ctx)
    totals = []  # per component: link1's and link2's numerators over the common denominator
    for x, y in zip(link1.volume.components(), link2.volume.components()):
        d = math.lcm(x.denominator, y.denominator)
        totals.append((x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), Decimal(d)))
    atilde1, atilde2 = link1.atilde, link2.atilde

    def value(k: int, l: int) -> Decimal:
        # numerics.combination, then calculus.densities, operation for operation.
        # Decimal(int) is exact and division correctly rounded, so the
        # unreduced n/D gives the digits of the reduced Fraction.
        with ctx.working():
            c_oct, c_tet, remainder = (Decimal(k * n1 + l * n2) / d for n1, n2, d in totals)
            volume = c_oct * voct + c_tet * vtet + remainder
            return round_to(volume / (k * atilde1 + l * atilde2), ctx)

    return value


def _candidates(
    target: Decimal, link1: BaseLink, link2: BaseLink, ctx: PrecisionContext, max_denominator: int
):
    """(k, l, vd_mod of k copies of link1 and l of link2) in search order:
    each anchor link alone, then each convergent k/l of the mixing ratio.
    The ratio is formed only once both anchors are refused."""
    value = _vd_mod_evaluator(link1, link2, ctx)
    v1, v2 = value(1, 0), value(0, 1)
    yield 1, 0, v1
    yield 0, 1, v2
    ratio = target_ratio(_mixing_weight(target, v1, v2, ctx), link1.atilde, link2.atilde)
    for convergent in best_rational_approximations(ratio, max_denominator):
        k, l = convergent.numerator, convergent.denominator
        yield k, l, value(k, l)


def approximate_vd_mod(
    target,
    link1: BaseLink,
    link2: BaseLink,
    eps,
    ctx: PrecisionContext,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> Recipe:
    """Smallest-denominator convergent recipe with |vd_mod - target| < eps,
    or an anchor link alone when it sits within tolerance of the target."""
    target = _as_decimal(target, "target")
    eps = _as_decimal(eps, "eps")
    parse_count(max_denominator, "max_denominator")
    if eps <= 0:
        raise DomainError(f"tolerance must be positive, got {eps}")
    tol = ctx.comparison_tolerance
    if eps <= tol:
        raise DomainError(
            f"tolerance {eps} is too fine for {ctx.digits} digits, which resolve "
            f"only tolerances above {tol}; raise the precision"
        )
    with ctx.working():
        for k, l, achieved in _candidates(target, link1, link2, ctx, max_denominator):
            error = abs(achieved - target)
            # an anchor alone (k or l zero) is taken only within tol, which is below eps
            if (error < eps if k and l else error <= tol):
                c = composition([(link, n) for link, n in ((link1, k), (link2, l)) if n])
                achieved_vd, achieved_vd_mod = densities(c, ctx)
                return Recipe(
                    k=k,
                    l=l,
                    m=1,
                    composition=c,
                    achieved_vd_mod=achieved_vd_mod,
                    achieved_vd=achieved_vd,
                    error=error,
                    target=target,
                    mode="vdmod",
                )
    raise CapExceededError(
        f"no convergent recipe reaches eps={eps} with denominator <= {max_denominator}; "
        "raise the max_denominator cap"
    )


def approximate_vd(
    target,
    link1: BaseLink,
    link2: BaseLink,
    eps,
    ctx: PrecisionContext,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
) -> Recipe:
    """Recipe with |vd - target| < eps.

    Matches vd_mod to eps/2 first, then replicates the whole recipe m
    times; the replication gap vd_mod/(m*atilde+1) has a closed form, so
    the least m bringing it under eps/2 is computed directly.
    """
    target = _as_decimal(target, "target")
    eps = _as_decimal(eps, "eps")
    if eps <= 0:
        raise DomainError(f"tolerance must be positive, got {eps}")
    with ctx.working():
        half = eps / 2
        if half <= ctx.comparison_tolerance:
            raise DomainError(
                f"tolerance {eps} is too fine for {ctx.digits} digits: vd mode matches vd_mod to eps/2, "
                f"and only tolerances above {ctx.comparison_tolerance} resolve; raise the precision"
            )
        try:
            base = approximate_vd_mod(target, link1, link2, half, ctx, max_denominator)
        except CapExceededError:
            raise CapExceededError(
                f"no convergent recipe reaches eps={eps} (vd_mod within eps/2) with denominator "
                f"<= {max_denominator}; raise the max_denominator cap"
            ) from None
        core = base.composition
        vdm = base.achieved_vd_mod.evaluated
        # least m with vd_mod/(m*atilde+1) < eps/2, i.e. m > (2*vd_mod/eps - 1)/atilde
        threshold = (2 * Fraction(vdm) / Fraction(eps) - 1) / core.atilde
        m = max(1, math.floor(threshold) + 1)
        while replication_error(core, m, ctx) >= half:  # rounding safety; rarely taken
            m += 1
        expanded = core if m == 1 else replicate(core, m)
        achieved_vd, achieved_vd_mod = densities(expanded, ctx)
        return replace(
            base,
            m=m,
            composition=expanded,
            achieved_vd_mod=achieved_vd_mod,
            achieved_vd=achieved_vd,
            error=abs(achieved_vd.evaluated - target),
            mode="vd",
        )
