"""Recipe search: realize a target density as a belted sum of two links.

Any value t between the modified densities v1, v2 of two anchor links L1,
L2 is a convex combination alpha*v1 + (1-alpha)*v2.  Mixing k copies of
L1 with l copies of L2 realizes the combination with effective weight
ratio k*(a1-1) : l*(a2-1), so driving k/l toward

    r = (a2-1)*alpha / ((a1-1)*(1-alpha)) = (a2-1)*(t-v2) / ((a1-1)*(v1-t))

makes the mixture converge to the target.  Continued-fraction
convergents of r supply the (k, l) pairs: they are the best rational
approximations per denominator and reach any tolerance in O(log) steps.

The plain (non-modified) density of a recipe always sits below its
modified density by exactly vd_mod/(m*atilde+1) after replicating the
whole recipe m times, so targets for vd are reached by first matching
vd_mod to half the tolerance and then replicating until the remaining
gap fits in the other half.

Both modes run one search, ``_approximate``; the mode picks only the
bound (eps, or eps/2 in vd mode) and the wording of its refusals.  r is
one pair of ints from the exact integer ratios of the Decimals t, v1 and
v2, and its convergents come lazily from the Euclidean quotients of that
pair.  Each candidate (k, l), and the replication gap, is evaluated by
numerics.correctly_rounded from integer totals: the anchors' volume
components over one common denominator D total (k*n1 + l*n2)/D.  Only
the returned recipe becomes a Composition, built once with its final
multiplicities; its vd_mod is its candidate's, which replication keeps.

Every decision is exact.  The search compares the printed (correctly
rounded) densities with the target, the tolerance and the bound under
numerics._EXACT, which never rounds, so each difference and eps/2 is the
exact Decimal and comparing Decimals is exact.  parse_decimal caps every
exponent at MAX_EXPONENT, which bounds the digits of such a difference.
So in vdmod mode the printed vd_mod lies strictly within eps of the
target, and in vd mode the printed vd_mod lies within eps/2 of it and
the printed replication gap below eps/2.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from ._frozen import Frozen
from .calculus import Composition, DensityValue, composition
from .catalog import BaseLink
from .errors import CapExceededError, DegeneratePairError, DomainError, TargetRangeError
from .numerics import _EXACT, PrecisionContext, correctly_rounded, parse_count, parse_decimal, parse_rational

__all__ = [
    "DEFAULT_MAX_DENOMINATOR",
    "Recipe",
    "approximate_vd",
    "approximate_vd_mod",
    "best_rational_approximations",
]

DEFAULT_MAX_DENOMINATOR = 10**9


class Recipe(Frozen):
    """A found approximation: m replications of (k copies of L1 + l copies of L2).

    ``composition`` is the fully expanded multiset (m*k copies of L1 and
    m*l copies of L2); re-evaluating it through the calculus module
    reproduces the stored densities exactly.  ``error`` is the distance
    of the mode's printed density from the target, correctly rounded.
    """

    __slots__ = ("k", "l", "m", "composition", "achieved_vd_mod", "achieved_vd", "error", "mode")

    def __init__(self, k: int, l: int, m: int, composition: Composition, achieved_vd_mod: DensityValue,
                 achieved_vd: DensityValue, error: Decimal, mode: str) -> None:
        for name, value in zip(self.__slots__, (k, l, m, composition, achieved_vd_mod, achieved_vd, error, mode)):
            object.__setattr__(self, name, value)


def _mixing_ratio(t: Decimal, v1: Decimal, v2: Decimal, atilde1: int, atilde2: int) -> tuple[int, int]:
    """r = atilde2*(t - v2) / (atilde1*(v1 - t)) as positive ints (num, den),
    not reduced, for t strictly between v1 and v2."""
    (nt, dt), (n1, d1), (n2, d2) = t.as_integer_ratio(), v1.as_integer_ratio(), v2.as_integer_ratio()
    # t - v2 = (nt*d2 - n2*dt)/(dt*d2) and v1 - t = (n1*dt - nt*d1)/(d1*dt): dt cancels
    num, den = atilde2 * (nt * d2 - n2 * dt) * d1, atilde1 * (n1 * dt - nt * d1) * d2
    return (num, den) if den > 0 else (-num, -den)


def _convergents(num: int, den: int, max_denominator: int):
    """(p, q) for each convergent p/q of num/den > 0 with q <= max_denominator,
    lazily in increasing q; an unreduced pair has the reduced one's quotients.
    A zero p is skipped, and every convergent is held back a step, so that a
    leading integer one is dropped when the next shares its q = 1."""
    p_prev, p = 0, 1  # numerator recurrence seeds p_{n-2}, p_{n-1}
    q_prev, q = 1, 0  # denominator recurrence seeds q_{n-2}, q_{n-1}
    held = None
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if q > max_denominator:
            break
        if p == 0:
            continue
        if held and held[1] != q:
            yield held
        held = p, q
    if held:
        yield held


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
    return [Fraction(p, q) for p, q in _convergents(value.numerator, value.denominator, max_denominator)]


def _vd_mod_evaluator(link1: BaseLink, link2: BaseLink, ctx: PrecisionContext):
    """(k, l, scale=1) -> the evaluated vd_mod of k copies of link1 and l of
    link2 over ``scale``, from integer totals over one common denominator."""
    parts = link1.volume.components() + link2.volume.components()
    d = math.lcm(*(x.denominator for x in parts))
    n = [x.numerator * (d // x.denominator) for x in parts]
    atilde1, atilde2 = link1.atilde, link2.atilde

    def value(k: int, l: int, scale: int = 1) -> Decimal:
        totals = [k * n[i] + l * n[i + 3] for i in range(3)]
        return correctly_rounded(*totals, d * (k * atilde1 + l * atilde2) * scale, ctx)

    return value


def _recipe(link1, link2, k: int, l: int, m: int, vdm: Decimal, target: Decimal, mode: str, ctx) -> Recipe:
    """m replications of (k copies of link1 + l of link2), one Composition
    built; ``vdm`` is the candidate's vd_mod, which replication keeps."""
    c = composition([(link, n * m) for link, n in ((link1, k), (link2, l)) if n])
    vd = correctly_rounded(*c.volume.components(), c.atilde + 1, ctx)
    (nx, dx), (nt, dt) = (vd if mode == "vd" else vdm).as_integer_ratio(), target.as_integer_ratio()
    error = correctly_rounded(0, 0, abs(nx * dt - nt * dx), dx * dt, ctx)
    achieved = DensityValue(c.volume, c.atilde, vdm), DensityValue(c.volume, c.atilde + 1, vd)
    return Recipe(k, l, m, c, *achieved, error, mode)


def _approximate(target, link1: BaseLink, link2: BaseLink, eps, ctx: PrecisionContext,
                 max_denominator: int, mode: str) -> Recipe:
    """The search of both modes: each anchor alone within tolerance, else the
    first convergent k/l of the mixing ratio within ``bound`` (eps, or eps/2
    in vd mode), then in vd mode the least replication count m that puts
    the gap below eps/2.  The mode also picks the wording of the refusals."""
    target = parse_decimal(target, "target")
    eps = parse_decimal(eps, "eps")
    parse_count(max_denominator, "max_denominator")
    if eps <= 0:
        raise DomainError(f"tolerance must be positive, got {eps}")
    tol, vd = ctx.comparison_tolerance, mode == "vd"
    with localcontext(_EXACT):  # every difference, eps/2 and comparison here is exact
        bound = eps / 2 if vd else eps
        if bound <= tol:
            reason = (f": vd mode matches vd_mod to eps/2, and only tolerances above {tol} resolve" if vd
                      else f", which resolve only tolerances above {tol}")
            raise DomainError(f"tolerance {eps} is too fine for {ctx.digits} digits{reason}; raise the precision")
        value = _vd_mod_evaluator(link1, link2, ctx)
        v1, v2 = value(1, 0), value(0, 1)
        hits = [(k, l, v) for k, l, v in ((1, 0, v1), (0, 1, v2)) if abs(v - target) <= tol]  # below eps
        if hits:
            k, l, vdm = hits[0]
        else:
            if abs(v1 - v2) <= tol:
                raise DegeneratePairError(
                    f"anchor densities {v1} and {v2} coincide within tolerance; no mixing ratio exists"
                )
            low, high = sorted((v1, v2))
            # more than tol from both anchors, so a target within tol of [low, high] lies
            # strictly inside it, and the mixing ratio is positive
            if not low < target < high:
                raise TargetRangeError(f"target {target} lies outside [{low}, {high}]")
            for k, l in _convergents(*_mixing_ratio(target, v1, v2, link1.atilde, link2.atilde), max_denominator):
                vdm = value(k, l)
                if abs(vdm - target) < bound:
                    break
            else:
                reach = f"eps={eps} (vd_mod within eps/2)" if vd else f"eps={eps}"
                raise CapExceededError(
                    f"no convergent recipe reaches {reach} with denominator <= {max_denominator}; "
                    "raise the max_denominator cap"
                )
        m = 1
        if vd:
            atilde = k * link1.atilde + l * link2.atilde
            # least m with vd_mod/(m*atilde+1) < eps/2, i.e. m > (2*vd_mod/eps - 1)/atilde
            (nv, dv), (ne, de) = vdm.as_integer_ratio(), eps.as_integer_ratio()
            m = max(1, (2 * nv * de - dv * ne) // (dv * ne * atilde) + 1)
            while value(k, l, m * atilde + 1) >= bound:  # the gap replication_error gives; rarely taken
                m += 1
    return _recipe(link1, link2, k, l, m, vdm, target, mode, ctx)


def approximate_vd_mod(target, link1: BaseLink, link2: BaseLink, eps, ctx: PrecisionContext,
                       max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> Recipe:
    """Smallest-denominator convergent recipe with |vd_mod - target| < eps,
    or an anchor link alone when it sits within tolerance of the target."""
    return _approximate(target, link1, link2, eps, ctx, max_denominator, "vdmod")


def approximate_vd(target, link1: BaseLink, link2: BaseLink, eps, ctx: PrecisionContext,
                   max_denominator: int = DEFAULT_MAX_DENOMINATOR) -> Recipe:
    """Recipe with |vd_mod - target| < eps/2 and replication gap below eps/2.

    Matches vd_mod to eps/2 first, then replicates the whole recipe m
    times; the replication gap vd_mod/(m*atilde+1) has a closed form, so
    the least m bringing it under eps/2 is computed directly.
    """
    return _approximate(target, link1, link2, eps, ctx, max_denominator, "vd")
