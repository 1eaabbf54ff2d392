"""Independent oracles the implementation is checked against.

The quadrature oracle integrates -log|2 sin t| directly with mpmath's
tanh-sinh rule (which absorbs the endpoint log singularity); it shares
no code or series with the package's evaluation path.  The reference
constants come from mpmath's Catalan constant and trigamma function and
decide correct rounding up to 1000 digits.  The Bernoulli
recurrence is the package's former Fraction route; the tangent numbers
derived from it check the package's integer tangent table exactly.  The
rational oracle searches every denominator by brute force, and the eager
convergent list is the package's former Fraction walk, kept to check the
lazy integer one.  The volume
fold is the package's former per-query walk over a composition's parts,
kept to check the totals composition() fixes at construction.  The
weighted average recomputes vd_mod per part, and the row counter counts
scan rows by a knapsack table instead of walking the multisets.  The
settled rounding is the package's former evaluator, one value at a time
by integer floor and ceiling divisions and Ziv's loop, rationals
included, kept to check the shared enclosure and the decimal division.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from math import comb

import mpmath

from fal_spectrum import Composition, DensityValue, DomainError, ExactVolume
from fal_spectrum import numerics
from fal_spectrum.numerics import PrecisionContext, round_to


def _mpf_to_decimal(value, digits: int) -> Decimal:
    return Decimal(mpmath.nstr(value, digits, strip_zeros=False))


def lobachevsky_quadrature(theta: Decimal, digits: int = 40) -> Decimal:
    """-integral_0^theta log|2 sin t| dt at the exact decimal angle given."""
    with mpmath.workdps(digits + 15):
        t = mpmath.mpf(str(theta))
        value = mpmath.quad(lambda x: -mpmath.log(2 * mpmath.sin(x)), [0, t])
        return _mpf_to_decimal(value, digits)


def quadrature_v_oct(digits: int = 40) -> Decimal:
    """8 * Lambda(pi/4) with the angle formed inside mpmath."""
    with mpmath.workdps(digits + 15):
        value = 8 * mpmath.quad(
            lambda x: -mpmath.log(2 * mpmath.sin(x)), [0, mpmath.pi / 4]
        )
        return _mpf_to_decimal(value, digits)


def quadrature_v_tet(digits: int = 40) -> Decimal:
    """2 * Lambda(pi/6) with the angle formed inside mpmath."""
    with mpmath.workdps(digits + 15):
        value = 2 * mpmath.quad(
            lambda x: -mpmath.log(2 * mpmath.sin(x)), [0, mpmath.pi / 6]
        )
        return _mpf_to_decimal(value, digits)


def bernoulli_recurrence(n: int) -> list[Fraction]:
    """[B_0, ..., B_n] via sum_{j<=m} C(m+1, j) B_j = 0, with B_1 = -1/2."""
    bernoulli = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j, b in enumerate(bernoulli):
            if b:
                acc += comb(m + 1, j) * b
        bernoulli.append(-acc / (m + 1))
    return bernoulli


def tangent_numbers(count: int) -> list[int]:
    """[T_1, ..., T_count] from the Bernoulli recurrence, through
    T_n = (-1)^(n-1) * B_2n * 4^n * (4^n - 1) / (2n), which must be integral."""
    bernoulli = bernoulli_recurrence(2 * count)
    tangents = []
    for n in range(1, count + 1):
        t = (-1) ** (n - 1) * bernoulli[2 * n] * 4**n * (4**n - 1) / (2 * n)
        assert t.denominator == 1, (n, t)
        tangents.append(t.numerator)
    return tangents


def closed_form_constants(digits: int) -> tuple[Decimal, Decimal]:
    """(v_oct, v_tet) as 4*Catalan and Cl_2(pi/3), evaluated by mpmath."""
    with mpmath.workdps(digits + 15):
        voct = 4 * mpmath.catalan
        vtet = mpmath.clsin(2, mpmath.pi / 3)
        return _mpf_to_decimal(voct, digits + 10), _mpf_to_decimal(vtet, digits + 10)


def reference_constants(digits: int) -> tuple[Decimal, Decimal, Decimal]:
    """(v_oct, v_tet, pi) to ``digits`` significant digits, by mpmath:
    4*Catalan, and v_tet from psi_1(1/3) - psi_1(2/3) = 4*sqrt(3)*v_tet,
    which is about ten times faster than clsin at 1000 digits."""
    with mpmath.workdps(digits + 15):
        third = mpmath.mpf(1) / 3
        vtet = (mpmath.psi(1, third) - mpmath.psi(1, 2 * third)) / (4 * mpmath.sqrt(3))
        values = (4 * mpmath.catalan, vtet, mpmath.pi)
        return tuple(_mpf_to_decimal(value, digits) for value in values)


def best_error_upto(r: Fraction, max_denominator: int) -> Fraction:
    """Smallest |r - p/q| over every fraction with 1 <= q <= max_denominator."""
    best: Fraction | None = None
    for q in range(1, max_denominator + 1):
        floor_p = (r.numerator * q) // r.denominator
        for p in (floor_p, floor_p + 1):
            err = abs(r - Fraction(p, q))
            if best is None or err < best:
                best = err
    assert best is not None
    return best


def eager_convergents(r: Fraction, max_denominator: int) -> list[Fraction]:
    """Every continued-fraction convergent of r > 0 with denominator at most
    max_denominator, listed before any is used; a zero numerator is skipped
    and a convergent at the previous one's denominator replaces it."""
    convergents: list[Fraction] = []
    h_prev, h = 0, 1
    k_prev, k = 1, 0
    num, den = r.numerator, r.denominator
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


def alpha_for_target(target: Decimal, v1: Decimal, v2: Decimal) -> Fraction:
    """Exact mixing weight alpha with target = alpha*v1 + (1-alpha)*v2."""
    return (Fraction(target) - Fraction(v2)) / (Fraction(v1) - Fraction(v2))


def target_ratio(alpha: Fraction, atilde1: int, atilde2: int) -> Fraction:
    """Ratio r that k/l must approach so the weights mix as alpha : 1-alpha."""
    if not 0 < alpha < 1:
        raise DomainError(f"mixing weight must be strictly between 0 and 1, got {alpha}")
    return Fraction(atilde2) * alpha / (Fraction(atilde1) * (1 - alpha))


def volume_fold(parts) -> ExactVolume:
    """Total volume of (link, multiplicity) parts by ExactVolume + and *."""
    total = ExactVolume()
    for link, multiplicity in parts:
        total = total + link.volume * multiplicity
    return total


def weighted_average_vd_mod(c: Composition, ctx: PrecisionContext) -> DensityValue:
    """vd_mod computed the other way: the per-part modified densities averaged
    with weights k_i * (a_i - 1).  Must agree exactly with vd_mod."""
    weight_total = 0
    acc = ExactVolume()
    for link, k in c.parts:
        weight = k * link.atilde
        weight_total += weight
        acc = acc + link.volume * Fraction(weight, link.atilde)
    with ctx.working():
        evaluated = acc.evaluate(ctx) / weight_total
    return DensityValue(acc, weight_total, round_to(evaluated, ctx))


def count_scan_rows(atildes, budget: int) -> int:
    """Nonempty multiplicity assignments with sum k_i*atilde_i <= budget.

    ways[b] counts the assignments summing to exactly b; adding one part
    size at a time is the unbounded-knapsack recurrence."""
    ways = [1] + [0] * budget
    for step in atildes:
        for total in range(step, budget + 1):
            ways[total] += ways[total - step]
    return sum(ways) - 1


def settled_rounding(a: int, b: int, r: int, den: int, digits: int) -> Decimal:
    """(a*v_oct + b*v_tet + r)/den correctly rounded to ``digits`` significant
    digits, all kept, for each value alone: both ends of its integer
    enclosure at scale 10**(frac - shift) must round alike, otherwise the
    enclosure is redone with twice the guard digits.  An exact zero is
    Decimal(0)."""
    if not (a or b or r):
        return Decimal(0)
    shift = ((4 * abs(a) + abs(b) + abs(r)).bit_length() - den.bit_length()) * 30103 // 100000
    up, down = (1, den * 10**shift) if shift > 0 else (10**-shift, den)
    final, exact = Context(prec=digits), numerics._EXACT
    guard = 10
    while True:
        frac = digits + numerics.GUARD_DIGITS + guard
        low = high = r * 10**frac
        if a or b:
            (o_lo, o_hi), (t_lo, t_hi), _ = numerics._enclosures(frac)
            low += a * (o_lo if a > 0 else o_hi) + b * (t_lo if b > 0 else t_hi)
            high += a * (o_hi if a > 0 else o_lo) + b * (t_hi if b > 0 else t_lo)
        value = final.plus(exact.scaleb(low * up // down, shift - frac))
        if final.plus(exact.scaleb(-(-high * up // down), shift - frac)) == value:
            return value
        guard *= 2
