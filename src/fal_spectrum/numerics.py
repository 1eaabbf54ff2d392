"""Arbitrary-precision evaluation of the ideal hyperbolic volume constants.

The two constants that govern the density windows are

    v_oct = 8 * Lambda(pi/4)    (regular ideal hyperbolic octahedron)
    v_tet = 2 * Lambda(pi/6)    (regular ideal hyperbolic tetrahedron)

where Lambda is the Lobachevsky function

    Lambda(theta) = -integral_0^theta log|2 sin t| dt
                  = 1/2 * sum_{n>=1} sin(2*n*theta) / n^2 .

Summing the sine series term by term gains digits far too slowly for
high precision, so ``lobachevsky`` evaluates the equivalent expansion
(obtained by integrating the product formula for sin)

    Lambda(theta) = theta*(1 - log(2*theta))
                  + sum_{n>=1} zeta(2n) * theta^(2n+1) / (n*(2n+1)*pi^(2n)).

With zeta(2n) = |B_2n| * (2*pi)^(2n) / (2*(2n)!) and the Bernoulli
numbers written through the tangent numbers T_n (tan x = sum T_n
x^(2n-1)/(2n-1)!) as B_2n = (-1)^(n-1) * 2n * T_n / (4^n * (4^n - 1)),
the pi powers cancel and the n-th term is

    T_n * theta^(2n+1) / ((4^n - 1) * (2n+1)!),

a power of theta times a ratio of integers, so no Bernoulli number is
ever formed.  Successive terms shrink by a factor of about (theta/pi)^2
<= 1/4, and zeta(2n) <= zeta(2) gives a proven geometric bound on the
truncated tail, used as the stopping rule.  The bound fixes the number
of terms before the sum starts.

T_1..T_N come from Brent & Harvey's integer-only O(N^2) recurrence
("Fast computation of Bernoulli, Tangent and Secant numbers",
arXiv:1108.0286).  The recurrence is not incremental, so the shared
table is built once at the length the series asks for.

Everything evaluated here and elsewhere in the package is a
``decimal.Decimal`` carrying ``digits`` significant digits; internal
arithmetic runs with a fixed number of guard digits and results are
rounded once at the end.  Constants are cached per precision and the
cache is safe for concurrent readers.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigurationError, DomainError

__all__ = [
    "DEFAULT_DIGITS",
    "GUARD_DIGITS",
    "MAX_DIGITS",
    "MAX_EXPONENT",
    "MIN_DIGITS",
    "PrecisionContext",
    "check_exponent",
    "combination",
    "exact_decimal_string",
    "fraction_to_decimal",
    "lobachevsky",
    "pi",
    "raw_constants",
    "round_to",
    "ten_v_tet",
    "two_v_oct",
    "v_oct",
    "v_tet",
]

DEFAULT_DIGITS = 30
MIN_DIGITS = 20
MAX_DIGITS = 1000  # the cold cost of the constants grows about cubically in digits
MAX_EXPONENT = 10_000  # largest exponent of a catalog number or decimal input; "1eN" builds 10**N
GUARD_DIGITS = 5

# Any upper bound on zeta(2) = pi^2/6 = 1.6449... keeps the tail estimate valid.
_ZETA2_UPPER = Decimal("1.645")

# Exact integer products kept as Decimals: growing (2n+1)! as an int and
# converting it for every series term costs time quadratic in its length.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision shared by every evaluated quantity.

    ``digits`` counts significant decimal digits.  Comparisons between
    evaluated quantities always take ``comparison_tolerance`` from here;
    no other epsilon exists in the package.
    """

    digits: int = DEFAULT_DIGITS

    def __post_init__(self) -> None:
        if not isinstance(self.digits, int) or isinstance(self.digits, bool):
            raise ConfigurationError(f"precision must be an integer, got {self.digits!r}")
        if self.digits < MIN_DIGITS:
            raise ConfigurationError(
                f"precision must be at least {MIN_DIGITS} digits, got {self.digits}"
            )
        if self.digits > MAX_DIGITS:
            raise ConfigurationError(
                f"precision must be at most {MAX_DIGITS} digits, got {self.digits}"
            )

    @property
    def working_prec(self) -> int:
        return self.digits + GUARD_DIGITS

    @property
    def comparison_tolerance(self) -> Decimal:
        return Decimal(1).scaleb(GUARD_DIGITS - self.digits)

    def working(self):
        """Decimal context manager running arithmetic at ``working_prec``."""
        return localcontext(_context(self.working_prec))


@lru_cache(maxsize=None)
def _context(prec: int) -> Context:
    """Template for ``localcontext`` (which copies it): the decimal defaults
    at ``prec``, so arithmetic inside never depends on the caller's context.
    localcontext(prec=...) would need Python 3.11."""
    return Context(prec=prec)


def check_exponent(value: Decimal, what: str) -> Decimal:
    """``value``, refused if its exponent exceeds MAX_EXPONENT in magnitude,
    before Fraction(value) builds 10**exponent or a quotient overflows."""
    if value.is_finite() and abs(value.as_tuple().exponent) > MAX_EXPONENT:
        raise DomainError(f"{what}: exponent out of range (at most {MAX_EXPONENT} in magnitude)")
    return value


def round_to(value: Decimal, ctx: PrecisionContext) -> Decimal:
    """Round ``value`` to the context's number of significant digits."""
    with localcontext(_context(ctx.digits)):
        return +value


# ---------------------------------------------------------------------------
# Tangent numbers (exact, shared, one table per series length)

_tangent_lock = threading.Lock()
_tangents: list[int] = []  # [T_1, T_2, ..., T_n]; never mutated once published


def _tangent_numbers(count: int) -> list[int]:
    """T_1..T_count, tan x = sum T_n x^(2n-1)/(2n-1)!, by Brent & Harvey's
    in-place integer recurrence (arXiv:1108.0286, Algorithm TangentNumbers)."""
    t = [1] * count
    for k in range(1, count):
        t[k] = k * t[k - 1]
    for k in range(1, count):
        prev = t[k - 1]
        for d in range(count - k):
            prev = t[k + d] = d * prev + (d + 2) * t[k + d]
    return t


def _tangent_table(count: int) -> list[int]:
    """[T_1, ..., T_m] for some m >= count.

    The recurrence is not incremental, so a longer request rebuilds the
    table at exactly its size and publishes the new list under the lock.
    """
    global _tangents
    with _tangent_lock:
        if len(_tangents) < count:
            _tangents = _tangent_numbers(count)
        return _tangents


# ---------------------------------------------------------------------------
# pi

@lru_cache(maxsize=None)
def _pi_at(prec: int) -> Decimal:
    """pi = 16*atan(1/5) - 4*atan(1/239); alternating series, so the
    truncation error stays below the first omitted term."""

    def atan_inv(x: int) -> Decimal:
        xd = Decimal(x)
        x_sq = xd * xd
        term = 1 / xd
        total = term
        k = 1
        sign = -1
        stop = -(prec + 12)
        while term.adjusted() >= stop:
            term /= x_sq
            total += sign * term / (2 * k + 1)
            sign = -sign
            k += 1
        return total

    with localcontext(_context(prec + 10)):
        raw = 16 * atan_inv(5) - 4 * atan_inv(239)
    with localcontext(_context(prec)):
        return +raw


def pi(ctx: PrecisionContext) -> Decimal:
    return round_to(_pi_at(ctx.working_prec), ctx)


# ---------------------------------------------------------------------------
# Lobachevsky function and the two volume constants

def _lobachevsky_raw(theta: Decimal, ctx: PrecisionContext) -> Decimal:
    """Lambda(theta) at working precision, without the final rounding."""
    with ctx.working():
        pi_w = _pi_at(ctx.working_prec)
        if theta <= 0 or theta > pi_w / 2 + ctx.comparison_tolerance:
            raise DomainError(f"angle must satisfy 0 < theta <= pi/2, got {theta}")
        ratio_sq = (theta / pi_w) ** 2
        terms = _series_terms(theta, ratio_sq, Decimal(1).scaleb(-(ctx.digits + 2)))
        total = theta * (1 - (2 * theta).ln())
        theta_sq = theta * theta
        power = theta  # theta^(2n+1)
        factorial = Decimal(1)  # (2n+1)!, exact
        for n, t in zip(range(1, terms + 1), _tangent_table(terms)):
            power *= theta_sq
            factorial = _EXACT.multiply(factorial, 2 * n * (2 * n + 1))
            total += Decimal(t) * power / _EXACT.multiply(4**n - 1, factorial)
        return total


def _series_terms(theta: Decimal, ratio_sq: Decimal, target: Decimal) -> int:
    """The first n whose proven tail bound is below ``target``:
    tail <= zeta(2) * theta * r^(n+1) / ((n+1)(2n+3)(1-r)), r = (theta/pi)^2."""
    ratio_pow = ratio_sq  # ratio_sq^n
    for n in itertools.count(1):
        tail = (
            _ZETA2_UPPER
            * theta
            * ratio_pow
            * ratio_sq
            / ((n + 1) * (2 * n + 3) * (1 - ratio_sq))
        )
        if tail < target:
            return n
        ratio_pow *= ratio_sq


def lobachevsky(theta: Decimal, ctx: PrecisionContext) -> Decimal:
    """Lambda(theta) for 0 < theta <= pi/2, rounded to ``ctx.digits``."""
    if not isinstance(theta, Decimal):
        theta = Decimal(theta)
    return round_to(_lobachevsky_raw(theta, ctx), ctx)


@lru_cache(maxsize=None)
def raw_constants(ctx: PrecisionContext) -> tuple[Decimal, Decimal]:
    """(v_oct, v_tet) at working precision, unrounded, for arithmetic that
    rounds once at the end."""
    with ctx.working():
        pi_w = _pi_at(ctx.working_prec)
        voct = 8 * _lobachevsky_raw(pi_w / 4, ctx)
        vtet = 2 * _lobachevsky_raw(pi_w / 6, ctx)
    return voct, vtet


def v_oct(ctx: PrecisionContext) -> Decimal:
    """Volume of the regular ideal octahedron, 8*Lambda(pi/4)."""
    return round_to(raw_constants(ctx)[0], ctx)


def v_tet(ctx: PrecisionContext) -> Decimal:
    """Volume of the regular ideal tetrahedron, 2*Lambda(pi/6)."""
    return round_to(raw_constants(ctx)[1], ctx)


def two_v_oct(ctx: PrecisionContext) -> Decimal:
    """Lower edge of the dense density window."""
    voct, _ = raw_constants(ctx)
    with ctx.working():
        return round_to(2 * voct, ctx)


def ten_v_tet(ctx: PrecisionContext) -> Decimal:
    """Unattainable upper edge of the density spectrum."""
    _, vtet = raw_constants(ctx)
    with ctx.working():
        return round_to(10 * vtet, ctx)


def clear_caches() -> None:
    """Drop memoized constants (used by timing tests)."""
    _pi_at.cache_clear()
    raw_constants.cache_clear()
    global _tangents
    with _tangent_lock:
        _tangents = []


# ---------------------------------------------------------------------------
# Helpers shared by the exact-volume layer

def fraction_to_decimal(value: Fraction, ctx: PrecisionContext) -> Decimal:
    """``value`` at working precision, unrounded."""
    with ctx.working():
        return Decimal(value.numerator) / Decimal(value.denominator)


def combination(c_oct: Fraction, c_tet: Fraction, remainder: Fraction, ctx: PrecisionContext) -> Decimal:
    """c_oct*v_oct + c_tet*v_tet + remainder at working precision, unrounded
    (coefficients may be signed)."""
    voct, vtet = raw_constants(ctx)
    with ctx.working():
        return (
            fraction_to_decimal(c_oct, ctx) * voct
            + fraction_to_decimal(c_tet, ctx) * vtet
            + fraction_to_decimal(remainder, ctx)
        )


def exact_decimal_string(value: Fraction) -> str | None:
    """Render a rational as its exact finite decimal, or None if it has none."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    shift = max(twos, fives)
    scaled = value.numerator * 10**shift // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    if shift == 0:
        return sign + digits
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"
