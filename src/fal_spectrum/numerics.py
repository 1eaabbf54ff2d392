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
                  + sum_{n>=1} zeta(2n) * theta^(2n+1) / (n*(2n+1)*pi^(2n))

with zeta(2n) = |B_2n| * (2*pi)^(2n) / (2*(2n)!) supplied by exact
Bernoulli numbers, which cancels the pi powers term by term.  Successive
terms shrink by a factor of about (theta/pi)^2 <= 1/4, and zeta(2n) <=
zeta(2) gives a proven geometric bound on the truncated tail, used as
the stopping rule.

Everything evaluated here and elsewhere in the package is a
``decimal.Decimal`` carrying ``digits`` significant digits; internal
arithmetic runs with a fixed number of guard digits and results are
rounded once at the end.  Constants are cached per precision and the
cache is safe for concurrent readers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import ConfigurationError, DomainError

__all__ = [
    "DEFAULT_DIGITS",
    "GUARD_DIGITS",
    "MIN_DIGITS",
    "PrecisionContext",
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
GUARD_DIGITS = 5

# Any upper bound on zeta(2) = pi^2/6 = 1.6449... keeps the tail estimate valid.
_ZETA2_UPPER = Decimal("1.645")

_MAX_SERIES_TERMS = 100_000


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


def round_to(value: Decimal, ctx: PrecisionContext) -> Decimal:
    """Round ``value`` to the context's number of significant digits."""
    with localcontext(_context(ctx.digits)):
        return +value


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, shared, extended on demand)

_bernoulli_lock = threading.Lock()
_bernoulli: list[Fraction] = [Fraction(1)]


def _bernoulli_number(n: int) -> Fraction:
    """B_n via the recurrence sum_{j<=m} C(m+1, j) B_j = 0."""
    with _bernoulli_lock:
        while len(_bernoulli) <= n:
            m = len(_bernoulli)
            acc = Fraction(0)
            for j, b in enumerate(_bernoulli):
                if b:
                    acc += comb(m + 1, j) * b
            _bernoulli.append(-acc / (m + 1))
        return _bernoulli[n]


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
        two_theta = 2 * theta
        ratio_sq = (theta / pi_w) ** 2
        target = Decimal(1).scaleb(-(ctx.digits + 2))
        total = theta * (1 - two_theta.ln())
        two_theta_sq = two_theta * two_theta
        power = Decimal(1)  # (2*theta)^(2n)
        factorial = 1  # (2n)!
        ratio_pow = ratio_sq  # ratio_sq^n
        n = 0
        while True:
            n += 1
            if n > _MAX_SERIES_TERMS:  # pragma: no cover - defensive
                raise ConfigurationError("Lobachevsky series failed to converge")
            power *= two_theta_sq
            factorial *= (2 * n - 1) * (2 * n)
            b = _bernoulli_number(2 * n)
            total += (Decimal(abs(b.numerator)) * power * theta) / Decimal(
                2 * factorial * b.denominator * n * (2 * n + 1)
            )
            # tail <= zeta(2) * theta * r^(n+1) / ((n+1)(2n+3)(1-r)), r = (theta/pi)^2
            tail = (
                _ZETA2_UPPER
                * theta
                * ratio_pow
                * ratio_sq
                / ((n + 1) * (2 * n + 3) * (1 - ratio_sq))
            )
            if tail < target:
                return total
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
    with _bernoulli_lock:
        del _bernoulli[1:]


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
