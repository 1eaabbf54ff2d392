"""Arbitrary-precision evaluation of the ideal hyperbolic volume constants.

The two constants that govern the density windows are

    v_oct = 4*G          (regular ideal octahedron; G is Catalan's constant)
    v_tet = Cl_2(pi/3)   (regular ideal tetrahedron)

``_enclosures`` sums one rational series for each:

    v_oct = (1/16) * sum_{n>=1} (-1)^(n-1) * h_n * c_n / d_n          (Lupas)
        h_0 = 1,  h_n / h_(n-1) = 32 n^3 (2n-1) / ((4n-1)(4n-3))^2,
        c_n = 40n^2 - 24n + 3,  d_n = n^3 (2n-1);

    v_tet = (3/(2*pi)) * sum_{n>=1} (1 + (10/3)(-1)^(n+1)) / (n^3 C(2n,n)).

Each summand follows from the previous one by a ratio of small integers:
P_n/P_(n-1) = 32 c_n (n-1)^3 (2n-3) / (((4n-1)(4n-3))^2 c_(n-1)) for
v_oct and Q_n/Q_(n-1) = (n-1)^3 / (2n^2 (2n-1)) for Q_n = 1/(n^3 C(2n,n)).
Both ratios stay below 1/4, from n = 2 and n = 1 on: the denominator
minus four times the numerator, written in m = n - 2 and m = n - 1, has
only positive coefficients.  So each term gains about 0.6 digits.  pi comes
from Machin's 16*atan(1/5) - 4*atan(1/239).

Every series is summed in fixed point: integers scaled by 10**frac, each
term the floor of the previous term times the ratio.  A floor loses less
than one unit, and a ratio below q shrinks the error carried in, so a
carried term is never off by more than 1/(1-q) units (4/3 for the two
constants, 25/24 for the atan powers).  The sum stops at the first term
that is 0, whose true value is therefore below that bound; the proven
errors, in units of 10**-frac, are

    16*v_oct:  the n summands are each off by < 4/3, and the alternating
               tail with decreasing terms is < (4/3)/4, so < 2n;
    3*sigma:   (sigma the v_tet sum, so the weights are 13 and -7) each of
               the n summands is off by < 13*4/3, and the geometric tail
               is < 13*(4/3)*(1/4)/(1-1/4), so < 18n + 6;
    pi:        each atan term is off by < 2 (the 16 and 4 are folded into
               the first power) and each alternating tail is < 1, so
               < 2k + 4 over the k terms of both series.

v_oct is then enclosed by dividing by 16 and v_tet by dividing the
interval for 3*sigma by twice the interval for pi, rounding each end
outwards.  Ziv's rounding test ("Fast evaluation of elementary
mathematical functions with correctly rounded last bit", ACM TOMS 17(3),
1991) makes a result correctly rounded: both ends of its enclosure must
round alike, otherwise the sums are redone with twice the guard digits.

``lobachevsky`` evaluates Lambda(theta) = -integral_0^theta log|2 sin t| dt
by the expansion

    Lambda(theta) = theta*(1 - log(2*theta))
                  + sum_{n>=1} T_n * theta^(2n+1) / ((4^n - 1) * (2n+1)!),

with T_n the tangent numbers (tan x = sum T_n x^(2n-1)/(2n-1)!) from
Brent & Harvey's integer recurrence ("Fast computation of Bernoulli,
Tangent and Secant numbers", arXiv:1108.0286).  Terms shrink by about
(theta/pi)^2 and zeta(2n) <= zeta(2) bounds the tail.  The constants do
not use it, so 8*Lambda(pi/4) and 2*Lambda(pi/6) are an independent check
on them.

Every printed decimal is a value (c_oct*v_oct + c_tet*v_tet + r)/den with
exact rationals c_oct, c_tet, r and an integer den, and its one evaluator,
``correctly_rounded``, encloses it between integers from the constants'
enclosures and settles it by Ziv's test: the correctly rounded value with
exactly ``digits`` significant digits.  Every window decision is the sign
of such a value, which ``sign`` proves by doubling the guard digits until
the enclosure excludes 0; a value not separated at the scale 2*MAX_DIGITS
counts as 0 at every precision, since whether 1, G and Cl_2(pi/3) are
independent over Q is open.  The enclosure cache is safe for concurrent readers.

Every number and count a caller passes in enters through ``parse_decimal``,
``parse_rational`` or ``parse_count``: no floats, only finite numbers with
an exponent of at most MAX_EXPONENT in magnitude, and counts that are ints
(not bools) at or above a minimum.  Anything else is a DomainError.
"""

from __future__ import annotations

import itertools
import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation, localcontext
from fractions import Fraction
from functools import lru_cache

from ._frozen import Frozen
from .errors import ConfigurationError, DomainError

__all__ = [
    "DEFAULT_DIGITS",
    "GUARD_DIGITS",
    "MAX_DIGITS",
    "MAX_EXPONENT",
    "MIN_DIGITS",
    "PrecisionContext",
    "combination",
    "correctly_rounded",
    "exact_decimal_string",
    "floor_quotient",
    "fraction_to_decimal",
    "lobachevsky",
    "parse_count",
    "parse_decimal",
    "parse_rational",
    "pi",
    "rational_string",
    "round_to",
    "sign",
    "ten_v_tet",
    "two_v_oct",
    "v_oct",
    "v_tet",
]

DEFAULT_DIGITS = 30
MIN_DIGITS = 20
MAX_DIGITS = 1000  # cold constants at 1000 digits: about 4.3 ms (Python 3.11, 2-core Xeon)
# Largest exponent, in magnitude, of a number passed in (catalog, command line or
# API); it is the Decimal's own, so "1.5e-10000" has -10001.  "1eN" builds 10**N.
MAX_EXPONENT = 10_000
GUARD_DIGITS = 5
_GUARD = 10  # first extra digits of a fixed-point sum; doubled until Ziv's test passes

# Any upper bound on zeta(2) = pi^2/6 = 1.6449... keeps the tail estimate valid.
_ZETA2_UPPER = Decimal("1.645")

# A context that never rounds: it keeps (2n+1)! as an exact Decimal (an int
# converted for every Lambda term costs time quadratic in its length) and
# shifts fixed-point integers to their exact decimal values.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


class PrecisionContext(Frozen):
    """Working precision shared by every evaluated quantity.

    ``digits`` counts significant decimal digits.  Comparisons between
    evaluated quantities always take ``comparison_tolerance`` from here;
    no other epsilon exists in the package.
    """

    __slots__ = ("digits",)

    def __init__(self, digits: int = DEFAULT_DIGITS) -> None:
        try:
            parse_count(digits, "precision", MIN_DIGITS)
        except DomainError as exc:
            raise ConfigurationError(str(exc)) from None
        if digits > MAX_DIGITS:
            raise ConfigurationError(f"precision must be at most {MAX_DIGITS} digits, got {digits}")
        object.__setattr__(self, "digits", digits)

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


# ---------------------------------------------------------------------------
# The input boundary: every number and count a caller passes in

def _finite_decimal(value, what: str, noun: str) -> Decimal:
    if isinstance(value, float):
        raise DomainError(f"{what}: floats are not accepted: {value!r}")
    try:
        number = Decimal(value)
    except (InvalidOperation, ValueError, TypeError):
        number = None
    if number is None or not number.is_finite():
        raise DomainError(f"{what}: not a valid {noun}: {value!r}")
    if abs(number.as_tuple().exponent) > MAX_EXPONENT:
        raise DomainError(f"{what}: exponent out of range (at most {MAX_EXPONENT} in magnitude)")
    return number


def parse_decimal(value, what: str) -> Decimal:
    """``value`` as a finite Decimal whose exponent is at most MAX_EXPONENT in
    magnitude, so Fraction(value) never builds a huge power of ten.  A float,
    anything Decimal() cannot parse and a non-finite value are refused."""
    return _finite_decimal(value, what, "decimal string")


def parse_rational(value, what: str) -> Fraction:
    """``value`` as a Fraction: an int or Fraction as it is, a "p/q" string by
    Fraction's grammar (which allows no exponent after the "/"), anything
    else by the rules of parse_decimal."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and "/" in value:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"{what}: not a valid rational: {value!r}") from None
    return Fraction(_finite_decimal(value, what, "rational"))


def parse_count(value, what: str, minimum: int = 1) -> int:
    """``value`` if it is an int (not a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{what} must be at least {minimum}, got {value}")
    return value


def round_to(value: Decimal, ctx: PrecisionContext) -> Decimal:
    """Round ``value`` to the context's number of significant digits."""
    with localcontext(_context(ctx.digits)):
        return +value


# ---------------------------------------------------------------------------
# Tangent numbers

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


# ---------------------------------------------------------------------------
# Fixed-point series: integers scaled by 10**frac with proven error bounds

def _atan_inv_scaled(numerator: int, x: int) -> tuple[int, int]:
    """(s, k): s is within 2k + 2 of numerator*atan(1/x) for x >= 5, and k
    is the index of the last (zero) power summed."""
    power = total = numerator // x
    x_sq = x * x
    k = 0
    while power:
        k += 1
        power //= x_sq
        term = power // (2 * k + 1)
        total = total + term if k % 2 == 0 else total - term
    return total, k


def _pi_scaled(frac: int) -> tuple[int, int]:
    """(p, err) with |pi*10**frac - p| < err: 16*atan(1/5) - 4*atan(1/239)."""
    scale = 10**frac
    big, k_big = _atan_inv_scaled(16 * scale, 5)
    small, k_small = _atan_inv_scaled(4 * scale, 239)
    return big - small, 2 * (k_big + k_small) + 4


@lru_cache(maxsize=None)
def _enclosures(frac: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """((lo, hi), (lo, hi)) enclosing v_oct*10**frac and v_tet*10**frac."""
    scale = 10**frac
    # 16*v_oct: summands P_n = h_n*c_n/d_n from P_1 = 608/9
    term = total = 608 * scale // 9
    c_prev = 19
    n = 1
    while term:
        n += 1
        c = 40 * n * n - 24 * n + 3
        term = term * (32 * c * (n - 1) ** 3 * (2 * n - 3)) // (((4 * n - 1) * (4 * n - 3)) ** 2 * c_prev)
        c_prev = c
        total = total - term if n % 2 == 0 else total + term
    err = 2 * n
    voct = ((total - err) // 16, -(-(total + err) // 16))

    # 3*sigma: summands Q_n = 1/(n^3 C(2n,n)) from Q_1 = 1/2, weighted 13 (odd n) and -7 (even n)
    term = odd = scale // 2
    even = 0
    n = 1
    while term:
        n += 1
        term = term * (n - 1) ** 3 // (2 * n * n * (2 * n - 1))
        if n % 2:
            odd += term
        else:
            even += term
    sigma3, err = 13 * odd - 7 * even, 18 * n + 6
    pi_value, pi_err = _pi_scaled(frac)
    vtet = (
        (sigma3 - err) * scale // (2 * (pi_value + pi_err)),
        -(-(sigma3 + err) * scale // (2 * (pi_value - pi_err))),
    )
    return voct, vtet


def _settle(lo: int, hi: int, frac: int, context: Context) -> Decimal | None:
    """What every number in [lo, hi]*10**-frac rounds to under ``context``,
    or None when the interval straddles a rounding boundary."""
    value = context.plus(_EXACT.scaleb(lo, -frac))
    return value if context.plus(_EXACT.scaleb(hi, -frac)) == value else None


# ---------------------------------------------------------------------------
# pi

def _pi_at(prec: int) -> Decimal:
    """pi correctly rounded to ``prec`` digits (Ziv's loop on _pi_scaled)."""
    guard = _GUARD
    while True:
        frac = prec + guard
        p, err = _pi_scaled(frac)
        value = _settle(p - err, p + err, frac, _context(prec))
        if value is not None:
            return value
        guard *= 2


def pi(ctx: PrecisionContext) -> Decimal:
    """pi correctly rounded to ``ctx.digits``."""
    return _pi_at(ctx.digits)


# ---------------------------------------------------------------------------
# Lobachevsky function: the constants do not use it, so it checks them

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
        for n, t in enumerate(_tangent_numbers(terms), 1):
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
    return round_to(_lobachevsky_raw(parse_decimal(theta, "theta"), ctx), ctx)


# ---------------------------------------------------------------------------
# The two volume constants

def _integers(c_oct, c_tet, remainder) -> tuple[int, int, int, int]:
    """(a, b, r, common): the components as ints over their least common denominator."""
    common = math.lcm(c_oct.denominator, c_tet.denominator, remainder.denominator)
    a, b, r = [x.numerator * (common // x.denominator) for x in (c_oct, c_tet, remainder)]
    return a, b, r, common


def _enclose(a: int, b: int, r: int, frac: int) -> tuple[int, int]:
    """(low, high) enclosing (a*v_oct + b*v_tet + r)*10**frac for ints a, b, r."""
    low = high = r * 10**frac
    if a or b:  # each constant's end picked by its coefficient's sign
        (o_lo, o_hi), (t_lo, t_hi) = _enclosures(frac)
        low += a * (o_lo if a > 0 else o_hi) + b * (t_lo if b > 0 else t_hi)
        high += a * (o_hi if a > 0 else o_lo) + b * (t_hi if b > 0 else t_lo)
    return low, high


def correctly_rounded(c_oct, c_tet, remainder, den: int, ctx: PrecisionContext) -> Decimal:
    """(c_oct*v_oct + c_tet*v_tet + remainder)/den correctly rounded to
    ``ctx.digits`` significant digits, all of them kept; the components are
    signed ints or Fractions, ``den`` a positive int.  An exact zero (every
    component 0) has no significant digits and is Decimal(0), printed "0",
    at every precision."""
    a, b, r, common = _integers(c_oct, c_tet, remainder)
    if not (a or b or r):
        return Decimal(0)
    den *= common
    # v_oct < 4 and v_tet < 2 put the value near 10**shift (log10(2) = 0.30103),
    # so the sum at scale frac over 10**shift keeps about working_prec + guard digits
    shift = ((4 * abs(a) + abs(b) + abs(r)).bit_length() - den.bit_length()) * 30103 // 100000
    up, down = (1, den * 10**shift) if shift > 0 else (10**-shift, den)
    final = _context(ctx.digits)
    guard = _GUARD
    while True:
        frac = ctx.working_prec + guard
        low, high = _enclose(a, b, r, frac)
        value = _settle(low * up // down, -(-high * up // down), frac - shift, final)
        if value is not None:
            return value
        guard *= 2


def sign(c_oct, c_tet, remainder, ctx: PrecisionContext) -> int:
    """The sign, -1, 0 or 1, of c_oct*v_oct + c_tet*v_tet + remainder (signed
    ints or Fractions), proven: the guard digits double until the enclosure
    excludes 0, and with c_oct = c_tet = 0 it is exact at once.  A true zero
    with a constant in it cannot be ruled out (whether 1, G and Cl_2(pi/3) are
    independent over Q is open), so a value not separated from 0 at the scale
    2*MAX_DIGITS, which is the same at every precision, counts as 0."""
    a, b, r, _ = _integers(c_oct, c_tet, remainder)
    guard = _GUARD
    while True:
        frac = min(ctx.working_prec + guard, 2 * MAX_DIGITS)
        low, high = _enclose(a, b, r, frac)
        if low > 0 or high < 0 or not (a or b) or frac == 2 * MAX_DIGITS:
            return (low > 0) - (high < 0)
        guard *= 2


def floor_quotient(num, den, ctx: PrecisionContext) -> int:
    """floor(x/y) for positive x and y, each a (c_oct, c_tet, remainder) triple
    as ``sign`` takes it.  The quotient is enclosed until its floor is k or
    k + 1, and the sign of x - (k+1)*y picks one (a 0 under ``sign``'s cap
    picks k + 1)."""
    a, b, r, p = _integers(*num)
    c, d, s, q = _integers(*den)  # x/y = X*q / (Y*p) for X, Y the integer combinations
    guard = _GUARD
    while True:
        frac = ctx.working_prec + guard
        (x_lo, x_hi), (y_lo, y_hi) = _enclose(a, b, r, frac), _enclose(c, d, s, frac)
        if y_lo > 0:
            k, k_hi = x_lo * q // (y_hi * p), x_hi * q // (y_lo * p)
            if k_hi <= k + 1:
                return k if k_hi == k else k + (sign(*(u - k_hi * v for u, v in zip(num, den)), ctx) >= 0)
        guard *= 2


def v_oct(ctx: PrecisionContext) -> Decimal:
    """Volume of the regular ideal octahedron, 4*Catalan = 8*Lambda(pi/4)."""
    return correctly_rounded(1, 0, 0, 1, ctx)


def v_tet(ctx: PrecisionContext) -> Decimal:
    """Volume of the regular ideal tetrahedron, Cl_2(pi/3) = 2*Lambda(pi/6)."""
    return correctly_rounded(0, 1, 0, 1, ctx)


def two_v_oct(ctx: PrecisionContext) -> Decimal:
    """Lower edge of the dense density window."""
    return correctly_rounded(2, 0, 0, 1, ctx)


def ten_v_tet(ctx: PrecisionContext) -> Decimal:
    """Unattainable upper edge of the density spectrum."""
    return correctly_rounded(0, 10, 0, 1, ctx)


def clear_caches() -> None:
    """Drop the memoized enclosures, so the next evaluation is cold."""
    _enclosures.cache_clear()


# ---------------------------------------------------------------------------
# Helpers shared by the exact-volume layer

def fraction_to_decimal(value: Fraction, ctx: PrecisionContext) -> Decimal:
    """``value`` at working precision, unrounded."""
    with ctx.working():
        return Decimal(value.numerator) / Decimal(value.denominator)


def combination(c_oct: Fraction, c_tet: Fraction, remainder: Fraction, ctx: PrecisionContext) -> Decimal:
    """c_oct*v_oct + c_tet*v_tet + remainder (coefficients may be signed)
    correctly rounded to ``ctx.digits``."""
    return correctly_rounded(c_oct, c_tet, remainder, 1, ctx)


def exact_decimal_string(value: Fraction) -> str | None:
    """Render a rational as its exact finite decimal, or None if it has none."""
    # a denominator 2**i * 5**j divides 10**shift, as its bit length is at least max(i, j)
    shift = value.denominator.bit_length()
    scaled, rest = divmod(abs(value.numerator) * 10**shift, value.denominator)
    if rest:
        return None
    digits = rational_string(scaled).rjust(shift + 1, "0")
    whole, fraction = digits[:-shift], digits[-shift:].rstrip("0")
    return ("-" if value.numerator < 0 else "") + (f"{whole}.{fraction}" if fraction else whole)


def rational_string(value) -> str:
    """str(value) of an int or Fraction, also past the 4300 digits that str()
    of an int allows: Decimal(n) is exact and str() of a Decimal has no limit."""
    try:
        return str(value)
    except ValueError:  # an int with more digits than str() converts
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"
