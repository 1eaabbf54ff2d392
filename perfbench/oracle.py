"""Independent checks of fal-spectrum outputs.

Nothing here imports fal_spectrum.  The constants come from mpmath's closed
forms, v_oct = 4*Catalan and v_tet = Cl2(pi/3); exact columns are recomputed
with Fraction; scan row counts come from a knapsack count of the multisets.
Every check returns None when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import mpmath

from gen import V_OCT_TEXT, V_TET_TEXT, Link, count_multisets

_CANONICAL_DECIMAL = re.compile(r"^-?\d+(\.\d*[1-9])?$")
_FIELDS = ("c_oct", "c_tet", "remainder")

WINDOWS = ("BelowSpectrum", "DiscreteWindow", "DenseWindow", "AtOrAboveUpperBound")


class Reference:
    """mpmath values at ``max_digits + 10`` digits, shared by all checks."""

    def __init__(self, max_digits: int) -> None:
        mpmath.mp.dps = max_digits + 10
        self.voct = 4 * mpmath.catalan
        self.vtet = mpmath.clsin(2, mpmath.pi / 3)
        # The generator works from 50-digit literals; they must match the oracle.
        for text, exact in ((V_OCT_TEXT, self.voct), (V_TET_TEXT, self.vtet)):
            if abs(mpmath.mpf(text) - exact) > mpmath.mpf(10) ** -45:
                raise ValueError(f"generator constant {text} disagrees with mpmath")
        self._tol: dict[int, mpmath.mpf] = {}
        self._tables: dict[int, LinkTable] = {}

    def tol(self, digits: int):
        """The package's comparison_tolerance, 10**(5 - digits)."""
        if digits not in self._tol:
            self._tol[digits] = mpmath.mpf(10) ** (5 - digits)
        return self._tol[digits]

    def value(self, c_oct: Fraction, c_tet: Fraction, remainder: Fraction):
        return _mpf(c_oct) * self.voct + _mpf(c_tet) * self.vtet + _mpf(remainder)

    def table(self, links: dict[str, Link]) -> LinkTable:
        """The (cached) link table of a catalog that lives for the whole run."""
        if id(links) not in self._tables:
            self._tables[id(links)] = LinkTable(links, self)
        return self._tables[id(links)]

    def close(self, text: str, expected, digits: int) -> str | None:
        """``text`` is a decimal within tolerance of ``expected``, with at most
        ``digits`` significant digits."""
        try:
            value = mpmath.mpf(text)
        except ValueError:
            return f"not a decimal: {text!r}"
        if len(text.upper().split("E")[0].lstrip("-").replace(".", "").lstrip("0")) > digits:
            return f"{text} has more than {digits} significant digits"
        if abs(value - expected) > self.tol(digits):
            return f"{text} differs from {mpmath.nstr(expected, digits + 3)}"
        return None

    def constants(self):
        return (self.voct, self.vtet, 2 * self.voct, 10 * self.vtet)


def _mpf(value: Fraction):
    return mpmath.mpf(value.numerator) / value.denominator


class LinkTable:
    """A catalog's links over common denominators, so that a composition
    costs integer sums and one Fraction per component."""

    def __init__(self, links: dict[str, Link], ref: Reference) -> None:
        self.den = tuple(math.lcm(*(getattr(link, f).denominator for link in links.values())) for f in _FIELDS)
        self.entries = {
            name: (
                link.a - 1,
                tuple(int(getattr(link, f) * d) for f, d in zip(_FIELDS, self.den)),
                ref.value(link.c_oct, link.c_tet, link.remainder),
            )
            for name, link in links.items()
        }

    def composition(self, counts: dict[str, int]) -> Composition:
        return Composition(self, counts)


class Composition:
    """A multiset of links with its exact volume and its mpmath volume."""

    def __init__(self, table: LinkTable, counts: dict[str, int]) -> None:
        self.counts = counts
        self.den = table.den
        atilde, numerators, value = 0, [0, 0, 0], 0
        for name, k in counts.items():
            step, parts, volume = table.entries[name]
            atilde += k * step
            for i in range(3):
                numerators[i] += k * parts[i]
            value += k * volume
        self.atilde = atilde
        self.numerators = numerators
        self.value = value

    @property
    def volume(self) -> tuple[Fraction, Fraction, Fraction]:
        return self.density(1)

    def density(self, denominator: int) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(n, d * denominator) for n, d in zip(self.numerators, self.den))


def parse_recipe(text: str, table: LinkTable) -> Composition | str:
    """A recipe string in canonical form ("A*2,B", catalog order), recomputed."""
    counts: dict[str, int] = {}
    last = ""
    for token in text.split(","):
        name, star, mult = token.partition("*")
        if name not in table.entries or name <= last:
            return f"recipe {text!r} is not canonical at {name!r}"
        if star and not (mult.isdigit() and int(mult) > 1):
            return f"recipe {text!r} has a non-canonical multiplicity"
        counts[name] = int(mult) if star else 1
        last = name
    return table.composition(counts)


# ---------------------------------------------------------------------------
# output parsers


def parse_rows(text: str, fmt: str) -> list[dict[str, str]]:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()
    header = lines[0]
    names, starts, pos = header.split(), [], 0
    for name in names:
        pos = header.index(name, pos)
        starts.append(pos)
        pos += len(name)
    ends = starts[1:] + [None]
    return [{name: line[s:e].strip() for name, s, e in zip(names, starts, ends)} for line in lines[1:]]


def parse_kv(text: str, fmt: str) -> dict[str, str]:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return dict(list(csv.reader(io.StringIO(text)))[1:])
    lines = text.splitlines()
    width = max(len(line.split(" ", 1)[0]) for line in lines)
    return {line[:width].rstrip(): line[width + 2 :] for line in lines}


# ---------------------------------------------------------------------------
# exact columns


def _finite_decimal(value: Fraction) -> bool:
    den = value.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    return den == 1


def check_combo(text: str, parts: tuple[Fraction, Fraction, Fraction], digits: int, ref: Reference) -> str | None:
    """``text`` renders c_oct*voct+c_tet*vtet+remainder: rationals exact, the
    remainder exact when it has a finite decimal form and rounded otherwise."""
    oct_text, sep1, rest = text.partition("*voct+")
    tet_text, sep2, rem_text = rest.partition("*vtet+")
    if not (sep1 and sep2) or oct_text != str(parts[0]) or tet_text != str(parts[1]):
        return f"exact form {text!r} should start {parts[0]}*voct+{parts[1]}*vtet+"
    if not _finite_decimal(parts[2]):
        return ref.close(rem_text, _mpf(parts[2]), digits)
    try:
        exact = _CANONICAL_DECIMAL.match(rem_text) and Fraction(Decimal(rem_text)) == parts[2]
    except InvalidOperation:
        exact = False
    return None if exact else f"remainder {rem_text} is not the exact decimal of {parts[2]}"


def check_density_columns(row: dict, comp: Composition, digits: int, ref: Reference, prefix: str = "") -> str | None:
    for name, denominator in (("vd", comp.atilde + 1), ("vdmod", comp.atilde)):
        why = check_combo(row[f"{prefix}{name}_exact"], comp.density(denominator), digits, ref)
        why = why or ref.close(row[f"{prefix}{name}_decimal"], comp.value / denominator, digits)
        if why:
            return f"{name}: {why}"
    return None


# ---------------------------------------------------------------------------
# workload checks


def check_constants(values, digits: int, ref: Reference) -> str | None:
    for label, text, expected in zip(("v_oct", "v_tet", "2*v_oct", "10*v_tet"), values, ref.constants()):
        why = ref.close(text, expected, digits)
        if why:
            return f"{label} at {digits} digits: {why}"
    return None


def check_scan(text: str, fmt: str, links: dict[str, Link], budget: int, digits: int, ref: Reference) -> tuple[int, str | None]:
    """Every composition with atilde <= budget, once, sorted by (vd, recipe),
    with right columns.  Returns (rows in the output, reason)."""
    rows = parse_rows(text, fmt)
    expected = count_multisets([link.a - 1 for link in links.values()], budget)
    if len(rows) != expected:
        return len(rows), f"scan emitted {len(rows)} rows, expected {expected}"
    table = ref.table(links)
    seen = set()
    previous = None
    for row in rows:
        recipe = row["recipe"]
        comp = parse_recipe(recipe, table)
        if isinstance(comp, str):
            return len(rows), comp
        if recipe in seen:
            return len(rows), f"recipe {recipe} emitted twice"
        seen.add(recipe)
        if comp.atilde > budget or row["atilde"] != str(comp.atilde) or row["a"] != str(comp.atilde + 1):
            return len(rows), f"row {recipe}: wrong a/atilde"
        why = check_density_columns(row, comp, digits, ref)
        if why:
            return len(rows), f"row {recipe}: {why}"
        key = (Decimal(row["vd_decimal"]), recipe)
        if previous is not None and key < previous:
            return len(rows), f"rows not sorted at {recipe}"
        previous = key
    return len(rows), None


def check_recipe(comp: Composition, mode: str, target: str, eps: str, achieved_vd: str, achieved_vdmod: str,
                 digits: int, ref: Reference) -> str | None:
    """Re-derive |density - target| < eps from the multiset alone."""
    vd = comp.value / (comp.atilde + 1)
    vdmod = comp.value / comp.atilde
    error = abs((vd if mode == "vd" else vdmod) - mpmath.mpf(target))
    if error >= mpmath.mpf(eps) + ref.tol(digits):
        return f"{mode} misses target {target} by {mpmath.nstr(error, 5)} >= eps {eps}"
    return ref.close(achieved_vd, vd, digits) or ref.close(achieved_vdmod, vdmod, digits)


def expected_warnings(links: dict[str, Link], digits: int, ref: Reference) -> list[tuple[str, str]]:
    tol = ref.tol(digits)
    out = []
    for name, (atilde, _, vol) in ref.table(links).entries.items():
        density = vol / (atilde + 1)
        if density < ref.voct - tol:
            out.append((name, "spectrum floor"))
        if density >= 10 * ref.vtet - tol:
            out.append((name, "10*v_tet"))
        if vol < 2 * atilde * ref.voct - tol:
            out.append((name, "Miyamoto bound"))
    return sorted(out)


def certify_answer(threshold: str, ref: Reference) -> int:
    """Largest a with 2*v_oct*(a-1)/a <= threshold."""
    two_voct = 2 * ref.voct
    t = mpmath.mpf(threshold)
    n = max(2, int(mpmath.floor(two_voct / (two_voct - t))))
    while two_voct * n / (n + 1) <= t:
        n += 1
    while n > 2 and two_voct * (n - 1) / n > t:
        n -= 1
    return n


def classify_answer(density: str, ref: Reference) -> str:
    d = mpmath.mpf(density)
    for window, edge in zip(WINDOWS, (ref.voct, 2 * ref.voct, 10 * ref.vtet)):
        if d < edge:
            return window
    return WINDOWS[-1]
