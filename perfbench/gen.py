"""Seeded input generation shared by the workloads and the oracle.

The generator is independent of fal_spectrum: the package only ever sees
the catalog JSON files, argv lists and target strings made here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

# 4*Catalan and Cl2(pi/3) to 50 digits; the oracle checks them against mpmath.
V_OCT_TEXT = "3.6638623767088760602184140597295364430965974971267"
V_TET_TEXT = "1.0149416064096536250212025542745202859416893075303"

_REMAINDERS = ("0", "0", "0", "0.5", "0.25", "1.125", "0.03", "2.75", "0.0625")


def rng_for(*parts) -> random.Random:
    """A generator that depends only on its labels (workload, seed, purpose)."""
    return random.Random("/".join(str(part) for part in parts))


@dataclass(frozen=True)
class Link:
    name: str
    c_oct: Fraction
    c_tet: Fraction
    remainder: Fraction
    a: int
    remainder_text: str = "0"
    note: str = ""

    def entry(self) -> dict:
        return {
            "name": self.name,
            "c_oct": str(self.c_oct),
            "c_tet": str(self.c_tet),
            "remainder": self.remainder_text,
            "a": self.a,
            "note": self.note,
        }

    def vd_mod(self) -> Decimal:
        with localcontext() as c:
            c.prec = 45
            vol = (
                Decimal(self.c_oct.numerator) / self.c_oct.denominator * Decimal(V_OCT_TEXT)
                + Decimal(self.c_tet.numerator) / self.c_tet.denominator * Decimal(V_TET_TEXT)
                + Decimal(self.remainder_text)
            )
            return vol / (self.a - 1)


# The builtin link every catalog carries.
L41 = Link("L41", Fraction(2), Fraction(0), Fraction(0), 2)


def make_link(name: str, c_oct: Fraction, c_tet: Fraction, remainder: str, a: int, note: str) -> Link:
    return Link(name, c_oct, c_tet, Fraction(Decimal(remainder)), a, remainder, note)


def synthetic_link(rng: random.Random, name: str, a: int) -> Link:
    """Seeded rational c_oct/c_tet and a zero or short-decimal remainder."""
    q_oct, q_tet = rng.choice((1, 2, 3, 4)), rng.choice((1, 2, 3, 5))
    c_oct = Fraction(rng.randint(0, 2 * a * q_oct), q_oct)
    c_tet = Fraction(rng.randint(0, 8 * a * q_tet), q_tet)
    remainder = rng.choice(_REMAINDERS)
    if not c_oct and not c_tet and remainder == "0":
        c_oct = Fraction(1)
    return make_link(name, c_oct, c_tet, remainder, a, f"synthetic link {name}")


def near_ceiling_link() -> Link:
    """vd_mod = (49*v_tet + (v_tet - 5e-6)) / 5 = 10*v_tet - 1e-6, just below the ceiling."""
    with localcontext() as c:
        c.prec = 40
        remainder = str(+(Decimal(V_TET_TEXT) - Decimal("0.000005")))
    return make_link("Ceil", Fraction(0), Fraction(49), remainder, 6, "synthetic link just below the ceiling")


def synthetic_catalog(rng: random.Random, n: int) -> dict[str, Link]:
    """n synthetic links plus the builtin L41, keyed by name.

    The augmentation counts (2..7) follow a fixed pattern, so every seed
    enumerates the same multisets at a given budget; the seed draws the volumes.
    """
    links = {"L41": L41}
    for i in range(1, n + 1):
        links[f"S{i}"] = synthetic_link(rng, f"S{i}", 2 + (5 * i + n) % 6)
    return dict(sorted(links.items()))


def write_catalog(path: str, links: dict[str, Link]) -> None:
    doc = {"links": [link.entry() for name, link in links.items() if name != "L41"]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)


def count_multisets(atildes, budget: int) -> int:
    """Nonempty multisets with sum k_i*atilde_i <= budget (a knapsack count)."""
    ways = [1] + [0] * budget
    for step in atildes:
        for s in range(step, budget + 1):
            ways[s] += ways[s - step]
    return sum(ways) - 1


def budget_for_rows(links: dict[str, Link], rows: float) -> int:
    """The budget whose row count is nearest ``rows`` on a log scale."""
    atildes = [link.a - 1 for link in links.values()]
    best, best_gap, budget = 1, None, 1
    while True:
        count = count_multisets(atildes, budget)
        gap = abs(math.log(count / rows))
        if best_gap is None or gap < best_gap:
            best, best_gap = budget, gap
        if count >= rows:
            return best
        budget += 1


_GOLDEN = (5**0.5 - 1) / 2


class Strata:
    """n log-uniform draws per block, one from each equal-probability stratum.

    Stratum i of block b sits at offset (phase_i + b * golden) mod 1 within
    the stratum: the seed draws the phases, and successive blocks fill each
    stratum evenly, so a run of a few blocks sees nearly the same mix on
    every seed while the values themselves differ.
    """

    def __init__(self, rng: random.Random, n: int, low: float, high: float) -> None:
        self.low, self.ratio = low, high / low
        self.phases = [rng.random() for _ in range(n)]

    def values(self, block: int) -> list[float]:
        n = len(self.phases)
        return [self.low * self.ratio ** ((i + (p + block * _GOLDEN) % 1) / n) for i, p in enumerate(self.phases)]


def log_uniform(rng: random.Random, low: float, high: float) -> float:
    return low * (high / low) ** rng.random()


def balanced(rng: random.Random, choices, n: int) -> list:
    """n values cycling through ``choices`` in a shuffled order."""
    values = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(values)
    return values


def decimal_between(rng: random.Random, low: Decimal, high: Decimal, digits: int) -> str:
    """A decimal string drawn uniformly strictly inside (low, high)."""
    with localcontext() as c:
        c.prec = digits
        u = Decimal(rng.randrange(1, 10**6)) / Decimal(10**6)
        return str(+(low + (high - low) * u))
