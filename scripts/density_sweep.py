#!/usr/bin/env python3
"""Sweep the dense window with two-anchor recipes and report the errors.

Targets are spaced uniformly across [2*v_oct + margin, 10*v_tet - margin];
each is realized as m replications of (k copies of the figure-eight FAL +
l copies of a synthetic link sitting just below the ceiling), and the row
records how close the recipe's density lands.

    python scripts/density_sweep.py --targets 100 --eps 1e-6 --out sweep.csv
"""

import argparse
import csv
import sys
from decimal import Decimal

from fal_spectrum import BaseLink, Catalog, ExactVolume, Recipe, approximate_vd
from fal_spectrum.numerics import PrecisionContext, ten_v_tet, two_v_oct, v_tet


def near_ceiling_link(ctx: PrecisionContext) -> BaseLink:
    # vd_mod = (49*v_tet + (v_tet - 5e-6)) / 5 = 10*v_tet - 1e-6
    with ctx.working():
        rem = v_tet(ctx) - Decimal("0.000005")
    return BaseLink(
        name="Ceil",
        volume=ExactVolume.from_fields("0", "49", str(rem)),
        augmentations=6,
        note="synthetic link just below the unattainable ceiling",
    )


def sweep_targets(ctx: PrecisionContext, count: int, margin: Decimal) -> list[Decimal]:
    with ctx.working():
        lo = two_v_oct(ctx) + margin
        hi = ten_v_tet(ctx) - margin
        step = (hi - lo) / (count - 1)
        return [lo + i * step for i in range(count)]


def sweep(ctx: PrecisionContext, count: int, eps: Decimal, margin: Decimal) -> list[tuple[Decimal, Recipe]]:
    """(target, recipe) for each target, anchored on L41 and the ceiling link."""
    l41 = Catalog()["L41"]
    ceiling = near_ceiling_link(ctx)
    return [(t, approximate_vd(t, l41, ceiling, eps, ctx)) for t in sweep_targets(ctx, count, margin)]


def write_csv(results, handle) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["target", "k", "l", "m", "achieved_vd", "error"])
    for target, recipe in results:
        writer.writerow(
            [target, recipe.k, recipe.l, recipe.m, recipe.achieved_vd.evaluated, recipe.error]
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--targets", type=int, default=100, help="number of sweep targets")
    parser.add_argument("--eps", type=Decimal, default=Decimal("1e-6"), help="per-target tolerance")
    parser.add_argument("--margin", type=Decimal, default=Decimal("0.01"), help="gap kept to the window edges")
    parser.add_argument("--digits", type=int, default=30)
    parser.add_argument("--out", default=None, help="CSV path (stdout if omitted)")
    args = parser.parse_args(argv)

    results = sweep(PrecisionContext(args.digits), args.targets, args.eps, args.margin)
    if args.out is None:
        write_csv(results, sys.stdout)
        return 0
    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        write_csv(results, handle)
    worst = max((recipe.error for _, recipe in results), default=Decimal(0))
    print(f"{args.targets} targets swept, worst error {worst}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
