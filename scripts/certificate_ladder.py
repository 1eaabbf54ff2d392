#!/usr/bin/env python3
"""Walk the discrete window and print the finiteness certificate at each rung.

For thresholds v_oct * (1 + i/steps) climbing toward 2*v_oct, the maximal
augmentation count explodes as the threshold approaches the dense window;
the table shows the cap together with the bound values bracketing it.

    python scripts/certificate_ladder.py --steps 12
"""

import argparse
from decimal import Decimal

from fal_spectrum import max_augmentations_below, vd_lower_bound
from fal_spectrum.numerics import PrecisionContext, v_oct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=12, help="rungs between v_oct and 2*v_oct")
    parser.add_argument("--digits", type=int, default=30)
    args = parser.parse_args(argv)

    ctx = PrecisionContext(args.digits)
    print(f"{'threshold':>12}  {'max a':>8}  {'bound(a)':>12}  {'bound(a+1)':>12}")
    with ctx.working():
        voct = v_oct(ctx)
        for i in range(args.steps):
            threshold = voct * (1 + Decimal(i) / args.steps)
            cert = max_augmentations_below(threshold, ctx)
            n = cert.max_augmentations
            print(
                f"{str(threshold)[:12]:>12}  {n:>8}  "
                f"{str(vd_lower_bound(n, ctx))[:12]:>12}  {str(vd_lower_bound(n + 1, ctx))[:12]:>12}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
