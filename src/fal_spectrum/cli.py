"""Command line front end.

Subcommands: constants, catalog list, validate, density, approximate,
bounds, certify, classify, scan.  Exit codes: 0 success, 1 domain errors
(bad catalog, a value out of range, a scan past its row cap, an output
file that cannot be written), 2 usage errors (bad syntax).  A domain error prints one
``error:`` line on stderr.  Data goes to the output stream, diagnostics
to stderr, and identical invocations produce byte-identical output.

A run imports only what its subcommand uses: each handler imports the
layers it calls (``constants`` needs ``numerics`` alone), ``json`` loads
for a catalog file or JSON output and ``csv`` for CSV output.  Handlers
read layer functions as module attributes at call time.
"""

from __future__ import annotations

import argparse
import io
import sys
from decimal import Decimal, InvalidOperation

from . import numerics
from .errors import FalSpectrumError
from .numerics import DEFAULT_DIGITS, PrecisionContext

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _decimal_arg(text: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}") from None
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite decimal: {text!r}")
    return value


def _int_arg(text: str) -> int:
    """An optional ``-`` and ASCII digits, like a recipe multiplicity; the library checks the range."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # past int()'s limit on digits
        raise argparse.ArgumentTypeError(f"too many digits: {len(digits)}") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--digits",
        type=_int_arg,
        default=DEFAULT_DIGITS,
        help=f"significant digits of working precision (default {DEFAULT_DIGITS})",
    )
    common.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default=None,
        help="output format (default table; scan defaults to csv)",
    )
    common.add_argument("--output", default=None, help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="fal-spectrum",
        description="Exact calculus and recipe search for volume densities of fully augmented links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", parents=[common], help="print v_oct, v_tet and the window bounds")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("catalog", help="catalog inspection")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)
    p_list = catalog_sub.add_parser("list", parents=[common], help="list catalog entries")
    p_list.add_argument("file", help="catalog JSON file")
    p_list.set_defaults(handler=_cmd_catalog_list)

    p = sub.add_parser("validate", parents=[common], help="check a catalog against the density window")
    p.add_argument("file", help="catalog JSON file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("density", parents=[common], help="evaluate the densities of a recipe")
    p.add_argument("file", nargs="?", default=None, help="catalog JSON file (builtin links if omitted)")
    p.add_argument("--recipe", required=True, help='recipe string, e.g. "L41*2,S"')
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("approximate", parents=[common], help="find a recipe hitting a target density")
    p.add_argument("file", nargs="?", default=None, help="catalog JSON file (builtin links if omitted)")
    p.add_argument("--l1", required=True, help="first anchor link name")
    p.add_argument("--l2", required=True, help="second anchor link name")
    p.add_argument("--target", required=True, type=_decimal_arg, help="target density")
    p.add_argument("--eps", required=True, type=_decimal_arg, help="tolerance")
    p.add_argument("--mode", choices=("vd", "vdmod"), default="vd", help="which density to match")
    p.add_argument(
        "--max-denominator",
        type=_int_arg,
        default=None,
        help="cap on convergent denominators",
    )
    p.set_defaults(handler=_cmd_approximate)

    p = sub.add_parser("bounds", parents=[common], help="Euler characteristic and volume bounds for a")
    p.add_argument("--a", required=True, type=_int_arg, help="augmentation count")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("certify", parents=[common], help="max augmentation count below a threshold")
    p.add_argument("--density", required=True, type=_decimal_arg, help="threshold density")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("classify", parents=[common], help="place a density in the spectrum windows")
    p.add_argument("--density", required=True, type=_decimal_arg, help="density to classify")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("scan", parents=[common], help="enumerate compositions up to an atilde budget")
    p.add_argument("file", nargs="?", default=None, help="catalog JSON file (builtin links if omitted)")
    p.add_argument("--budget", required=True, type=_int_arg, help="bound on total atilde")
    p.add_argument("--cap", type=_int_arg, default=None, help="row cap")
    p.set_defaults(handler=_cmd_scan, default_format="csv")

    return parser


# ---------------------------------------------------------------------------
# rendering

def _render_kv(pairs: list[tuple[str, str]], fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(dict(pairs), indent=2) + "\n"
    if fmt == "csv":
        return _render_rows(["key", "value"], pairs, fmt)
    width = max(len(key) for key, _ in pairs)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in pairs)


def _render_rows(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()
    widths = [len(name) for name in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(name.ljust(w) for name, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _load_catalog(path):
    from . import catalog

    return catalog.builtin_catalog() if path is None else catalog.load_catalog_file(path)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the full output text)

def _cmd_constants(args, ctx: PrecisionContext) -> str:
    pairs = [
        ("v_oct", str(numerics.v_oct(ctx))),
        ("v_tet", str(numerics.v_tet(ctx))),
        ("2*v_oct", str(numerics.two_v_oct(ctx))),
        ("10*v_tet", str(numerics.ten_v_tet(ctx))),
    ]
    return _render_kv(pairs, args.fmt)


def _cmd_catalog_list(args, ctx: PrecisionContext) -> str:
    from . import calculus

    cat = _load_catalog(args.file)
    header = ["name", "a", "volume_exact", "volume_decimal", "vd_decimal", "vdmod_decimal", "note"]
    rows = []
    for link in cat:
        density, density_mod = calculus.densities(calculus.self_sum(link, 1), ctx)
        rows.append(
            [
                link.name,
                str(link.augmentations),
                calculus.exact_combo_string(*link.volume.components(), ctx),
                str(link.volume.evaluate(ctx)),
                str(density.evaluated),
                str(density_mod.evaluated),
                link.note,
            ]
        )
    return _render_rows(header, rows, args.fmt)


def _cmd_validate(args, ctx: PrecisionContext) -> str:
    from . import catalog

    cat = _load_catalog(args.file)
    header = ["level", "link", "message"]
    rows = [
        [diag.level, diag.link, diag.message]
        for link in cat
        for diag in catalog.validate_entry(link, ctx)
    ]
    return _render_rows(header, rows, args.fmt)


def _cmd_density(args, ctx: PrecisionContext) -> str:
    from . import calculus

    cat = _load_catalog(args.file)
    comp = calculus.parse_recipe(args.recipe, cat)
    density, density_mod = calculus.densities(comp, ctx)
    pairs = [
        ("recipe", calculus.format_recipe(comp)),
        ("vol_exact", calculus.exact_combo_string(*comp.volume.components(), ctx)),
        ("vol_decimal", str(comp.volume.evaluate(ctx))),
        ("a", numerics.rational_string(comp.atilde + 1)),
        ("atilde", numerics.rational_string(comp.atilde)),
        ("vd_exact", density.exact_string(ctx)),
        ("vd_decimal", str(density.evaluated)),
        ("vdmod_exact", density_mod.exact_string(ctx)),
        ("vdmod_decimal", str(density_mod.evaluated)),
    ]
    return _render_kv(pairs, args.fmt)


def _cmd_approximate(args, ctx: PrecisionContext) -> str:
    from . import approx, calculus

    cat = _load_catalog(args.file)
    link1, link2 = cat[args.l1], cat[args.l2]
    search = approx.approximate_vd if args.mode == "vd" else approx.approximate_vd_mod
    cap = approx.DEFAULT_MAX_DENOMINATOR if args.max_denominator is None else args.max_denominator
    recipe = search(args.target, link1, link2, args.eps, ctx, cap)
    pairs = [
        ("mode", recipe.mode),
        ("target", str(args.target)),
        ("eps", str(args.eps)),
        ("k", str(recipe.k)),
        ("l", str(recipe.l)),
        ("m", str(recipe.m)),
        ("recipe", calculus.format_recipe(recipe.composition)),
        ("achieved_vd_exact", recipe.achieved_vd.exact_string(ctx)),
        ("achieved_vd_decimal", str(recipe.achieved_vd.evaluated)),
        ("achieved_vdmod_exact", recipe.achieved_vd_mod.exact_string(ctx)),
        ("achieved_vdmod_decimal", str(recipe.achieved_vd_mod.evaluated)),
        ("error", str(recipe.error)),
    ]
    return _render_kv(pairs, args.fmt)


def _cmd_bounds(args, ctx: PrecisionContext) -> str:
    from . import bounds

    pairs = [
        ("a", str(args.a)),
        ("euler_characteristic", str(bounds.euler_characteristic(args.a))),
        ("volume_lower_bound", str(bounds.miyamoto_volume_lower_bound(args.a, ctx))),
        ("vd_lower_bound", str(bounds.vd_lower_bound(args.a, ctx))),
    ]
    return _render_kv(pairs, args.fmt)


def _cmd_certify(args, ctx: PrecisionContext) -> str:
    from . import bounds

    certificate = bounds.max_augmentations_below(args.density, ctx)
    pairs = [
        ("threshold", str(certificate.threshold)),
        ("max_augmentations", str(certificate.max_augmentations)),
        ("statement", certificate.statement),
    ]
    return _render_kv(pairs, args.fmt)


def _cmd_classify(args, ctx: PrecisionContext) -> str:
    from . import bounds

    window = bounds.classify(args.density, ctx)
    pairs = [("density", str(args.density)), ("window", window.value)]
    return _render_kv(pairs, args.fmt)


def _cmd_scan(args, ctx: PrecisionContext) -> str:
    from . import bounds

    cat = _load_catalog(args.file)
    cap = bounds.DEFAULT_SCAN_CAP if args.cap is None else args.cap
    rows = bounds.spectrum_scan(cat, args.budget, ctx, cap)
    header = ["recipe", "a", "atilde", "vd_exact", "vd_decimal", "vdmod_exact", "vdmod_decimal"]
    body = [
        [
            row.recipe,
            str(row.a),
            str(row.atilde),
            row.vd.exact_string(ctx),
            str(row.vd.evaluated),
            row.vd_mod.exact_string(ctx),
            str(row.vd_mod.evaluated),
        ]
        for row in rows
    ]
    return _render_rows(header, body, args.fmt)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    args.fmt = args.format or getattr(args, "default_format", None) or "table"
    try:
        ctx = PrecisionContext(args.digits)
        text = args.handler(args, ctx)
    except FalSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write output {args.output!r}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_DOMAIN
    else:
        sys.stdout.write(text)
    return EXIT_OK
