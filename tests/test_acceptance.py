"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.  Everything here is deterministic: random draws come
from fixed seeds and all arithmetic is decimal or rational.
"""

import io
import random
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from fal_spectrum import (
    Catalog,
    ExactVolume,
    WindowClass,
    best_rational_approximations,
    classify,
    composition,
    max_augmentations_below,
    replicate,
    spectrum_scan,
    vd,
    vd_lower_bound,
    vd_mod,
    self_sum,
)
from fal_spectrum import numerics
from fal_spectrum.cli import main
from fal_spectrum.numerics import PrecisionContext, ten_v_tet, two_v_oct, v_oct, v_tet
from helpers import make_link
from oracles import best_error_upto, quadrature_v_oct, quadrature_v_tet, weighted_average_vd_mod

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import density_sweep  # noqa: E402

CTX = PrecisionContext(30)
TOL = Decimal("1e-25")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


# ---------------------------------------------------------------------------
# shared synthetic material

def _mixed_pool():
    l41 = Catalog()["L41"]
    return [
        l41,
        make_link("S10", remainder="50", a=6),
        make_link("T", c_oct="7/3", c_tet="1/2", a=4),
        make_link("U", c_oct=5, remainder="0.125", a=3),
        make_link("W", c_tet="9/7", a=2),
        make_link("X", c_oct="1/6", c_tet=2, remainder="2.5", a=7),
        make_link("Y", c_oct="11/4", a=5),
    ]


def _random_composition(rng, pool):
    chosen = rng.sample(pool, rng.randint(1, 6))
    return composition({link: rng.randint(1, 20) for link in chosen})


def _run_density_sweep():
    """The full criterion-6 sweep, as ``scripts/density_sweep.py`` runs it
    with its defaults; returns (csv_report, recipes)."""
    recipes = density_sweep.sweep(CTX, 100, Decimal("1e-6"), Decimal("0.01"))
    report = io.StringIO()
    density_sweep.write_csv(recipes, report)
    return report.getvalue(), recipes


# ---------------------------------------------------------------------------

def test_criterion_01_constants_against_quadrature_oracle():
    with criterion(1, "constants match the quadrature oracle at 30 digits in under 1s"):
        oracle_oct = quadrature_v_oct(40)
        oracle_tet = quadrature_v_tet(40)
        numerics.clear_caches()
        started = time.perf_counter()
        voct = v_oct(CTX)
        vtet = v_tet(CTX)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"constants took {elapsed:.3f}s"
        assert abs(voct - oracle_oct) < TOL
        assert abs(vtet - oracle_tet) < TOL
        assert str(voct).startswith("3.6638623767")
        assert str(vtet).startswith("1.0149416064")


def test_criterion_02_exact_link_identities():
    with criterion(2, "figure-eight identities hold with zero tolerance"):
        l41 = Catalog()["L41"]
        one = self_sum(l41, 1)
        assert vd(one, CTX).exact_parts() == (Fraction(1), Fraction(0), Fraction(0))
        assert vd(one, CTX).evaluated == v_oct(CTX)
        assert vd_mod(one, CTX).exact_parts() == (Fraction(2), Fraction(0), Fraction(0))
        base = vd_mod(one, CTX)
        for k in (1, 10, 1000):
            repeated = self_sum(l41, k)
            assert vd_mod(repeated, CTX).exact_parts() == base.exact_parts()
            assert repeated.atilde + 1 == k * l41.atilde + 1


def test_criterion_03_weighted_average_identity():
    with criterion(3, "vol/atilde equals the weighted average on 500 random compositions"):
        rng = random.Random(3)
        pool = _mixed_pool()
        exact_mode = decimal_mode = 0
        for _ in range(500):
            comp = _random_composition(rng, pool)
            direct = vd_mod(comp, CTX)
            averaged = weighted_average_vd_mod(comp, CTX)
            if all(link.volume.remainder == 0 for link, _ in comp.parts):
                exact_mode += 1
                assert direct.exact_parts() == averaged.exact_parts()
            else:
                decimal_mode += 1
            assert abs(direct.evaluated - averaged.evaluated) <= TOL
        assert exact_mode and decimal_mode  # both modes genuinely exercised


def test_criterion_04_replication_gap_closed_form():
    with criterion(4, "vd_mod - vd gap matches its closed form exactly for 100 random cases"):
        rng = random.Random(4)
        pool = _mixed_pool()
        for _ in range(100):
            comp = _random_composition(rng, pool)
            m = rng.randint(1, 10**6)
            atilde = comp.atilde
            expanded = replicate(comp, m)
            gap = tuple(
                a - b
                for a, b in zip(
                    vd_mod(expanded, CTX).exact_parts(), vd(expanded, CTX).exact_parts()
                )
            )
            expected = tuple(p / (m * atilde + 1) for p in vd_mod(comp, CTX).exact_parts())
            assert gap == expected


def test_criterion_05_convergents_against_brute_force():
    with criterion(5, "every convergent with q <= 50 is a brute-force best approximation"):
        rng = random.Random(5)
        checked = 0
        for _ in range(50):
            r = Fraction(rng.randrange(1, 100 * 10**6), 10**6)
            for conv in best_rational_approximations(r, 50):
                q = conv.denominator
                err = abs(r - conv)
                assert err < Fraction(1, q * q)
                assert err == best_error_upto(r, q)
                checked += 1
        assert checked >= 50


_first_sweep_report = None


def test_criterion_06_density_sweep():
    global _first_sweep_report
    with criterion(6, "100 dense-window targets hit to 1e-6 and re-verify, under 10s"):
        started = time.perf_counter()
        report, recipes = _run_density_sweep()
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"sweep took {elapsed:.3f}s"
        l41 = Catalog()["L41"]
        ceiling = density_sweep.near_ceiling_link(CTX)
        for target, recipe in recipes:
            assert recipe.error < Decimal("1e-6")
            assert abs(recipe.achieved_vd.evaluated - target) < Decimal("1e-6")
            core = {l41: recipe.k} if recipe.l == 0 else {l41: recipe.k, ceiling: recipe.l}
            rebuilt = replicate(composition(core), recipe.m)
            assert rebuilt == recipe.composition
            assert vd(rebuilt, CTX).exact_parts() == recipe.achieved_vd.exact_parts()
            assert vd_mod(rebuilt, CTX).exact_parts() == recipe.achieved_vd_mod.exact_parts()
        _first_sweep_report = report


def test_criterion_07_discreteness_certificates():
    with criterion(7, "certificates at named thresholds plus 1000 sampled soundness checks"):
        with CTX.working():
            voct = v_oct(CTX)
            named = [
                (voct, 2),
                (Decimal("1.5") * voct, 4),
                (Decimal("1.9") * voct, 20),
            ]
            for threshold, expected in named:
                assert max_augmentations_below(threshold, CTX).max_augmentations == expected
            rng = random.Random(7)
            for _ in range(1000):
                d = voct * (1 + Decimal(rng.randrange(0, 10**9)) / Decimal(10**9))
                n = max_augmentations_below(d, CTX).max_augmentations
                assert vd_lower_bound(n, CTX) <= d  # tightness
                assert vd_lower_bound(n + 1, CTX) > d  # soundness


def test_criterion_08_window_classification(capsys):
    with criterion(8, "boundary densities classify per the half-open windows"):
        assert classify(ExactVolume(c_oct=1), CTX) is WindowClass.DISCRETE_WINDOW
        assert classify(ExactVolume(c_oct=2), CTX) is WindowClass.DENSE_WINDOW
        assert classify(ExactVolume(c_tet=10), CTX) is WindowClass.AT_OR_ABOVE_UPPER_BOUND
        # same boundaries as evaluated decimals through the CLI
        for value, expected in [
            (v_oct(CTX), "DiscreteWindow"),
            (two_v_oct(CTX), "DenseWindow"),
            (ten_v_tet(CTX), "AtOrAboveUpperBound"),
        ]:
            assert main(["classify", "--density", str(value)]) == 0
            out = capsys.readouterr().out
            assert expected in out


def test_criterion_09_scan_of_builtin_catalog():
    with criterion(9, "budget-50 scan yields the 50 self-sum rows with the exact gap law"):
        rows = spectrum_scan(Catalog(), 50, CTX)
        assert len(rows) == 50
        densities = [row.vd.evaluated for row in rows]
        assert all(a < b for a, b in zip(densities, densities[1:]))  # strictly increasing
        assert all(d < two_v_oct(CTX) for d in densities)
        for index, row in enumerate(rows):
            k = index + 1
            assert row.vd.exact_parts() == (Fraction(2 * k, k + 1), Fraction(0), Fraction(0))
        for index in range(len(rows) - 1):
            m = index + 2  # the later row has vd = 2*v_oct*m/(m+1)
            gap = rows[index + 1].vd.exact_parts()[0] - rows[index].vd.exact_parts()[0]
            assert gap == Fraction(2, m * (m + 1))


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "sweep and scan runs are byte-identical"):
        report_a = _first_sweep_report or _run_density_sweep()[0]
        report_b = _run_density_sweep()[0]
        assert report_a == report_b
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scan", "--budget", "50", "--out", str(first)]) == 0
        assert main(["scan", "--budget", "50", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_text(encoding="utf-8").splitlines()) == 51
