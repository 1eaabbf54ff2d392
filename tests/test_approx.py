"""Mixing-ratio algebra, convergents against the brute-force oracle, and
end-to-end recipe search."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fal_spectrum import (
    CapExceededError,
    DegeneratePairError,
    DomainError,
    TargetRangeError,
    alpha_for_target,
    approximate_vd,
    approximate_vd_mod,
    best_rational_approximations,
    composition,
    replicate,
    replication_error,
    target_ratio,
    vd,
    vd_mod,
    self_sum,
)
from fal_spectrum import approx, calculus, numerics
from fal_spectrum.numerics import PrecisionContext, two_v_oct
from helpers import make_link
from oracles import best_error_upto

# vd_mod(S10) = 50/5 = 10 exactly; the remainder route keeps it rational.
S10 = make_link("S10", remainder="50", a=6)


def test_alpha_endpoints(ctx):
    v1, v2 = Decimal("7.5"), Decimal("10")
    assert alpha_for_target(v1, v1, v2, ctx) == 1
    assert alpha_for_target(v2, v1, v2, ctx) == 0
    assert alpha_for_target(Decimal("8.75"), v1, v2, ctx) == Fraction(1, 2)


def test_alpha_for_interior_target(ctx):
    # alpha = (9 - 10)/(2*v_oct - 10); the quoted 0.374213 is its 6-digit form
    alpha = alpha_for_target(Decimal(9), two_v_oct(ctx), Decimal(10), ctx)
    assert 0 < alpha < 1
    approx_alpha = Decimal(alpha.numerator) / Decimal(alpha.denominator)
    assert abs(approx_alpha - Decimal("0.374213")) < Decimal("1e-6")


def test_alpha_errors(ctx):
    with pytest.raises(DegeneratePairError):
        alpha_for_target(Decimal(9), Decimal(10), Decimal(10), ctx)
    with pytest.raises(TargetRangeError):
        alpha_for_target(Decimal(11), Decimal("7.5"), Decimal(10), ctx)
    with pytest.raises(TargetRangeError):
        alpha_for_target(Decimal(7), Decimal("7.5"), Decimal(10), ctx)


def test_target_ratio_algebra(ctx):
    assert target_ratio(Fraction(1, 2), 3, 3) == 1
    assert target_ratio(Fraction(2, 3), 2, 2) == 2
    alpha = alpha_for_target(Decimal(9), two_v_oct(ctx), Decimal(10), ctx)
    ratio = target_ratio(alpha, 1, 5)
    # the defining limit: k*atilde1 / (l*atilde2) -> alpha/(1-alpha)
    assert Fraction(1) * ratio / Fraction(5) == alpha / (1 - alpha)
    approx_ratio = Decimal(ratio.numerator) / Decimal(ratio.denominator)
    assert abs(approx_ratio - Decimal("2.98994")) < Decimal("1e-4")


def test_target_ratio_rejects_endpoints():
    with pytest.raises(DomainError):
        target_ratio(Fraction(0), 1, 1)
    with pytest.raises(DomainError):
        target_ratio(Fraction(1), 1, 1)


# ---------------------------------------------------------------------------
# convergents

def test_convergents_of_integer():
    assert best_rational_approximations(2) == [Fraction(2)]


def test_convergents_of_three_halves():
    assert best_rational_approximations(Decimal("1.5")) == [Fraction(1), Fraction(3, 2)]


def test_leading_convergent_superseded_at_same_denominator():
    # 2.9 = [2; 1, 9]: the integer convergent 2/1 loses to 3/1
    assert best_rational_approximations(Decimal("2.9")) == [Fraction(3), Fraction(29, 10)]


def test_zero_numerator_convergents_dropped():
    convergents = best_rational_approximations(Decimal("0.3"))
    assert convergents == [Fraction(1, 3), Fraction(3, 10)]
    assert all(c.numerator >= 1 for c in convergents)


def test_convergents_exact_termination():
    convergents = best_rational_approximations(Decimal("2.98948"), 100_000)
    assert convergents[-1] == Fraction(74737, 25000)


def test_convergents_under_cap_stay_close():
    r = Fraction(Decimal("2.98948"))
    convergents = best_rational_approximations(r, 100)
    assert convergents[-1].denominator <= 100
    assert abs(r - convergents[-1]) < Fraction(1, 10_000)


def test_convergents_respect_cap_and_order():
    convergents = best_rational_approximations(Fraction(355, 113) + Fraction(1, 10**12), 10**6)
    denominators = [c.denominator for c in convergents]
    assert denominators == sorted(denominators)
    assert all(d <= 10**6 for d in denominators)


def test_convergent_quality_and_optimality_random():
    rng = random.Random(20260810)
    for _ in range(50):
        r = Fraction(rng.randrange(1, 100 * 10**6), 10**6)
        for conv in best_rational_approximations(r, 50):
            q = conv.denominator
            err = abs(r - conv)
            assert err < Fraction(1, q * q)
            assert err == best_error_upto(r, q)


def test_convergents_reject_bad_input():
    with pytest.raises(DomainError):
        best_rational_approximations(Fraction(-1, 2))
    with pytest.raises(DomainError):
        best_rational_approximations(0)
    with pytest.raises(DomainError):
        best_rational_approximations(1.5)
    with pytest.raises(DomainError):
        best_rational_approximations(Fraction(1, 2), 0)


# ---------------------------------------------------------------------------
# recipe search, modified density

def test_endpoint_recipe(ctx, l41):
    target = vd_mod(self_sum(l41, 1), ctx).evaluated
    recipe = approximate_vd_mod(target, l41, S10, Decimal("1e-9"), ctx)
    assert (recipe.k, recipe.l, recipe.m) == (1, 0, 1)
    assert recipe.error == 0
    assert recipe.composition == self_sum(l41, 1)


def test_equal_weights_midpoint_is_exact(ctx):
    a = make_link("A", c_oct=6, a=3)  # vd_mod = 3*v_oct
    b = make_link("B", remainder="16", a=3)  # vd_mod = 8
    v1 = vd_mod(self_sum(a, 1), ctx).evaluated
    v2 = vd_mod(self_sum(b, 1), ctx).evaluated
    with ctx.working():
        midpoint = (v1 + v2) / 2
    recipe = approximate_vd_mod(midpoint, a, b, Decimal("1e-20"), ctx)
    assert (recipe.k, recipe.l) == (1, 1)
    assert recipe.error <= ctx.comparison_tolerance


def test_interior_target_reaches_tolerance(ctx, l41):
    recipe = approximate_vd_mod(Decimal(9), l41, S10, Decimal("1e-6"), ctx)
    assert recipe.error < Decimal("1e-6")
    assert recipe.k >= 1 and recipe.l >= 1
    # re-evaluate through the calculus on the expanded composition
    again = vd_mod(composition({l41: recipe.k, S10: recipe.l}), ctx)
    assert again.exactly_equals(recipe.achieved_vd_mod)
    assert again.evaluated == recipe.achieved_vd_mod.evaluated


def test_out_of_range_and_degenerate_errors(ctx, l41):
    with pytest.raises(TargetRangeError):
        approximate_vd_mod(Decimal(11), l41, S10, Decimal("1e-6"), ctx)
    with pytest.raises(DegeneratePairError):
        approximate_vd_mod(Decimal(9), S10, S10, Decimal("1e-6"), ctx)
    with pytest.raises(DomainError):
        approximate_vd_mod(Decimal(9), l41, S10, Decimal(0), ctx)


def test_cap_exceeded_names_the_cap(ctx, l41):
    with pytest.raises(CapExceededError, match="denominator <= 3"):
        approximate_vd_mod(Decimal("9.000001"), l41, S10, Decimal("1e-12"), ctx, max_denominator=3)


# ---------------------------------------------------------------------------
# recipe search, plain density

def test_replicated_endpoint_recipe(ctx, l41):
    target = two_v_oct(ctx)
    recipe = approximate_vd(target, l41, l41, Decimal("0.001"), ctx)
    assert (recipe.k, recipe.l) == (1, 0)
    # least m with 2*v_oct/(m+1) < eps/2
    assert recipe.m == 14655
    assert recipe.error < Decimal("0.001")
    total = 14655
    expected = vd(self_sum(l41, total), ctx)
    assert recipe.achieved_vd.exactly_equals(expected)
    assert recipe.achieved_vd.exact_parts() == (Fraction(2 * total, total + 1), Fraction(0), Fraction(0))


def test_loose_eps_needs_no_replication(ctx):
    # atilde = 2 here, so m = 1 already puts the gap vd_mod/3 under eps/2
    link = make_link("A", c_oct=6, a=3)
    target = vd_mod(self_sum(link, 1), ctx).evaluated
    eps = target  # eps >= vd_mod
    recipe = approximate_vd(target, link, link, eps, ctx)
    assert recipe.m == 1
    assert recipe.error < eps


def test_interior_vd_target(ctx, l41):
    recipe = approximate_vd(Decimal("9.5"), l41, S10, Decimal("1e-6"), ctx)
    assert recipe.error < Decimal("1e-6")
    expanded = replicate(composition({l41: recipe.k, S10: recipe.l}), recipe.m)
    assert expanded == recipe.composition
    assert vd(expanded, ctx).exactly_equals(recipe.achieved_vd)
    assert vd_mod(expanded, ctx).exactly_equals(recipe.achieved_vd_mod)


def test_monotone_refinement(ctx, l41):
    errors = []
    for exponent in range(2, 9):
        recipe = approximate_vd(Decimal("9.1"), l41, S10, Decimal(1).scaleb(-exponent), ctx)
        errors.append(recipe.error)
    assert errors == sorted(errors, reverse=True) or all(
        later <= earlier for earlier, later in zip(errors, errors[1:])
    )


def test_vd_mode_rejects_bad_eps(ctx, l41):
    with pytest.raises(DomainError):
        approximate_vd(Decimal(9), l41, S10, Decimal("-1e-6"), ctx)


@pytest.mark.parametrize("eps", ["1.5E-25", "2E-25"])
def test_vd_mode_precision_error_quotes_the_callers_eps(ctx, l41, eps):
    # eps/2 is at or under the 30-digit tolerance 1E-25, while eps itself is above it
    with pytest.raises(DomainError) as info:
        approximate_vd(Decimal(9), l41, S10, Decimal(eps), ctx)
    message = str(info.value)
    assert message.startswith(f"tolerance {eps} is too fine for 30 digits")
    assert "above 1E-25" in message


def test_vd_mode_cap_error_quotes_the_callers_eps(ctx, l41):
    with pytest.raises(CapExceededError) as info:
        approximate_vd(Decimal(9), l41, S10, Decimal("1e-6"), ctx, max_denominator=1)
    message = str(info.value)
    assert "eps=0.000001 " in message and "denominator <= 1" in message
    assert "5E-7" not in message


# ---------------------------------------------------------------------------
# anchors: a target on an anchor, or within tolerance just outside the interval

@pytest.mark.parametrize("digits", [30, 60])
@pytest.mark.parametrize(
    "anchor,offset,expected",
    [
        ("S10", 0, (0, 1, 4000)),  # on the second anchor
        ("S10", 1, (0, 1, 4000)),  # half a tolerance above vd_mod(S10), the interval's top
        ("L41", -1, (1, 0, 14655)),  # half a tolerance below vd_mod(L41), the interval's bottom
    ],
)
def test_anchor_recipes_in_both_modes(digits, anchor, offset, expected, l41):
    ctx = PrecisionContext(digits)
    link = S10 if anchor == "S10" else l41
    alone = self_sum(link, 1)
    half_tol = ctx.comparison_tolerance / 2
    with ctx.working():
        target = vd_mod(alone, ctx).evaluated + offset * half_tol
    eps = Decimal("1e-3")
    k, l, m = expected

    recipe = approximate_vd_mod(target, l41, S10, eps, ctx)
    assert (recipe.k, recipe.l, recipe.m, recipe.mode) == (k, l, 1, "vdmod")
    assert recipe.composition == alone
    assert recipe.achieved_vd_mod.exactly_equals(vd_mod(alone, ctx))
    assert recipe.achieved_vd.exactly_equals(vd(alone, ctx))
    assert recipe.error == abs(offset) * half_tol

    # the least m whose replication gap vd_mod/(m*atilde+1) is below eps/2
    recipe = approximate_vd(target, l41, S10, eps, ctx)
    assert (recipe.k, recipe.l, recipe.m, recipe.mode) == (k, l, m, "vd")
    assert recipe.composition == self_sum(link, m)
    assert replication_error(alone, m, ctx) < eps / 2 <= replication_error(alone, m - 1, ctx)
    assert recipe.achieved_vd.exactly_equals(vd(self_sum(link, m), ctx))
    assert recipe.error < eps


# ---------------------------------------------------------------------------
# candidates are tested on integer totals; only the returned recipe is a Composition

_components = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=40, max_denominator=10**6),
)
_remainders = st.one_of(
    st.just(Decimal(0)),
    st.builds(lambda n, places: Decimal(n).scaleb(-places), st.integers(0, 10**15), st.integers(0, 12)),
)
_links = st.tuples(_components, _components, _remainders, st.integers(2, 12)).filter(lambda t: any(t[:3]))


@given(
    _links,
    _links,
    st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)).filter(any),
    st.sampled_from([30, 60]),
)
def test_integer_totals_give_the_digits_of_vd_mod(first, second, counts, digits):
    ctx = PrecisionContext(digits)
    link1, link2 = (
        make_link(name, c_oct=c_oct, c_tet=c_tet, remainder=str(remainder), a=a)
        for name, (c_oct, c_tet, remainder, a) in (("A", first), ("B", second))
    )
    k, l = counts
    c = composition([(link, n) for link, n in ((link1, k), (link2, l)) if n])
    tested = approx._vd_mod_evaluator(link1, link2, ctx)(k, l)
    expected = vd_mod(c, ctx).evaluated
    assert tested == expected
    assert str(tested) == str(expected)
    # The final rounding to digits hides most differences in the guard
    # digits, so the working-precision values must agree as well.
    with pytest.MonkeyPatch.context() as patch:
        for module in (approx, numerics):
            patch.setattr(module, "round_to", lambda value, ctx: value)
        unrounded = approx._vd_mod_evaluator(link1, link2, ctx)(k, l)
        assert str(unrounded) == str(vd_mod(c, ctx).evaluated)


@pytest.fixture
def built(monkeypatch):
    """Every Composition built, through approx or inside calculus (replicate, self_sum)."""
    compositions = []
    original = calculus.composition

    def counting(parts):
        compositions.append(original(parts))
        return compositions[-1]

    monkeypatch.setattr(calculus, "composition", counting)
    monkeypatch.setattr(approx, "composition", counting)
    return compositions


@pytest.mark.parametrize("target", ["9.1", "9.5", "9.000001"])
@pytest.mark.parametrize("eps", ["1e-3", "1e-9", "1e-12"])
def test_search_builds_only_the_returned_composition(ctx, l41, built, target, eps):
    recipe = approximate_vd_mod(Decimal(target), l41, S10, Decimal(eps), ctx)
    assert built == [recipe.composition]
    built.clear()
    recipe = approximate_vd(Decimal(target), l41, S10, Decimal(eps), ctx)
    assert 1 <= len(built) <= 2
    assert built[-1] == recipe.composition


def test_anchor_search_builds_only_the_anchor(ctx, l41, built):
    alone = self_sum(S10, 1)
    target = vd_mod(alone, ctx).evaluated
    built.clear()
    recipe = approximate_vd_mod(target, l41, S10, Decimal("1e-9"), ctx)
    assert built == [recipe.composition] == [alone]


def test_refused_search_builds_no_composition(ctx, l41, built):
    with pytest.raises(CapExceededError):
        approximate_vd_mod(Decimal("9.000001"), l41, S10, Decimal("1e-12"), ctx, max_denominator=3)
    assert built == []
