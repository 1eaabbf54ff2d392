"""Mixing-ratio algebra, convergents against the brute-force oracle, and
end-to-end recipe search."""

import random
from datetime import timedelta
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fal_spectrum import (
    CapExceededError,
    DegeneratePairError,
    DomainError,
    TargetRangeError,
    approximate_vd,
    approximate_vd_mod,
    best_rational_approximations,
    composition,
    replicate,
    replication_error,
    vd,
    vd_mod,
    self_sum,
)
from fal_spectrum import approx, calculus, numerics
from fal_spectrum.numerics import PrecisionContext, two_v_oct
from helpers import make_link
from oracles import alpha_for_target, best_error_upto, eager_convergents, target_ratio

# vd_mod(S10) = 50/5 = 10 exactly; the remainder route keeps it rational.
S10 = make_link("S10", remainder="50", a=6)


def test_alpha_endpoints():
    v1, v2 = Decimal("7.5"), Decimal("10")
    assert alpha_for_target(v1, v1, v2) == 1
    assert alpha_for_target(v2, v1, v2) == 0
    assert alpha_for_target(Decimal("8.75"), v1, v2) == Fraction(1, 2)


def test_alpha_for_interior_target(ctx):
    # alpha = (9 - 10)/(2*v_oct - 10); the quoted 0.374213 is its 6-digit form
    alpha = alpha_for_target(Decimal(9), two_v_oct(ctx), Decimal(10))
    assert 0 < alpha < 1
    approx_alpha = Decimal(alpha.numerator) / Decimal(alpha.denominator)
    assert abs(approx_alpha - Decimal("0.374213")) < Decimal("1e-6")


def test_alpha_errors(ctx, l41):
    """No mixing weight exists for anchors within tolerance of each other, or
    for a target more than tolerance outside them; both searches refuse."""
    # vd_mod 10 and 10 + 1e-26 differ by less than the tolerance 1e-25 at 30 digits
    near = make_link("Near", remainder="10"), make_link("Far", remainder="10.00000000000000000000000001")
    for search in (approximate_vd_mod, approximate_vd):
        with pytest.raises(DegeneratePairError, match="coincide within tolerance"):
            search(Decimal(9), *near, Decimal("1e-6"), ctx)
        with pytest.raises(TargetRangeError, match="lies outside"):
            search(Decimal(11), l41, S10, Decimal("1e-6"), ctx)
        with pytest.raises(TargetRangeError, match="lies outside"):
            search(Decimal(7), l41, S10, Decimal("1e-6"), ctx)


def test_target_ratio_algebra(ctx):
    assert target_ratio(Fraction(1, 2), 3, 3) == 1
    assert target_ratio(Fraction(2, 3), 2, 2) == 2
    alpha = alpha_for_target(Decimal(9), two_v_oct(ctx), Decimal(10))
    ratio = target_ratio(alpha, 1, 5)
    # the defining limit: k*atilde1 / (l*atilde2) -> alpha/(1-alpha)
    assert Fraction(1) * ratio / Fraction(5) == alpha / (1 - alpha)
    approx_ratio = Decimal(ratio.numerator) / Decimal(ratio.denominator)
    assert abs(approx_ratio - Decimal("2.98994")) < Decimal("1e-4")


# built from a string: scaleb would round to the default context's 28 digits
_anchor_values = st.builds(lambda n, places: Decimal(f"{n}E-{places}"), st.integers(1, 10**40), st.integers(0, 38))


@given(
    _anchor_values,
    _anchor_values,
    st.fractions(min_value=0, max_value=1, max_denominator=10**30),
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.sampled_from([20, 30, 60]),
)
def test_integer_ratio_is_the_target_ratio_of_alpha(v1, v2, weight, atilde1, atilde2, digits):
    ctx = PrecisionContext(digits)
    tol = ctx.comparison_tolerance
    with localcontext(Context(prec=200)):
        target = v1 + (v2 - v1) * Decimal(weight.numerator) / Decimal(weight.denominator)
    # the search forms the ratio only for a target more than tol from both anchors
    assume(abs(target - v1) > tol and abs(target - v2) > tol and abs(v1 - v2) > tol)
    num, den = approx._mixing_ratio(target, v1, v2, atilde1, atilde2)
    assert num > 0 and den > 0
    assert Fraction(num, den) == target_ratio(alpha_for_target(target, v1, v2), atilde1, atilde2)


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


@given(
    st.fractions(min_value=Fraction(1, 10**9), max_value=10**9, max_denominator=10**12),
    st.integers(1, 10**6),
    st.integers(1, 10**15),
)
def test_lazy_convergents_match_the_eager_reference(r, unreduced_by, max_denominator):
    assume(r > 0)
    # the Euclidean quotients of an unreduced pair are those of the reduced one
    lazy = approx._convergents(r.numerator * unreduced_by, r.denominator * unreduced_by, max_denominator)
    assert [Fraction(p, q) for p, q in lazy] == eager_convergents(r, max_denominator)


@pytest.mark.parametrize(
    "r,expected",
    [
        (Fraction(29, 10), [(3, 1), (29, 10)]),  # [2; 1, 9]: 2/1 superseded by 3/1
        (Fraction(7, 10), [(1, 1), (2, 3), (7, 10)]),  # 0/1 skipped, nothing superseded
        (Fraction(5), [(5, 1)]),
    ],
)
def test_lazy_convergents_superseded_and_skipped(r, expected):
    assert list(approx._convergents(r.numerator * 6, r.denominator * 6, 100)) == expected
    assert [Fraction(p, q) for p, q in expected] == eager_convergents(r, 100)


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
    assert again.exact_parts() == recipe.achieved_vd_mod.exact_parts()
    assert again.evaluated == recipe.achieved_vd_mod.evaluated


def test_out_of_range_and_degenerate_errors(ctx, l41):
    with pytest.raises(TargetRangeError):
        approximate_vd_mod(Decimal(11), l41, S10, Decimal("1e-6"), ctx)
    with pytest.raises(DegeneratePairError):
        approximate_vd_mod(Decimal(9), S10, S10, Decimal("1e-6"), ctx)
    with pytest.raises(DomainError):
        approximate_vd_mod(Decimal(9), l41, S10, Decimal(0), ctx)


@pytest.mark.parametrize(
    "target, eps, digits",
    [("9.123456789012345678901234567891234", "0.9", d) for d in (20, 30, 60)]
    + [("9.0", "1e-6", d) for d in (20, 30, 60)]
    # within tolerance of S10's vd_mod 10 up to 30 digits, so the anchor alone
    + [("10.00000000000000000000000005", "1e-3", d) for d in (20, 30)],
)
def test_error_is_the_correctly_rounded_distance(l41, target, eps, digits):
    ctx = PrecisionContext(digits)
    target = Decimal(target)
    for search, achieved in ((approximate_vd_mod, "achieved_vd_mod"), (approximate_vd, "achieved_vd")):
        recipe = search(target, l41, S10, Decimal(eps), ctx)
        exact = abs(Fraction(getattr(recipe, achieved).evaluated) - Fraction(target))
        with localcontext(Context(prec=digits, rounding=ROUND_HALF_EVEN)):
            expected = Decimal(exact.numerator) / Decimal(exact.denominator)
        assert recipe.error == expected
        assert len(recipe.error.as_tuple().digits) == digits


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
    assert recipe.achieved_vd.exact_parts() == expected.exact_parts()
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
    assert vd(expanded, ctx).exact_parts() == recipe.achieved_vd.exact_parts()
    assert vd_mod(expanded, ctx).exact_parts() == recipe.achieved_vd_mod.exact_parts()


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
    # eps/2 is under or (2E-25, exactly) at the 30-digit tolerance 1E-25, while eps itself is above it
    with pytest.raises(DomainError) as info:
        approximate_vd(Decimal(9), l41, S10, Decimal(eps), ctx)
    message = str(info.value)
    assert message.startswith(f"tolerance {eps} is too fine for 30 digits")
    assert "above 1E-25" in message


def test_vd_mode_refusal_uses_the_exact_half_of_eps(ctx, l41):
    # eps/2 = 1.00000000000000000000000000000000000000005E-25 lies above the tolerance
    # 1E-25; rounded to the 35 working digits it was 1E-25, and the search refused
    eps = Decimal("2.0000000000000000000000000000000000000001E-25")
    recipe = approximate_vd(Decimal(9), l41, S10, eps, ctx, max_denominator=10**30)
    assert (recipe.k, recipe.l, recipe.m) == (6889324558371, 2304169384927, 4888601938504)
    assert abs(Fraction(recipe.achieved_vd_mod.evaluated) - 9) < Fraction(eps) / 2


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
    assert recipe.achieved_vd_mod.exact_parts() == vd_mod(alone, ctx).exact_parts()
    assert recipe.achieved_vd.exact_parts() == vd(alone, ctx).exact_parts()
    assert recipe.error == abs(offset) * half_tol

    # the least m whose replication gap vd_mod/(m*atilde+1) is below eps/2
    recipe = approximate_vd(target, l41, S10, eps, ctx)
    assert (recipe.k, recipe.l, recipe.m, recipe.mode) == (k, l, m, "vd")
    assert recipe.composition == self_sum(link, m)
    assert replication_error(alone, m, ctx) < eps / 2 <= replication_error(alone, m - 1, ctx)
    assert recipe.achieved_vd.exact_parts() == vd(self_sum(link, m), ctx).exact_parts()
    assert recipe.error < eps


# The printed vd_mod of L41 at 30 digits is 7.32772475341775212043682811946, and
# these targets lie 1e-25 + 1e-60 and 1e-25 - 1e-60 above it: just past the
# tolerance 1e-25, and just inside it.  A distance rounded to 35 digits is 1e-25 for both.
@pytest.mark.parametrize(
    "target,vdmod,vd",
    [
        (
            "7.327724753417752120436828219460000000000000000000000000000001",
            (133613762329112393978158589, 1, 1),
            (133613762329112393978158589, 1, 1),
        ),
        ("7.327724753417752120436828219459999999999999999999999999999999", (1, 0, 1), (1, 0, 29)),
    ],
    ids=["past-the-tolerance", "inside-the-tolerance"],
)
def test_anchor_tolerance_is_decided_on_the_exact_distance(ctx, l41, target, vdmod, vd):
    for search, expected in ((approximate_vd_mod, vdmod), (approximate_vd, vd)):
        recipe = search(Decimal(target), l41, S10, Decimal("0.5"), ctx)
        assert (recipe.k, recipe.l, recipe.m) == expected


def _exact_decimal(x: Fraction) -> Decimal:
    """x, whose denominator divides a power of ten, as a Decimal, unrounded."""
    with localcontext(numerics._EXACT):
        return Decimal(x.numerator) / x.denominator


def _offsets(scale: Fraction, digits: int):
    """Multiples of scale/10**(digits + 5) within three scales of 0, the ends
    of one scale on either side weighted in.  At the tolerance that step is
    10**-(2*digits), below half a unit of a distance rounded to digits + 5 digits."""
    edge = 10 ** (digits + 5)
    steps = st.one_of(
        st.sampled_from([-edge - 1, -edge, -edge + 1, 0, edge - 1, edge, edge + 1]),
        st.integers(-3 * edge, 3 * edge),
    )
    return steps.map(lambda n: scale * Fraction(n, edge))


@st.composite
def _search_inputs(draw):
    """(ctx, second link, target, eps): a target and an eps of up to about
    2*digits + 1 significant digits, within a few tolerances of an anchor, of the
    anchors pushed apart by the bound, or of the tolerance itself."""
    digits = draw(st.sampled_from([20, 30]))
    ctx = PrecisionContext(digits)
    tol = Fraction(ctx.comparison_tolerance)
    v1 = Fraction(two_v_oct(ctx))  # the printed vd_mod of L41
    # a second anchor within a few tolerances of the first, or S10 at 10
    steps = st.one_of(st.sampled_from([10**4 - 1, 10**4, 10**4 + 1]), st.integers(1, 3 * 10**4))
    near = draw(steps) * tol / 10**4  # whole last places of v1, so B's printed vd_mod is v1 + near
    link2 = draw(st.sampled_from([S10, make_link("B", remainder=str(_exact_decimal(v1 + near)), a=2)]))
    v2 = v1 + near if link2.name == "B" else Fraction(10)
    eps = draw(st.one_of(
        st.sampled_from([Fraction(1, 2), Fraction(1, 10**3), Fraction(1, 10**12)]),
        st.sampled_from([tol, 2 * tol]).flatmap(lambda c: _offsets(tol, digits).map(lambda x: c + x)),
    ).filter(lambda e: e > 0))
    center = draw(st.sampled_from([v1, v2, v1 + eps / 2, v2 - eps / 2, v1 + eps, v2 - eps, (v1 + v2) / 2]))
    target = center + draw(_offsets(tol, digits))
    return ctx, link2, _exact_decimal(target), _exact_decimal(eps)


@settings(max_examples=150, deadline=timedelta(seconds=5))
@given(_search_inputs())
def test_every_search_decision_matches_fractions(l41, inputs):
    """Each outcome is the one the same decisions make in Fractions on the
    printed anchors, and a returned recipe keeps its mode's bounds exactly."""
    ctx, link2, target, eps = inputs
    t, e, tol = Fraction(target), Fraction(eps), Fraction(ctx.comparison_tolerance)
    f1, f2 = (Fraction(vd_mod(self_sum(link, 1), ctx).evaluated) for link in (l41, link2))
    for search, bound in ((approximate_vd_mod, e), (approximate_vd, e / 2)):
        if bound <= tol:
            expected = DomainError
        elif abs(f1 - t) <= tol:
            expected = (1, 0)
        elif abs(f2 - t) <= tol:
            expected = (0, 1)
        elif abs(f1 - f2) <= tol:
            expected = DegeneratePairError
        elif t < min(f1, f2) - tol or t > max(f1, f2) + tol:
            expected = TargetRangeError
        else:
            expected = None  # a convergent, with k, l >= 1
        if isinstance(expected, type):
            with pytest.raises(DomainError) as info:
                search(target, l41, link2, eps, ctx, 10**50)
            assert type(info.value) is expected
            assert expected is not DomainError or "too fine" in str(info.value)
            continue
        recipe = search(target, l41, link2, eps, ctx, 10**50)
        if expected:
            assert (recipe.k, recipe.l) == expected
        else:
            assert recipe.k >= 1 and recipe.l >= 1
        assert abs(Fraction(recipe.achieved_vd_mod.evaluated) - t) < bound
        if search is approximate_vd:
            base = composition([(link, n) for link, n in ((l41, recipe.k), (link2, recipe.l)) if n])
            assert Fraction(replication_error(base, recipe.m, ctx)) < e / 2


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
    assert built == [recipe.composition]


def test_search_pulls_only_the_convergents_it_tests(ctx, l41, monkeypatch):
    pulled, calls = [], []
    original = approx._convergents

    def counting(*args):
        calls.append(args)
        for pair in original(*args):
            pulled.append(pair)
            yield pair

    monkeypatch.setattr(approx, "_convergents", counting)
    recipe = approximate_vd_mod(Decimal("9.1"), l41, S10, Decimal("1e-3"), ctx)
    assert pulled[-1] == (recipe.k, recipe.l)
    assert len(pulled) < len(list(original(*calls[0])))


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
