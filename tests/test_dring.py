"""Operator structures on finitely presented rings."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfields import dring
from dfields.algebra import from_presentation, product_algebra, rational_field_algebra
from dfields.dring import (
    DRingError,
    PowerTable,
    SectionPropertyError,
    TensorElement,
    WellDefinednessError,
    associated_hom,
    invert_modulo,
    is_d_ideal,
    localize_dstructure,
    make_doperator,
    product_rule_check,
    push_through,
    tensor_mul,
)
from dfields.poly import (
    BudgetExceededError,
    GroebnerBudget,
    Ideal,
    MultiPoly,
    as_poly,
    format_poly,
    parse_polynomial,
)

from conftest import random_poly


def P(text, variables):
    return parse_polynomial(text, variables)


# ---------------------------------------------------------------------------
# applying an operator


def test_derivation_on_square(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    image = op.apply("x^2")
    assert [format_poly(c) for c in image.comps] == ["x^2", "2*x"]


def test_constants_map_to_unit_coordinates(dual, q3, trunc3):
    for algebra in (dual, q3, trunc3):
        ring = Ideal(("x",), [])
        images = {"x": tuple([P("x", ("x",))] + [P("0", ("x",))] * (algebra.dim - 1))}
        op = make_doperator(algebra, ring, images)
        image = op.apply("5")
        assert tuple(c.constant_value() if not c.is_zero() else Fraction(0) for c in image.comps) == tuple(
            5 * b for b in algebra.unit
        )


def test_truncated_square(trunc3):
    op = make_doperator(trunc3, Ideal(("x",), []), {"x": ("x", "1", "0")})
    image = op.apply("x^2")
    assert [format_poly(c) for c in image.comps] == ["x^2", "2*x", "1"]


def test_tensor_mul_stays_on_operand_variables(dual, q3):
    variables = ("x", "y")
    x = MultiPoly.variable("x", variables)
    for algebra in (dual, q3):
        a = TensorElement(algebra, [x] + [MultiPoly.zero(variables)] * (algebra.dim - 1))
        product = tensor_mul(a, a)
        assert any(c.is_zero() for c in product.comps)
        assert all(c.variables == variables for c in product.comps)


def test_tensor_mul_extends_mixed_component_variables(dual):
    # a rational component sits on no variables next to polynomials in x, y
    a = TensorElement(dual, [1, P("x", ("x",))])
    b = TensorElement(dual, [P("y", ("y",)), 2])
    product = tensor_mul(a, b)
    assert [format_poly(c) for c in product.comps] == ["y", "x*y + 2"]
    assert all(c.variables == ("x", "y") for c in product.comps)


def test_apply_unknown_variable_rejected(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    with pytest.raises(DRingError, match="unknown variable"):
        op.apply(P("z", ("z",)))


# ---------------------------------------------------------------------------
# construction checks


def test_parabola_structure_is_well_defined(dual):
    ideal = Ideal(("x", "y"), ["y - x^2"])
    op = make_doperator(dual, ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    assert op.to_dict()["images"]["y"] == ["y", "2*x"]


def test_parabola_bad_image_names_generator_and_component(dual):
    ideal = Ideal(("x", "y"), ["y - x^2"])
    with pytest.raises(WellDefinednessError) as err:
        make_doperator(dual, ideal, {"x": ("x", "1"), "y": ("y", "1")})
    assert err.value.component == 1
    assert format_poly(err.value.value) in ("-2*x + 1", "1 - 2*x")


def test_endomorphism_needs_no_relations(qxq):
    op = make_doperator(qxq, Ideal(("x",), []), {"x": ("x", "x + 1")})
    assert [format_poly(c) for c in op.apply("x^2").comps] == ["x^2", "x^2 + 2*x + 1"]


def test_section_property_enforced(dual):
    with pytest.raises(SectionPropertyError) as err:
        make_doperator(dual, Ideal(("x",), []), {"x": ("x + 1", "1")})
    assert err.value.variable == "x"
    assert str(err.value) == "component 0 of the image of 'x' is not 'x' modulo the ideal"


def test_unadapted_algebra_rejected(gauss):
    with pytest.raises(DRingError, match="not adapted"):
        make_doperator(gauss, Ideal(("x",), []), {"x": ("x", "0")})


def test_missing_image_rejected(dual):
    with pytest.raises(DRingError, match="no image"):
        make_doperator(dual, Ideal(("x", "y"), []), {"x": ("x", "1")})


# ---------------------------------------------------------------------------
# the product rule, against the closed-form oracles


def test_product_rule_and_oracle_on_fixtures(fixture_operators, rng):
    for name, algebra, op, oracle in fixture_operators:
        for _ in range(10):
            f = random_poly(rng, ("x", "y"))
            g = random_poly(rng, ("x", "y"))
            assert product_rule_check(op, f, g), name
            expected = oracle(f)
            image = op.apply(f)
            for got, want in zip(image.comps, expected):
                assert got == want, name
            # additivity
            lhs = op.apply(f + g)
            rhs = op.apply(f) + op.apply(g)
            assert all(a == b for a, b in zip(lhs.comps, rhs.comps))


def test_component_zero_is_normal_form(dual, rng):
    ideal = Ideal(("x", "y"), ["y - x^2"])
    op = make_doperator(dual, ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    for _ in range(10):
        f = random_poly(rng, ("x", "y"))
        assert op.apply(f).comps[0] == ideal.normal_form(f)


# ---------------------------------------------------------------------------
# the power table an operator keeps


def _fresh(op):
    """The same operator with an empty power table."""
    return make_doperator(op.algebra, op.ideal, op.images)


def _ladder_poly(degree):
    return P(f"(x + 2*y - 1/3)^{degree} + 3*x^{degree}*y - y^2", ("x", "y"))


def test_interleaved_applies_match_a_fresh_operator(fixture_operators):
    for name, _, op, oracle in fixture_operators:
        op = _fresh(op)
        for degree in (6, 2, 9, 2, 6):
            f = _ladder_poly(degree)
            image = op.apply(f)
            assert image == _fresh(op).apply(f), name
            assert list(image.comps) == list(oracle(f)), name


def test_circle_operator_keeps_its_powers_reduced(dual):
    circle = Ideal(("x", "y"), ["x^2 + y^2 - 1"])
    op = make_doperator(dual, circle, {"x": ("x", "-y"), "y": ("y", "x")})
    for degree in (6, 2, 9):
        f = _ladder_poly(degree)
        image = op.apply(f)
        assert image == _fresh(op).apply(f)
        assert all(circle.normal_form(c) == c for c in image.comps)
    for v in ("x", "y"):
        for e in range(1, 10):
            # x^2 leads x^2 + y^2 - 1: no reduced power has an x^2 term
            form = op.powers.power(v, e)
            assert all(x <= 1 for t in form.comps for x, _ in form.packing.unpack(t))


def test_operators_on_one_ideal_share_no_powers(dual):
    ring = Ideal(("x", "y"), [])
    first = make_doperator(dual, ring, {"x": ("x", "y"), "y": ("y", "1")})
    second = make_doperator(dual, ring, {"x": ("x", "x^2"), "y": ("y", "x")})
    for degree in (2, 6, 3):
        f = _ladder_poly(degree)
        for op in (first, second, first):
            assert op.apply(f) == _fresh(op).apply(f)
    assert first.powers is not second.powers
    for v in ("x", "y"):
        assert first.powers.power(v, 3).comps != second.powers.power(v, 3).comps


# ---------------------------------------------------------------------------
# one normal-form map per ideal, against an unreduced push followed by
# Ideal.normal_form, which no normal-form map serves

XY = ("x", "y")
CIRCLE = "x^2 + y^2 - 1"
TRUNC4 = from_presentation(["e"], ["e^4"])
# the rotation flow of the circle, to first and to third order
ROTATION = {"x": ("x", "-y"), "y": ("y", "x")}
ROTATION4 = {"x": ("x", "-y", "-1/2*x", "1/6*y"), "y": ("y", "x", "-1/2*y", "-1/6*x")}


def _oracle(algebra, ideal, images, f):
    """The image of f pushed on a table without the ideal, each component
    then reduced by :meth:`Ideal.normal_form`."""
    images = {
        v: TensorElement(algebra, [as_poly(c, ideal.variables) for c in comps])
        for v, comps in images.items()
    }
    table = PowerTable(algebra, images, ideal.variables)
    return push_through(table, [as_poly(f, ideal.variables)])[0].reduce(ideal)


def _agrees(op, images, f):
    return op.apply(f) == _oracle(op.algebra, op.ideal, images, f)


def test_equal_circles_over_two_algebras_agree_with_the_oracle(dual):
    ops = [
        (make_doperator(dual, Ideal(XY, [CIRCLE]), ROTATION), ROTATION),
        (make_doperator(TRUNC4, Ideal(XY, ["2*x^2 + 2*y^2 - 2"]), ROTATION4), ROTATION4),
    ]
    for degree in (2, 6, 3, 9):
        f = _ladder_poly(degree)
        for op, images in ops + ops[::-1]:
            assert _agrees(op, images, f)


def test_a_smaller_budget_still_raises_after_a_default_budget_push(dual):
    # the budget decides which divisions raise, so a push under the default
    # cap must not serve x^2*y^4 and x^6 to a table under a cap of 5
    f = "x^6 + x*y^5"
    assert _agrees(make_doperator(dual, Ideal(XY, [CIRCLE]), ROTATION), ROTATION, f)
    tight = make_doperator(dual, Ideal(XY, [CIRCLE], GroebnerBudget(5)), ROTATION)
    with pytest.raises(BudgetExceededError, match="degree 6 exceeds cap 5"):
        tight.apply(f)


def test_one_parabola_on_both_variable_orders_agrees_with_the_oracle(dual):
    # equal ideals on reordered variables pack their monomials differently
    images = {"x": ("x", "1"), "y": ("y", "2*x")}
    ops = [make_doperator(dual, Ideal(vs, ["y - x^2"]), images) for vs in (XY, XY[::-1])]
    for degree in (3, 7, 2):
        f = _ladder_poly(degree)
        for op in ops + ops[::-1]:
            assert _agrees(op, images, f)


def test_a_push_past_a_byte_takes_the_map_for_the_wider_cap(dual):
    ops = [
        make_doperator(dual, Ideal(XY, [CIRCLE], GroebnerBudget(310)), ROTATION)
        for _ in range(2)
    ]
    for f in ("x^5*y + 2*x^3", "x^300", "x^5*y - 2*x^3", "x^300 - x*y^299"):
        for op in ops:
            assert _agrees(op, ROTATION, f)
    assert all(op.powers._cap > 255 for op in ops)


def test_an_equal_ideal_divides_no_monomial_a_first_operator_divided(dual, monkeypatch):
    divided, int_normal_form = [], dring._int_normal_form

    def recording(terms, *args):
        divided.append(frozenset(terms))
        return int_normal_form(terms, *args)

    monkeypatch.setattr(dring, "_int_normal_form", recording)
    # a ring no other test uses, so the first operator finds no map filled
    uv = ("u", "v")
    images = {"u": ("u", "-v"), "v": ("v", "u")}
    images4 = {"u": ("u", "-v", "-1/2*u", "1/6*v"), "v": ("v", "u", "-1/2*v", "-1/6*u")}
    f = "u^5*v - 3*u^2 + v^4"
    make_doperator(dual, Ideal(uv, ["u^2 + v^2 - 1"]), images).apply(f)
    seen = set(divided)
    assert seen
    for algebra, relation, images in [
        (dual, "2*u^2 + 2*v^2 - 2", images),
        (TRUNC4, "-u^2 - v^2 + 1", images4),
    ]:
        divided.clear()
        make_doperator(algebra, Ideal(uv, [relation]), images).apply(f)
        assert not seen & set(divided)
        seen |= set(divided)


def test_a_full_normal_form_map_is_cleared_before_it_grows(dual, monkeypatch):
    monkeypatch.setattr(dring, "_NF_ENTRIES", 4)
    # a budget no other test uses: a map of its own
    op = make_doperator(dual, Ideal(XY, [CIRCLE], GroebnerBudget(43)), ROTATION)
    for degree in (3, 8, 5):
        op.powers._nf.update({-k: None for k in range(1, 6)})  # keys no monomial packs to
        assert _agrees(op, ROTATION, _ladder_poly(degree))
        assert all(e >= 0 for e in op.powers._nf)


_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)])
_SMALL = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _COEFFS, max_size=3).map(
    lambda t: MultiPoly(XY, t)
)
_NUDGES = st.lists(st.one_of(st.just(MultiPoly.zero(XY)), _SMALL), min_size=4, max_size=4)
# a budget no table has used yet: the key of a map not yet filled
_FRESH_BUDGETS = map(GroebnerBudget, itertools.count(100))


@pytest.mark.parametrize("warm", [False, True])
@settings(max_examples=40, deadline=None)
@given(st.booleans(), _SMALL, _NUDGES)
def test_make_doperator_fails_exactly_when_the_oracle_maps_the_circle_outside(
    dual, trunc3, warm, second_order, h, nudges
):
    # the rotation flow scaled by h is an operator over dual and trunc3;
    # a nonzero nudge to an image mostly breaks it
    x, y = (MultiPoly.variable(v, XY) for v in XY)
    algebra = trunc3 if second_order else dual
    flow = {
        "x": (x, -y * h + nudges[0], -Fraction(1, 2) * x * h * h + nudges[2]),
        "y": (y, x * h + nudges[1], -Fraction(1, 2) * y * h * h + nudges[3]),
    }
    images = {v: comps[: algebra.dim] for v, comps in flow.items()}
    if warm:
        make_doperator(dual, Ideal(XY, [CIRCLE]), ROTATION).apply(_ladder_poly(5))
        ideal = Ideal(XY, [CIRCLE])
    else:
        ideal = Ideal(XY, [CIRCLE], next(_FRESH_BUDGETS))
    image = _oracle(algebra, ideal, images, ideal.generators[0])
    nonzero = [j for j, c in enumerate(image.comps) if not c.is_zero()]
    if not nonzero:
        op = make_doperator(algebra, ideal, images)
        assert _agrees(op, images, _ladder_poly(3))
        return
    with pytest.raises(WellDefinednessError) as err:
        make_doperator(algebra, ideal, images)
    assert err.value.component == nonzero[0]
    assert err.value.value == image.comps[nonzero[0]]


# ---------------------------------------------------------------------------
# associated homomorphisms


def test_distinguished_hom_is_identity(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "x^2 + 1")})
    hom = associated_hom(op, 0)
    assert hom.is_endomorphism
    assert hom.endo_images() == {"x": P("x", ("x",))}


def test_product_algebra_shift_endomorphism(qxq):
    op = make_doperator(qxq, Ideal(("x",), []), {"x": ("x", "x + 1")})
    hom = associated_hom(op, 1)
    assert hom.is_endomorphism
    assert hom.endo_images() == {"x": P("x + 1", ("x",))}


def test_constant_image_into_quadratic_residue_field(gauss):
    big = product_algebra(rational_field_algebra(), gauss)
    # x maps to x * 1_D: the associated map into Q[x]/(P) sends x to x
    unit_images = {"x": tuple(MultiPoly.variable("x").scale(b) for b in big.unit)}
    op = make_doperator(big, Ideal(("x",), []), unit_images)
    hom = associated_hom(op, 1)
    assert not hom.is_endomorphism
    assert hom.images["x"] == (P("x", ("x",)), MultiPoly.zero(("x",)))


# ---------------------------------------------------------------------------
# operator-closed ideals


def test_derivation_does_not_fix_origin(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    assert not is_d_ideal(op, Ideal(("x",), ["x"]))
    assert is_d_ideal(op, Ideal(("x",), []))


def test_scaling_flow_fixes_origin(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "x")})
    assert is_d_ideal(op, Ideal(("x",), ["x"]))


def test_d_ideal_invariant_under_redundant_generators(dual):
    op = make_doperator(
        dual, Ideal(("x", "y"), []), {"x": ("x", "x"), "y": ("y", "y")}
    )
    lean = Ideal(("x", "y"), ["x*y"])
    padded = Ideal(("x", "y"), ["x*y", "x^2*y", "x*y + x*y^2 - x*y^2"])
    assert is_d_ideal(op, lean) == is_d_ideal(op, padded) is True
    lean2 = Ideal(("x", "y"), ["x"])
    padded2 = Ideal(("x", "y"), ["x", "x*y + x"])
    assert is_d_ideal(op, lean2) == is_d_ideal(op, padded2) is True


def test_d_ideal_requires_containment_of_relations(dual):
    ideal = Ideal(("x", "y"), ["y - x^2"])
    op = make_doperator(dual, ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    with pytest.raises(DRingError):
        is_d_ideal(op, Ideal(("x", "y"), ["x"]))


# ---------------------------------------------------------------------------
# localisation


def test_localize_inverts_coordinate(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    loc = localize_dstructure(op, "x")
    assert loc.to_dict()["images"]["w"] == ["w", "-w^2"]
    # the defining relation of the inverse is in the new ideal
    assert loc.ideal.contains(P("x*w - 1", ("x", "w")))


def test_localize_at_unit_is_identity(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    assert localize_dstructure(op, "1") is op
    assert localize_dstructure(op, P("2", ("x",))) is op


def test_localized_image_multiplies_back_to_one(dual, trunc3, rng):
    for algebra, images in (
        (dual, {"x": ("x", "x^2 + 1")}),
        (trunc3, {"x": ("x", "1", "x")}),
    ):
        op = make_doperator(algebra, Ideal(("x",), []), images)
        for q_text in ("x", "x + 2", "x^2 + 1"):
            loc = localize_dstructure(op, q_text)
            w = loc.variables[-1]
            dq = loc.apply(P(q_text, ("x",)).on_variables(loc.variables))
            dw = loc.images[w]
            product = tensor_mul(dq, dw, loc.ideal)
            unit = TensorElement.one(algebra, loc.variables).reduce(loc.ideal)
            assert all(a == b for a, b in zip(product.comps, unit.comps))


def _series_inverse(op, loc, q):
    """The image of w assembled per local component c of D, the reference
    for Newton's step: e_c dq is e_c (sigma_c(q) + n) with n nilpotent, and
    its inverse e_c / sigma_c(q) times the terminating geometric series in
    -n / sigma_c(q)."""
    algebra, ideal, variables = op.algebra, loc.ideal, loc.variables
    dq = op.apply(q).on_variables(variables)
    inverse = TensorElement(algebra, [MultiPoly.zero(variables)] * algebra.dim)
    for idx, comp in enumerate(algebra.components):
        sigma_q = ideal.normal_form(comp.residue(dq.comps, variables)[0])
        if idx == algebra.pi_index:
            sigma_inv = MultiPoly.variable(variables[-1], variables)
        else:
            sigma_inv = invert_modulo(ideal, sigma_q)
        e = TensorElement.from_algebra_element(algebra, comp.idempotent.coords, variables)
        base = (tensor_mul(e, dq, ideal) - e.scale(sigma_q)).scale(sigma_inv).reduce(ideal)
        series = term = e
        for _ in range(algebra.dim + 1):
            term = tensor_mul(term, base, ideal).scale(-1)
            if term.is_zero():
                break
            series = series + term
        else:
            raise AssertionError("the nilpotent part did not vanish")
        inverse = inverse + tensor_mul(series, e.scale(sigma_inv), ideal)
    return inverse


@pytest.mark.parametrize(
    "algebra, image, qs",
    [
        # 1 - dq w0 = -e w for q = x: nilpotent of index 5, so three steps,
        # the most dim(D) = 5 allows
        (from_presentation(["e"], ["e^5"]), ("x", "1", "0", "0", "0"), ("x", "x^2 + 1")),
        # the Q factor's residue 2x is inverted by invert_modulo
        (
            product_algebra(from_presentation(["e"], ["e^3"]), rational_field_algebra()),
            ("x", "1", "x^2", "2*x"),
            ("x", "x^3"),
        ),
    ],
)
def test_newton_inverse_matches_the_series_per_component(algebra, image, qs):
    op = make_doperator(algebra, Ideal(("x",), []), {"x": image})
    for q in qs:
        loc = localize_dstructure(op, q)
        dq = loc.apply(P(q, ("x",)).on_variables(loc.variables))
        dw = loc.images[loc.variables[-1]]
        unit = TensorElement.one(algebra, loc.variables).reduce(loc.ideal)
        assert tensor_mul(dq, dw, loc.ideal) == unit
        assert dw == _series_inverse(op, loc, P(q, ("x",)))


def test_wrong_inverse_image_fails_on_the_inverse_relation(dual):
    # the check of a localised structure: an image of w that does not
    # invert the image of x maps x*w - 1 outside the ideal
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    loc = localize_dstructure(op, "x")
    with pytest.raises(WellDefinednessError) as err:
        make_doperator(dual, loc.ideal, {"x": ("x", "1"), "w": ("w", "w^2")})
    assert (format_poly(err.value.generator), err.value.component) == ("x*w - 1", 1)


def test_localize_shift_orbit_not_finitely_presented(qxq):
    # with the shift x -> x + 1, the image of the inverse needs 1/(x+1),
    # which never enters Q[x, 1/x]; this is reported, not silently wrong
    op = make_doperator(qxq, Ideal(("x",), []), {"x": ("x", "x + 1")})
    with pytest.raises(DRingError, match="not invertible"):
        localize_dstructure(op, "x")


def test_localize_identity_endomorphism_part(qxq):
    op = make_doperator(qxq, Ideal(("x",), []), {"x": ("x", "x")})
    loc = localize_dstructure(op, "x")
    assert loc.to_dict()["images"]["w"] == ["w", "w"]


def test_localize_rejects_vanishing_element(dual):
    ideal = Ideal(("x", "y"), ["y - x^2"])
    op = make_doperator(dual, ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    with pytest.raises(DRingError, match="vanishes"):
        localize_dstructure(op, "y - x^2")


def test_invert_modulo():
    ideal = Ideal(("x", "w"), ["x*w - 1"])
    inv = invert_modulo(ideal, P("x^2", ("x", "w")))
    assert inv == P("w^2", ("x", "w"))
    assert invert_modulo(ideal, P("x + 1", ("x", "w"))) is None
