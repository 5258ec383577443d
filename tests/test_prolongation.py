"""Prolongation of varieties, its projections, and point extension."""

from fractions import Fraction

import pytest

from dfields.dring import associated_hom, make_doperator
from dfields.poly import Ideal, MultiPoly, parse_polynomial
from dfields.prolongation import (
    BaseDStructure,
    ProlongationError,
    alpha_hat,
    extend_by_point,
    nabla,
    pi_hat,
    prolong,
)

from conftest import random_poly


def P(text, variables=None):
    return parse_polynomial(text, variables)


@pytest.fixture
def parabola_ideal():
    return Ideal(("x", "y"), ["y - x^2"])


# ---------------------------------------------------------------------------
# the prolonged ideal


def test_twisted_tangent_bundle(dual, parabola_ideal):
    result = prolong(BaseDStructure.trivial(dual), parabola_ideal)
    assert result.variables == ("x_0", "y_0", "x_1", "y_1")
    ((f, comps),) = result.per_generator
    assert comps[0] == P("y_0 - x_0^2", result.variables)
    assert comps[1] == P("y_1 - 2*x_0*x_1", result.variables)


def test_product_algebra_gives_two_disjoint_copies(qxq, parabola_ideal):
    result = prolong(BaseDStructure.trivial(qxq), parabola_ideal)
    ((f, comps),) = result.per_generator
    assert comps[0] == P("y_0 - x_0^2", result.variables)
    assert comps[1] == P("y_1 - x_1^2", result.variables)


def test_prolongation_of_affine_space_is_affine_space(dual):
    result = prolong(BaseDStructure.trivial(dual), Ideal(("x", "y", "z"), []))
    assert not result.prolonged_ideal.generators
    assert len(result.variables) == 6


def test_prolong_is_additive_in_generators(dual, rng):
    base = BaseDStructure.trivial(dual)
    variables = ("x", "y")
    for _ in range(5):
        f = random_poly(rng, variables)
        g = random_poly(rng, variables)
        if f.is_zero() or g.is_zero():
            continue
        both = prolong(base, Ideal(variables, [f, g])).prolonged_ideal
        fa = prolong(base, Ideal(variables, [f])).prolonged_ideal
        ga = prolong(base, Ideal(variables, [g])).prolonged_ideal
        merged = Ideal(both.variables, list(fa.generators) + list(ga.generators))
        assert all(both.contains(g) for g in merged.generators)
        assert all(merged.contains(g) for g in both.generators)


def test_name_collision_rejected(dual):
    # the level-0 name of x is the parameter x_0
    base = BaseDStructure(dual, ("x_0",), {"x_0": ("x_0", "1")})
    with pytest.raises(ProlongationError, match="collide"):
        prolong(base, Ideal(("x_0", "x"), []))
    # a coordinate x_0 next to x is no collision: the prolonged names are
    # x_0, x_0_0, x_1, x_0_1
    prolonged = prolong(BaseDStructure.trivial(dual), Ideal(("x", "x_0"), []))
    assert prolonged.variables == ("x_0", "x_0_0", "x_1", "x_0_1")


def test_level_zero_component_recovers_the_generator(dual, q3, trunc3, rng):
    # renaming the level-0 block back to the original coordinates undoes
    # the expansion: the residue of the coefficient map is the identity
    for algebra in (dual, q3, trunc3):
        base = BaseDStructure.trivial(algebra)
        for _ in range(5):
            f = random_poly(rng, ("x", "y"))
            if f.is_zero():
                continue
            result = prolong(base, Ideal(("x", "y"), [f]))
            ((_, comps),) = result.per_generator
            renamed = comps[0].substitute(
                {"x_0": MultiPoly.variable("x"), "y_0": MultiPoly.variable("y")}
            )
            assert renamed == f
    # with parameters, coefficients pass through the section level untouched
    base = BaseDStructure(dual, ("t",), {"t": ("t", "1")})
    f = P("x - t^2", ("t", "x"))
    result = prolong(base, Ideal(("t", "x"), [f]))
    ((_, comps),) = result.per_generator
    assert comps[0].substitute({"x_0": MultiPoly.variable("x")}) == f


# ---------------------------------------------------------------------------
# brute-force expansion oracles


def _truncated_expansion_oracle(order):
    """Expand f(x + eps*x_1 + ... ) modulo eps^order with a formal variable,
    fully independent of the tensor arithmetic."""

    def oracle(f, xvars, levels):
        names = [f"{x}_{j}" for j in range(order) for x in xvars]
        eps = MultiPoly.variable("eps")
        subs = {}
        for x in xvars:
            total = MultiPoly.zero()
            for j in range(order):
                total = total + MultiPoly.variable(f"{x}_{j}") * eps ** j
            subs[x] = total
        expanded = f.substitute(subs)
        comps = [MultiPoly.zero(tuple(names)) for _ in range(order)]
        all_vars = expanded.variables
        eps_idx = all_vars.index("eps") if "eps" in all_vars else None
        for exp, c in expanded.terms.items():
            power = exp[eps_idx] if eps_idx is not None else 0
            if power >= order:
                continue
            rest = {
                v: e for v, e in zip(all_vars, exp) if v != "eps" and e
            }
            mono = tuple(rest.get(v, 0) for v in names)
            comps[power] = comps[power] + MultiPoly(tuple(names), {mono: c})
        return comps

    return oracle


def test_components_match_nilpotent_expansion(dual, trunc3, rng):
    for algebra, order in ((dual, 2), (trunc3, 3)):
        base = BaseDStructure.trivial(algebra)
        oracle = _truncated_expansion_oracle(order)
        for _ in range(25):
            f = random_poly(rng, ("x", "y"))
            if f.is_zero():
                continue
            result = prolong(base, Ideal(("x", "y"), [f]))
            ((_, comps),) = result.per_generator
            expected = oracle(f, ("x", "y"), order)
            for got, want in zip(comps, expected):
                assert got == want


def test_components_match_blockwise_oracle_for_products(q3, rng):
    # for a product of rationals the level-j component is f on the level-j block
    base = BaseDStructure.trivial(q3)
    for _ in range(25):
        f = random_poly(rng, ("x", "y"))
        if f.is_zero():
            continue
        result = prolong(base, Ideal(("x", "y"), [f]))
        ((_, comps),) = result.per_generator
        for j in range(3):
            expected = f.substitute(
                {v: MultiPoly.variable(f"{v}_{j}") for v in ("x", "y")}
            )
            assert comps[j] == expected


# ---------------------------------------------------------------------------
# the canonical point map


def test_nabla_on_the_line(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    assert nabla(op, (3,)) == (3, 1)


def test_nabla_of_trivial_structure_uses_unit_coordinates(q3):
    images = {"x": tuple(MultiPoly.variable("x").scale(b) for b in q3.unit)}
    op = make_doperator(q3, Ideal(("x",), []), images)
    assert nabla(op, (5,)) == tuple(5 * b for b in q3.unit)


def test_nabla_parabola_point(dual, parabola_ideal):
    op = make_doperator(
        dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "2*x")}
    )
    point = nabla(op, (2, 4))
    assert point == (2, 4, 1, 4)
    prolonged = prolong(BaseDStructure.trivial(dual), parabola_ideal)
    coords = dict(zip(prolonged.variables, point))
    assert all(
        g.evaluate(coords) == 0 for g in prolonged.prolonged_ideal.generators
    )


def test_nabla_rejects_points_off_the_variety(dual, parabola_ideal):
    op = make_doperator(
        dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "2*x")}
    )
    with pytest.raises(ProlongationError):
        nabla(op, (2, 5))


def test_nabla_soundness_across_fixture_operators(dual, qxq, trunc3, q3):
    # prolongation points of actual points satisfy the prolonged ideal
    parabola = Ideal(("x", "y"), ["y - x^2"])
    cubic = Ideal(("x", "y"), ["y - x^3"])
    circle = Ideal(("x", "y"), ["x^2 + y^2 - 1"])
    cases = [
        (dual, parabola, {"x": ("x", "1"), "y": ("y", "2*x")},
         [(a, a * a) for a in (-2, -1, 0, 1, 2)]),
        (dual, cubic, {"x": ("x", "1"), "y": ("y", "3*x^2")},
         [(a, a ** 3) for a in (-2, -1, 1, 2)]),
        (trunc3, parabola, {"x": ("x", "1", "0"), "y": ("y", "2*x", "1")},
         [(a, a * a) for a in (-1, 0, 3)]),
        (qxq, parabola, {"x": ("x", "x"), "y": ("y", "y")},
         [(a, a * a) for a in (-1, 2)]),
        (q3, circle,
         {"x": ("x", "x", "x"), "y": ("y", "y", "y")},
         [(1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5))]),
    ]
    checked = 0
    for algebra, ideal, images, points in cases:
        geom = make_doperator(algebra, ideal, images)
        prolonged = prolong(BaseDStructure.trivial(algebra), ideal)
        for point in points:
            image = nabla(geom, point)
            coords = dict(zip(prolonged.variables, image))
            assert all(
                g.evaluate(coords) == 0
                for g in prolonged.prolonged_ideal.generators
            )
            checked += 1
    assert checked >= 10


def test_generic_nabla_soundness_symbolic(dual, trunc3, parabola_ideal):
    # substituting the operator images into every component lands in the ideal
    cases = [
        (dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "2*x")}),
        (dual, Ideal(("x", "y"), ["y - x^3"]), {"x": ("x", "1"), "y": ("y", "3*x^2")}),
        (trunc3, Ideal(("x", "y"), ["y - x^2"]),
         {"x": ("x", "1", "0"), "y": ("y", "2*x", "1")}),
    ]
    for algebra, ideal, images in cases:
        op = make_doperator(algebra, ideal, images)
        prolonged = prolong(BaseDStructure.trivial(algebra), ideal)
        subs = {}
        for level in range(algebra.dim):
            for v in ideal.variables:
                subs[f"{v}_{level}"] = op.images[v].comps[level]
        for _, comps in prolonged.per_generator:
            for comp in comps:
                value = comp.substitute(subs).on_variables(ideal.variables)
                assert ideal.contains(value)


# ---------------------------------------------------------------------------
# projections


def test_pi_hat_is_block_zero_for_local_algebras(dual, trunc3, parabola_ideal):
    for algebra in (dual, trunc3):
        prolonged = prolong(BaseDStructure.trivial(algebra), parabola_ideal)
        projection = pi_hat(prolonged, 0)
        assert {v: images[0] for v, images in projection.images.items()} == {
            "x": P("x_0", prolonged.variables),
            "y": P("y_0", prolonged.variables),
        }


def test_pi_hat_blocks_for_product(qxq, parabola_ideal):
    prolonged = prolong(BaseDStructure.trivial(qxq), parabola_ideal)
    assert pi_hat(prolonged, 0).images["x"][0] == P("x_0", prolonged.variables)
    assert pi_hat(prolonged, 1).images["x"][0] == P("x_1", prolonged.variables)


def test_pi_zero_after_nabla_is_identity(dual, parabola_ideal):
    op = make_doperator(dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    prolonged = prolong(BaseDStructure.trivial(dual), parabola_ideal)
    point = (Fraction(3), Fraction(9))
    image = nabla(op, point)
    assert pi_hat(prolonged, 0).apply_point(prolonged.variables, image) == point


def test_alpha_hat_commutes_with_nabla(qxq, dual_x_q, parabola_ideal):
    for algebra in (qxq, dual_x_q):
        base = BaseDStructure.trivial(algebra)
        prolonged = prolong(base, parabola_ideal)
        comparison = alpha_hat(prolonged)
        images = {
            v: tuple(MultiPoly.variable(v, parabola_ideal.variables).scale(b)
                     for b in algebra.unit)
            for v in parabola_ideal.variables
        }
        op = make_doperator(algebra, parabola_ideal, images)
        endos = [associated_hom(op, i).endo_images() for i in range(len(algebra.components))]
        for point in ((1, 1), (2, 4), (-3, 9)):
            lhs = comparison.apply_point(
                prolonged.variables, nabla(op, point)
            )
            values = dict(zip(parabola_ideal.variables, point))
            rhs = tuple(
                endo[v].evaluate(values) for endo in endos for v in parabola_ideal.variables
            )
            assert lhs == rhs


def test_alpha_hat_drops_nilpotent_block(dual_x_q):
    prolonged = prolong(BaseDStructure.trivial(dual_x_q), Ideal(("x",), []))
    comparison = alpha_hat(prolonged)
    # coordinates are (x_0, x_1, x_2); the middle one is the nilpotent slot
    assert comparison.apply_point(
        prolonged.variables, (Fraction(5), Fraction(7), Fraction(9))
    ) == (5, 9)


# ---------------------------------------------------------------------------
# extending by a point of the prolongation


def test_extend_by_point_parabola(dual, parabola_ideal):
    base = BaseDStructure.trivial(dual)
    op = extend_by_point(base, parabola_ideal, ("x", "y", "1", "2*x"))
    assert op.to_dict()["images"] == {"x": ["x", "1"], "y": ["y", "2*x"]}
    generic = nabla(op, (P("x", ("x", "y")), P("y", ("x", "y"))))
    assert generic[2] == P("1", ("x", "y")).constant_value()


def test_extend_by_point_rejects_off_prolongation(dual, parabola_ideal):
    base = BaseDStructure.trivial(dual)
    with pytest.raises(ProlongationError, match="component 1"):
        extend_by_point(base, parabola_ideal, ("x", "y", "1", "1"))


def test_extend_by_point_free_ring(dual):
    base = BaseDStructure.trivial(dual)
    op = extend_by_point(base, Ideal(("x",), []), ("x", "x^3 + 1"))
    assert op.to_dict()["images"]["x"] == ["x", "x^3 + 1"]


def test_extend_requires_identity_level_zero(dual):
    base = BaseDStructure.trivial(dual)
    with pytest.raises(ProlongationError, match="level-0"):
        extend_by_point(base, Ideal(("x",), []), ("x + 1", "0"))


# ---------------------------------------------------------------------------
# parametric coefficients


def test_parametric_base_prolongs_coefficients(dual):
    base = BaseDStructure(dual, ("t",), {"t": ("t", "1")})
    ideal = Ideal(("t", "x"), ["x - t^2"])
    result = prolong(base, ideal)
    ((_, comps),) = result.per_generator
    assert comps[0] == P("x_0 - t^2", result.variables)
    assert comps[1] == P("x_1 - 2*t", result.variables)


def test_parametric_nabla(dual):
    base = BaseDStructure(dual, ("t",), {"t": ("t", "1")})
    ideal = Ideal(("t", "x"), ["x - t^2"])
    op = extend_by_point(base, ideal, ("x", "2*t"))
    value = nabla(op, (P("t^2", ("t",)),), xvars=("x",))
    assert value == (P("t^2", ("t",)), P("2*t", ("t",)))
