"""Sections, sharp points, open restrictions, and descent."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfields import linalg
from dfields.algebra import from_presentation, product_algebra, rational_field_algebra
from dfields.cli import main
from dfields.dring import DRingError, TensorElement, make_doperator, tensor_mul
from dfields.dvariety import (
    DVarietyError,
    dideal_fixture_check,
    make_dvariety,
    open_dsubvariety,
    rational_sharp_points,
    sharp_locus,
    weil_descent,
    zero_section,
)
from dfields.poly import Ideal, MultiPoly, format_poly, parse_polynomial, univariate_coeffs
from dfields.prolongation import BaseDStructure, extend_by_point, nabla, prolong


def P(text, variables=None):
    return parse_polynomial(text, variables)


@pytest.fixture
def parabola_ideal():
    return Ideal(("x", "y"), ["y - x^2"])


@pytest.fixture
def line():
    return Ideal(("x",), [])


# ---------------------------------------------------------------------------
# construction


def test_parabola_section_valid(dual, parabola_ideal):
    dv = make_dvariety(dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    assert dv.operator.to_dict()["images"] == {"x": ["x", "1"], "y": ["y", "2*x"]}


def test_parabola_section_rejected(dual, parabola_ideal):
    with pytest.raises(DVarietyError, match="prolongation"):
        make_dvariety(dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "1")})


def test_level_zero_fault_is_named_as_one(dual, parabola_ideal):
    with pytest.raises(DVarietyError) as err:
        make_dvariety(dual, parabola_ideal, {"x": ("x + 1", "1"), "y": ("y", "2*x")})
    assert str(err.value) == (
        "section is not an operator structure: component 0 of the image of 'x' "
        "is not 'x' modulo the ideal"
    )


def test_coordinate_named_like_a_prolonged_coordinate(dual, tmp_path, capsys):
    # x_0 is a coordinate of V, not the level-0 copy of x
    ideal = Ideal(("x", "x_0"), ["x_0 - x^2"])
    images = {"x": ["x", "1"], "x_0": ["x_0", "2*x"]}
    dv = make_dvariety(dual, ideal, images)
    assert dv.operator.to_dict()["images"] == images
    op = extend_by_point(BaseDStructure.trivial(dual), ideal, ("x", "x_0", "1", "2*x"))
    assert op.to_dict()["images"] == images
    path = tmp_path / "graph.dr"
    path.write_text(
        "algebra dual = Q[e]/(e^2);\n"
        "variety V { vars = [x, x_0]; ideal = (x_0 - x^2); }\n"
        "dvariety dv { algebra = dual; variety = V; s x = (x, 1); s x_0 = (x_0, 2*x); }\n"
    )
    assert main(["dvariety", "check", str(path)]) == 0
    assert capsys.readouterr().out == "dvariety dv: valid section into the prolongation\n"


def _pullback_defect(algebra, ideal, section):
    """Reference for make_dvariety: pull each component of the prolonged
    generators back along the section, and return the first one outside
    the ideal as (generator, level, normal form), or None."""
    prolonged = prolong(BaseDStructure.trivial(algebra), ideal)
    substitution = {
        f"{x}_{level}": section[x][level]
        for x in prolonged.xvars
        for level in range(algebra.dim)
    }
    for f, comps in prolonged.per_generator:
        for j, comp in enumerate(comps):
            value = ideal.normal_form(comp.substitute(substitution))
            if not value.is_zero():
                return f, j, value
    return None


def _polys(variables, max_degree):
    """Nonzero polynomials of up to three terms."""
    exponents = st.tuples(*[st.integers(0, max_degree)] * len(variables))
    coefficients = st.integers(-3, 3).filter(bool)
    terms = st.dictionaries(exponents, coefficients, min_size=1, max_size=3)
    return terms.map(lambda t: MultiPoly(variables, t))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_make_dvariety_agrees_with_the_pullback_reference(dual, q3, trunc3, data):
    algebra = data.draw(st.sampled_from((dual, q3, trunc3)), label="algebra")
    xy = ("x", "y")
    if data.draw(st.booleans(), label="graph"):
        # V: y = g(x), and the section that the free operator with a random
        # image of x induces on it
        g = data.draw(_polys(("x",), 3), label="g")
        ideal = Ideal(xy, [P("y", xy) - g.on_variables(xy)])
        levels = data.draw(st.lists(_polys(xy, 2), min_size=algebra.dim - 1,
                                    max_size=algebra.dim - 1), label="image of x")
        free = make_doperator(
            algebra, Ideal(xy, []), {"x": ["x", *levels], "y": ["y"] + ["0"] * len(levels)}
        )
        section = {"x": free.images["x"].comps, "y": (P("y", xy),) + free.apply(g).comps[1:]}
    else:
        gens = data.draw(st.lists(_polys(xy, 2), min_size=1, max_size=2), label="generators")
        ideal = Ideal(xy, gens)
        section = zero_section(algebra, ideal)
    if data.draw(st.booleans(), label="perturb"):
        v = data.draw(st.sampled_from(xy))
        level = data.draw(st.integers(1, algebra.dim - 1), label="level")
        delta = data.draw(_polys(xy, 2), label="delta")
        comps = list(section[v])
        comps[level] = comps[level] + delta
        section[v] = tuple(comps)

    defect = _pullback_defect(algebra, ideal, section)
    if defect is None:
        dv = make_dvariety(algebra, ideal, section)
        assert all(dv.section[v].comps == tuple(section[v]) for v in xy)
        return
    f, j, value = defect
    with pytest.raises(DVarietyError) as err:
        make_dvariety(algebra, ideal, section)
    assert str(err.value) == (
        f"section does not land in the prolongation: component {j} "
        f"of {format_poly(f)} pulls back to {format_poly(value)}"
    )


def test_zero_section_always_valid(dual, q3, trunc3):
    circle = Ideal(("x", "y"), ["x^2 + y^2 - 1"])
    for algebra in (dual, q3, trunc3):
        dv = make_dvariety(algebra, circle, zero_section(algebra, circle))
        assert dv.variables == ("x", "y")


def test_operator_round_trip(dual, parabola_ideal):
    dv = make_dvariety(dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    for v in dv.variables:
        assert dv.section[v].comps == dv.operator.images[v].comps


# ---------------------------------------------------------------------------
# sharp loci


def test_scaling_flow_sharp_set_is_origin(dual, line):
    dv = make_dvariety(dual, line, {"x": ("x", "x")})
    locus = sharp_locus(dv)
    assert [format_poly(g) for g in locus.generators] == ["x"]
    result = rational_sharp_points(dv)
    assert result.zero_dimensional
    assert result.points == ((0,),)


def test_constant_flow_every_point_sharp(dual, line):
    dv = make_dvariety(dual, line, {"x": ("x", "0")})
    result = rational_sharp_points(dv)
    assert result.dimension == 1
    assert not result.locus.generators


def test_parabola_flow_has_empty_sharp_locus(dual, parabola_ideal):
    dv = make_dvariety(dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    result = rational_sharp_points(dv)
    assert result.is_empty
    assert result.points == ()
    assert result.locus.is_trivial()


def test_zero_section_circle_locus_is_the_circle(dual):
    circle = Ideal(("x", "y"), ["x^2 + y^2 - 1"])
    dv = make_dvariety(dual, circle, zero_section(dual, circle))
    result = rational_sharp_points(dv)
    assert result.dimension == 1
    point = {"x": Fraction(1), "y": Fraction(0)}
    assert all(g.evaluate(point) == 0 for g in result.locus.generators)
    assert (1, 0) in result.samples


def test_enumerated_sharp_points_satisfy_the_condition(dual, trunc3, rng):
    cases = [
        (dual, Ideal(("x",), []), {"x": ("x", "x^2 - 1")}),
        (dual, Ideal(("x",), []), {"x": ("x", "2*x + 3")}),
        (trunc3, Ideal(("x",), []), {"x": ("x", "x^2 - 4", "x - 2")}),
    ]
    for algebra, ideal, section in cases:
        dv = make_dvariety(algebra, ideal, section)
        result = rational_sharp_points(dv)
        assert result.zero_dimensional
        for point in result.points:
            # the section's image of a sharp point is its canonical image
            assert nabla(dv.operator, point) == tuple(c * b for b in algebra.unit for c in point)


def test_sharp_locus_contains_the_variety_ideal(dual, parabola_ideal):
    dv = make_dvariety(dual, parabola_ideal, {"x": ("x", "1"), "y": ("y", "2*x")})
    locus = sharp_locus(dv)
    for g in parabola_ideal.generators:
        assert locus.contains(g.on_variables(locus.variables))


# ---------------------------------------------------------------------------
# open subvarieties


def test_open_at_unit_is_same_object(dual, line):
    dv = make_dvariety(dual, line, {"x": ("x", "1")})
    assert open_dsubvariety(dv, "1") is dv


def test_open_restriction_keeps_section_on_old_coordinates(dual, line):
    dv = make_dvariety(dual, line, {"x": ("x", "1")})
    restricted = open_dsubvariety(dv, "x")
    assert restricted.section["x"].comps[1] == P("1", restricted.variables)
    assert restricted.section["w"].comps[1] == P("-w^2", restricted.variables)


def test_open_restriction_of_shift_fails(qxq, line):
    dv = make_dvariety(qxq, line, {"x": ("x", "x + 1")})
    with pytest.raises(DRingError, match="not invertible"):
        open_dsubvariety(dv, "x")


# ---------------------------------------------------------------------------
# minimal primes of an operator-closed ideal


def test_coordinate_cross_fixture_passes(dual):
    op = make_doperator(
        dual, Ideal(("x", "y"), []), {"x": ("x", "x"), "y": ("y", "y")}
    )
    report = dideal_fixture_check(op, ["x*y"], [["x"], ["y"]])
    assert all(e.contains_ideal and e.closed_under_operator for e in report)


def test_prime_ideal_is_its_own_decomposition(dual):
    op = make_doperator(dual, Ideal(("x", "y"), []), {"x": ("x", "x"), "y": ("y", "y")})
    report = dideal_fixture_check(op, ["x"], [["x"]])
    assert all(e.contains_ideal and e.closed_under_operator for e in report)


def test_wrong_prime_fails_containment(dual):
    op = make_doperator(dual, Ideal(("x", "y"), []), {"x": ("x", "x"), "y": ("y", "y")})
    report = dideal_fixture_check(op, ["x*y"], [["x + 1"]])
    assert not report[0].contains_ideal
    assert not all(e.contains_ideal and e.closed_under_operator for e in report)


def test_non_d_ideal_is_a_precondition_error(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    with pytest.raises(DRingError):
        dideal_fixture_check(op, ["x"], [["x"]])


# ---------------------------------------------------------------------------
# descent along Q(alpha)


def test_gaussian_point_descends(dual):
    result = weil_descent(
        dual, P("a^2 + 1"), ("a", "0"), ("x",), ["x - a"], {"x": ("x", "0")}
    )
    gens = sorted(format_poly(g) for g in result.descended.ideal.generators)
    assert gens == ["x_0", "x_1 - 1"]
    descended_sharp = rational_sharp_points(result.descended)
    assert descended_sharp.points == ((0, 1),)
    original = result.to_original(descended_sharp.points[0])
    assert format_poly(original["x"]) == "a"
    assert result.is_sharp_over_extension(original)
    assert result.to_descended(original) == descended_sharp.points[0]


def test_sqrt2_scaling_flow_descends(dual):
    result = weil_descent(
        dual, P("a^2 - 2"), ("a", "0"), ("x",), [], {"x": ("x", "a*x")}
    )
    section = result.descended.to_dict()["section"]
    # multiplication by alpha in the basis (1, alpha) is [[0, 2], [1, 0]]
    assert section == {"x_0": ["x_0", "2*x_1"], "x_1": ["x_1", "x_0"]}
    descended_sharp = rational_sharp_points(result.descended)
    assert descended_sharp.points == ((0, 0),)

    # independent oracle: a = a0 + a1*alpha is sharp iff alpha * a = 0,
    # i.e. 2*a1 = 0 and a0 = 0, so the only sharp point is 0
    originals = []
    for a0 in range(-3, 4):
        for a1 in range(-3, 4):
            if 2 * a1 == 0 and a0 == 0:
                originals.append((a0, a1))
    assert len(originals) == len(descended_sharp.points)

    original = result.to_original(descended_sharp.points[0])
    assert result.is_sharp_over_extension(original)


def test_points_off_the_variety_or_off_the_section_are_not_sharp(dual):
    # off the variety x = a: x = a + 1 leaves the residue 1
    gaussian = weil_descent(
        dual, P("a^2 + 1"), ("a", "0"), ("x",), ["x - a"], {"x": ("x", "0")}
    )
    assert not gaussian.is_sharp_over_extension({"x": "a + 1"})
    # on the line but off the section x -> (x, a*x): the constant 1 has the
    # image (1, 0), the section asks for (1, a)
    scaling = weil_descent(dual, P("a^2 - 2"), ("a", "0"), ("x",), [], {"x": ("x", "a*x")})
    assert not scaling.is_sharp_over_extension({"x": "1"})
    assert scaling.is_sharp_over_extension({"x": "0"})


def test_sharp_point_counts_agree_on_both_sides(dual):
    fixtures = [
        (P("a^2 + 1"), ("a", "0"), ("x",), ["x - a"], {"x": ("x", "0")}),
        (P("a^2 - 2"), ("a", "0"), ("x",), [], {"x": ("x", "a*x")}),
    ]
    for minpoly, alpha_images, xvars, gens, section in fixtures:
        result = weil_descent(dual, minpoly, alpha_images, xvars, gens, section)
        descended_sharp = rational_sharp_points(result.descended)
        originals = [result.to_original(p) for p in descended_sharp.points]
        assert all(result.is_sharp_over_extension(p) for p in originals)
        # the substitution tables invert each other on these points
        for p, orig in zip(descended_sharp.points, originals):
            assert result.to_descended(orig) == p


def test_degree_one_descent_is_identity(dual):
    result = weil_descent(
        dual, P("a"), ("a", "0"), ("x",), ["x - 1"], {"x": ("x", "0")}
    )
    assert result.descended.variables == ("x",)
    assert [format_poly(g) for g in result.descended.ideal.generators] == ["x - 1"]
    assert rational_sharp_points(result.descended).points == ((1,),)


def test_reducible_minimal_polynomial_rejected(dual):
    with pytest.raises(DVarietyError, match="irreducible"):
        weil_descent(dual, P("a^2 - 1"), ("a", "0"), ("x",), [], {"x": ("x", "0")})


def test_invalid_structure_on_extension_rejected(dual):
    # the image of alpha must satisfy the derived relation; (a, 1) does not
    with pytest.raises(DVarietyError, match="Q\\(alpha\\)"):
        weil_descent(dual, P("a^2 + 1"), ("a", "1"), ("x",), [], {"x": ("x", "0")})


def _tensor_mul_matrix(result):
    """The descent's comparison matrix with column (p, j) the product
    e_j * image(alpha)^p taken by tensor_mul, one per column."""
    algebra, alpha, op = result.algebra, result.alpha, result.ext_operator
    r, dim = result.degree, algebra.dim
    matrix = [[Fraction(0)] * (r * dim) for _ in range(r * dim)]
    for p in range(r):
        power = op.apply(MultiPoly.variable(alpha, (alpha,)) ** p)
        for j in range(dim):
            unit = [Fraction(int(i == j)) for i in range(dim)]
            e_j = TensorElement.from_algebra_element(algebra, unit, (alpha,))
            for k, comp in enumerate(tensor_mul(e_j, power, op.ideal).comps):
                for q, c in enumerate(univariate_coeffs(comp, alpha)):
                    matrix[q * dim + k][p * dim + j] = c
    return matrix


@pytest.mark.parametrize(
    "algebra, alpha_images, x_image, section",
    [
        # Q x Q on its idempotents: the second component conjugates Q(i)
        (
            product_algebra(rational_field_algebra(), rational_field_algebra()),
            ("a", "-a"),
            ("x", "x"),
            {"x_0": ["x_0", "x_0"], "x_1": ["x_1", "-x_1"]},
        ),
        # the same on the basis 1, e with e^2 = e, where a constant with
        # i != j is nonzero: u (1 - e) + v e has coordinates (u, v - u)
        (
            from_presentation(["e"], ["e^2 - e"]),
            ("a", "-2*a"),
            ("x", "0"),
            {"x_0": ["x_0", "0"], "x_1": ["x_1", "-2*x_1"]},
        ),
    ],
)
def test_descent_matrix_matches_the_tensor_mul_reference(algebra, alpha_images, x_image, section):
    # a = x_0 + x_1 i is sent by the conjugating component to x_0 - x_1 i
    matrices, inverse = [], linalg.inverse

    def recording(matrix):
        matrices.append(matrix)
        return inverse(matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "inverse", recording)
        result = weil_descent(algebra, P("a^2 + 1"), alpha_images, ("x",), [], {"x": x_image})
    assert matrices == [_tensor_mul_matrix(result)]
    assert result.descended.to_dict()["section"] == section


def test_descent_with_truncated_operators(trunc3):
    # a higher-order structure also descends; validation is structural
    result = weil_descent(
        trunc3, P("a^2 - 3"), ("a", "0", "0"), ("x",), [], {"x": ("x", "a*x", "x")}
    )
    descended_sharp = rational_sharp_points(result.descended)
    assert descended_sharp.points == ((0, 0),)
    original = result.to_original(descended_sharp.points[0])
    assert result.is_sharp_over_extension(original)
