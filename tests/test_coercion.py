"""Polynomial input at the library's entry points.

Every entry point that takes a polynomial accepts text, a rational or a
MultiPoly, through ``poly.as_poly``.  Text naming a variable outside the
ring is a parse error with a position.  A MultiPoly on a stray variable is
a ValueError, except where an operator reports unknown ring variables as
a DRingError.
"""

from fractions import Fraction

import pytest

from dfields.algebra import from_presentation, product_algebra, rational_field_algebra
from dfields.dring import (
    DRingError,
    TensorElement,
    localize_dstructure,
    make_doperator,
    product_rule_check,
)
from dfields.dvariety import make_dvariety, open_dsubvariety, weil_descent
from dfields.poly import Ideal, MultiPoly, PolyParseError, as_poly, parse_polynomial
from dfields.prolongation import BaseDStructure, extend_by_point
from dfields.ucd import check_difference_large_instance, check_instance, ucd_instance

DUAL = from_presentation(["e"], ["e^2"])
QXQ = product_algebra(rational_field_algebra(), rational_field_algebra())
X = ("x",)
ALPHA = MultiPoly.variable("a")


def _operator():
    return make_doperator(DUAL, Ideal(X, []), {"x": ("x", "1")})


def _dvariety():
    return make_dvariety(DUAL, Ideal(X, []), {"x": ("x", "0")})


def _descent(generators=(), section=("x", 0)):
    return weil_descent(DUAL, ALPHA ** 2 + 1, ("a", 0), X, list(generators), {"x": section})


def _instance():
    return ucd_instance(
        BaseDStructure.trivial(QXQ), Ideal(X, []), Ideal(("x_0", "x_1"), ["x_1 - x_0"])
    )


# entry point -> a call that hands ``value`` to it as a polynomial
ENTRY_POINTS = {
    "Ideal": lambda v: Ideal(X, [v]),
    "Ideal.contains": lambda v: Ideal(X, ["x"]).contains(v),
    "Ideal.radical_contains": lambda v: Ideal(X, ["x"]).radical_contains(v),
    "DOperator.apply": lambda v: _operator().apply(v),
    "make_doperator": lambda v: make_doperator(DUAL, Ideal(X, []), {"x": ("x", v)}),
    "product_rule_check f": lambda v: product_rule_check(_operator(), v, "x"),
    "product_rule_check g": lambda v: product_rule_check(_operator(), "x", v),
    "localize_dstructure": lambda v: localize_dstructure(_operator(), v),
    "make_dvariety": lambda v: make_dvariety(DUAL, Ideal(X, []), {"x": ("x", v)}),
    "open_dsubvariety": lambda v: open_dsubvariety(_dvariety(), v),
    "weil_descent generators": lambda v: _descent(generators=[v]),
    "weil_descent section": lambda v: _descent(section=("x", v)),
    "extend_by_point": lambda v: extend_by_point(
        BaseDStructure.trivial(DUAL), Ideal(X, []), ["x", v]
    ),
    "ucd_instance h": lambda v: check_instance(
        ucd_instance(BaseDStructure.trivial(QXQ), Ideal(X, []), Ideal(("x_0", "x_1"), []), h=v)
    ),
    "check_difference_large_instance": lambda v: check_difference_large_instance(
        _instance(), {1: {"x": v}}, [(1, 1)]
    ),
}

# entry points that take polynomials or rationals but never parsed text
POLY_ONLY = {
    "WeilDescentResult.to_descended": lambda v: _descent().to_descended({"x": v}),
    "WeilDescentResult.is_sharp_over_extension": lambda v: _descent().is_sharp_over_extension(
        {"x": v}
    ),
}

STRAY_ERRORS = {
    "DOperator.apply": DRingError,
    "product_rule_check f": DRingError,
    "product_rule_check g": DRingError,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_text_with_an_unknown_name_is_a_parse_error(entry):
    with pytest.raises(PolyParseError) as err:
        ENTRY_POINTS[entry]("z")
    assert str(err.value) == "unknown variable 'z' (line 1, column 1)"


@pytest.mark.parametrize("entry", [*ENTRY_POINTS, *POLY_ONLY])
def test_polynomial_on_a_stray_variable_keeps_its_error(entry):
    call = ENTRY_POINTS.get(entry) or POLY_ONLY[entry]
    with pytest.raises(STRAY_ERRORS.get(entry, ValueError)) as err:
        call(MultiPoly.variable("z"))
    expected = "unknown variable 'z'" if entry in STRAY_ERRORS else (
        "cannot drop used variables ['z']"
    )
    assert str(err.value) == expected


def test_numeric_text_is_a_constant():
    assert TensorElement(DUAL, ["1/2", 0]).comps == (MultiPoly.constant(Fraction(1, 2)), 0)
    assert TensorElement(DUAL, [1, 0]).scale("3").comps[0] == 3
    assert MultiPoly.variable("x").substitute({"x": "1/2"}) == Fraction(1, 2)


@pytest.mark.parametrize(
    "value, variables, expected_vars",
    [
        ("x*y - 1/2", None, ("x", "y")),
        ("y - x", ("x", "y", "z"), ("x", "y", "z")),
        (3, None, ()),
        (3, ("x",), ("x",)),
        (Fraction(-2, 3), None, ()),
        (Fraction(-2, 3), ("x", "y"), ("x", "y")),
        (MultiPoly.variable("y", ("x", "y")), None, ("x", "y")),
        (MultiPoly.variable("y", ("x", "y")), ("y",), ("y",)),
        (MultiPoly.variable("y"), ("x", "y"), ("x", "y")),
    ],
)
def test_as_poly(value, variables, expected_vars):
    poly = as_poly(value, variables)
    assert isinstance(poly, MultiPoly)
    assert poly.variables == expected_vars
    if isinstance(value, MultiPoly):
        assert poly == value
        if variables is None:
            assert poly is value
    elif isinstance(value, str):
        assert poly == parse_polynomial(value)
    else:
        assert poly.constant_value() == value


def test_as_poly_rejects_what_is_not_on_the_variables():
    with pytest.raises(PolyParseError, match="unknown variable 'z'"):
        as_poly("x + z", ("x",))
    with pytest.raises(ValueError, match="cannot drop used variables"):
        as_poly(MultiPoly.variable("z"), ("x",))
    with pytest.raises(TypeError):
        as_poly(0.5)

