"""The integer product kernels against Fraction references.

``MultiPoly.__mul__`` and ``__pow__``, ``dring.tensor_mul`` and
``dring.push_through`` multiply on int numerators over a common denominator
(a one-term factor of a polynomial product scales the other factor's
Fractions instead).  The references below multiply Fraction by Fraction,
term by term, reducing every power, product and image mod the ideal; the
results must agree term for term and keep Fraction coefficients.
``dring.product_rule_check`` compares int forms; its verdict must be the
one the references give.

The one int product routine, ``packed.add_products``, adds exponents
packed into ints.  ``_reference_products`` is the loop on exponent tuples
that it replaced; the kernels must agree with it at any number of variables
and any degree, and so must the Kronecker substitution that takes over from
the loop on large dense operands, in polynomial and tensor products alike."""

import itertools
import math
import random
from fractions import Fraction
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfields.algebra import (
    FiniteDimAlgebra,
    from_presentation,
    product_algebra,
    rational_field_algebra,
)
from dfields import dring, packed
from dfields.cli import Resolver, parse
from dfields.dring import (
    DOperator,
    PowerTable,
    TensorElement,
    product_rule_check,
    push_through,
    tensor_mul,
)
from dfields.poly import (
    BudgetExceededError,
    GroebnerBudget,
    Ideal,
    MultiPoly,
    _common_int_terms,
    _fraction_terms,
    _mul_terms,
    as_poly,
)

from test_algebra import _products_in_a_random_basis

F = Fraction
VARS = ("x", "y")


# ---------------------------------------------------------------------------
# Fraction references


def _reference_mul(a, b):
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(map(add, e1, e2))
            c = terms.get(exp)
            terms[exp] = c1 * c2 if c is None else c + c1 * c2
    return MultiPoly._trusted(a.variables, {e: c for e, c in terms.items() if c})


def _reference_tensor_mul(a, b, ideal=None):
    algebra = a.algebra
    variables = a.comps[0].variables
    sums = [{} for _ in range(algebra.dim)]
    nonzero = [
        (i, j, k, c)
        for i, plane in enumerate(algebra.struct_consts)
        for j, row in enumerate(plane)
        for k, c in enumerate(row)
        if c
    ]
    for i, j, k, c in nonzero:
        target = sums[k]
        for e1, c1 in a.comps[i].terms.items():
            cc1 = c * c1
            for e2, c2 in b.comps[j].terms.items():
                exp = tuple(map(add, e1, e2))
                old = target.get(exp)
                target[exp] = cc1 * c2 if old is None else old + cc1 * c2
    comps = [
        MultiPoly._trusted(variables, {e: v for e, v in terms.items() if v}) for terms in sums
    ]
    if ideal is not None:
        comps = [ideal.normal_form(p) for p in comps]
    return TensorElement(algebra, comps)


def _reference_push_through(algebra, polys, images, variables, ideal=None):
    powers = {
        v: [None, image if ideal is None else image.reduce(ideal)]
        for v, image in images.items()
    }
    out = []
    for f in polys:
        total = TensorElement(algebra, [MultiPoly.zero(variables)] * algebra.dim)
        for exp, c in f.terms.items():
            term = None
            for v, e in zip(f.variables, exp):
                if not e:
                    continue
                cache = powers[v]
                while len(cache) <= e:
                    cache.append(_reference_tensor_mul(cache[-1], images[v], ideal))
                term = cache[e] if term is None else _reference_tensor_mul(term, cache[e], ideal)
            if term is None:
                term = TensorElement.constant(algebra, c, variables)
            else:
                term = TensorElement(algebra, [p.scale(c) for p in term.comps])
            total = total + term
        out.append(total if ideal is None else total.reduce(ideal))
    return out


def _reference_product_rule(op, f, g):
    """product_rule_check on Fractions: the image of f*g against the product
    of the images of f and g."""
    f, g = as_poly(f, op.variables), as_poly(g, op.variables)
    lhs, image_f, image_g = _reference_push_through(
        op.algebra, [f * g, f, g], op.images, op.variables, op.ideal
    )
    return lhs == _reference_tensor_mul(image_f, image_g, op.ideal)


# ---------------------------------------------------------------------------
# algebras and inputs


def _fractional_algebra():
    """Q[v]/(v^2 + 3v - 1/2) on the basis 2, v: a mul table with 1/4 and -3
    and the unit (1/2, 0)."""
    a = [
        [[F(2), F(0)], [F(0), F(2)]],
        [[F(0), F(2)], [F(1, 4), F(-3)]],
    ]
    return FiniteDimAlgebra(a, (F(1, 2), F(0)), ("u", "v"))


def _half_algebra():
    """Q[v]/(v^2 + 3v - 1/2) on the basis 1, v: v*v = 1/2 - 3v."""
    a = [
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(0), F(1)], [F(1, 2), F(-3)]],
    ]
    return FiniteDimAlgebra(a, (F(1), F(0)), ("one", "v"))


ALGEBRAS = (
    _half_algebra(),
    _fractional_algebra(),
    from_presentation(["e"], ["e^3"]),
    product_algebra(from_presentation(["e"], ["e^2"]), rational_field_algebra()),
)
# rotation-style denominators 1/k! next to plain and negative integers
_COEFF_LIST = [F(1), F(-1), F(2), F(-3), F(1, 2), F(-1, 6), F(1, 24), F(5, 3)]
_COEFFS = st.sampled_from(_COEFF_LIST)
_EXPS = st.tuples(st.integers(0, 3), st.integers(0, 3))
_POLYS = st.dictionaries(_EXPS, _COEFFS, max_size=4).map(lambda t: MultiPoly(VARS, t))
UNIT_IDEAL = Ideal(VARS, ["1"])
_IDEALS = st.sampled_from(
    [None, Ideal(VARS, ["x^2 + y^2 - 1"]), Ideal(VARS, ["x^3 - 1/6*y", "y^2 - 2"]), UNIT_IDEAL]
)


def _tensor(algebra, comps):
    return TensorElement(algebra, comps[: algebra.dim])


_TENSORS = st.lists(_POLYS, min_size=3, max_size=3)


def _assert_same(result, expected):
    assert result.variables == expected.variables
    assert result.terms == expected.terms
    assert all(type(c) is Fraction and c != 0 for c in result.terms.values())


# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_POLYS, _POLYS)
def test_polynomial_product_matches_fraction_reference(a, b):
    _assert_same(a * b, _reference_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(_POLYS, st.integers(0, 4))
def test_polynomial_power_matches_fraction_reference(a, n):
    expected = MultiPoly.one(VARS)
    for _ in range(n):
        expected = _reference_mul(expected, a)
    _assert_same(a**n, expected)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALGEBRAS), _TENSORS, _TENSORS, _IDEALS)
def test_tensor_mul_matches_fraction_reference(algebra, a, b, ideal):
    a, b = _tensor(algebra, a), _tensor(algebra, b)
    result = tensor_mul(a, b, ideal)
    expected = _reference_tensor_mul(a, b, ideal)
    for r, e in zip(result.comps, expected.comps):
        _assert_same(r, e)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALGEBRAS),
    st.lists(_POLYS, min_size=1, max_size=3),
    _TENSORS,
    _TENSORS,
    _IDEALS,
)
# over the unit ideal the image of 1 is zero
@example(
    ALGEBRAS[0],
    [MultiPoly.one(VARS)],
    [MultiPoly.variable("x", VARS)] * 3,
    [MultiPoly.variable("y", VARS)] * 3,
    UNIT_IDEAL,
)
def test_push_through_matches_fraction_reference(algebra, polys, x_image, y_image, ideal):
    images = {"x": _tensor(algebra, x_image), "y": _tensor(algebra, y_image)}
    results = push_through(PowerTable(algebra, images, VARS, ideal), polys)
    expected = _reference_push_through(algebra, polys, images, VARS, ideal)
    for result, reference in zip(results, expected):
        for r, e in zip(result.comps, reference.comps):
            _assert_same(r, e)
            if ideal is not None:
                # the components come out as normal forms
                _assert_same(ideal.normal_form(r), r)


def _random_poly(rng, variables, top, size):
    terms = {
        tuple(rng.randint(0, top) for _ in variables): rng.choice(_COEFF_LIST)
        for _ in range(size)
    }
    return MultiPoly(variables, terms)


@pytest.mark.parametrize("algebra", ALGEBRAS[2:], ids=["e^3", "e^2 x Q"])
@pytest.mark.parametrize(
    "variables, relations",
    [(("x", "y", "z"), ["x^2 + y^2 + z^2 - 1"]), (("x", "y", "z", "w"), ["x*y - z", "w^2 - 2"])],
    ids=["three", "four"],
)
def test_pushes_on_three_and_four_variables_match_fraction_reference(
    algebra, variables, relations
):
    # a term with three or more variable powers multiplies all but its last
    # power in the table before the last goes through the structure constants
    rng = random.Random(len(variables) * algebra.dim)
    full = MultiPoly(variables, {(1,) * len(variables): F(-1, 6), (2,) * len(variables): F(3)})
    for ideal in (None, Ideal(variables, relations)):
        for _ in range(6):
            images = {
                v: TensorElement(algebra, [_random_poly(rng, variables, 1, 2) for _ in range(3)])
                for v in variables
            }
            polys = [full + _random_poly(rng, variables, 2, 3) for _ in range(3)]
            table = PowerTable(algebra, images, variables, ideal)
            results = push_through(table, polys)
            expected = _reference_push_through(algebra, polys, images, variables, ideal)
            for result, reference in zip(results, expected):
                for r, e in zip(result.comps, reference.comps):
                    _assert_same(r, e)


# ---------------------------------------------------------------------------
# the packed product loop against the tuple-exponent loop


def _reference_products(sums, table, left, right, factor):
    """sums[k] += factor * s * (left[i] * right[j]) over the int structure
    constants (i, j, k, s), adding exponent tuples."""
    for i, j, k, s in table:
        target = sums[k]
        for e1, c1 in left[i].items():
            for e2, c2 in right[j].items():
                exp = tuple(map(add, e1, e2))
                target[exp] = target.get(exp, 0) + factor * s * c1 * c2


def _reference_mul_terms(a, b):
    da, a_ints = _common_int_terms([a])
    db, b_ints = _common_int_terms([b])
    sums = [{}]
    _reference_products(sums, ((0, 0, 0, 1),), a_ints, b_ints, 1)
    return _fraction_terms(sums[0], da * db)


def _reference_tensor_ints(a, b):
    algebra, variables = a.algebra, a.comps[0].variables
    ds, table = algebra.int_constants
    da, a_ints = _common_int_terms([p.terms for p in a.comps])
    db, b_ints = _common_int_terms([p.terms for p in b.comps])
    sums = [{} for _ in range(algebra.dim)]
    _reference_products(sums, table, a_ints, b_ints, 1)
    return [MultiPoly._trusted(variables, _fraction_terms(t, da * db * ds)) for t in sums]


# the coefficient algebras of the operator_stream benchmark workload
OPERATOR_ALGEBRAS = (
    "algebra dual = Q[e]/(e^2);\n"
    "algebra twonil = Q[e1, e2]/(e1^2, e1*e2, e2^2);\n"
    "algebra trunc3 = Q[e]/(e^3);\n"
    "algebra trunc4 = Q[e]/(e^4);\n"
    "algebra q3 { basis = [u0, u1, u2]; mul u0*u0 = u0; mul u0*u1 = 0; mul u0*u2 = 0;\n"
    "  mul u1*u1 = u1; mul u1*u2 = 0; mul u2*u2 = u2; unit = u0 + u1 + u2; }\n"
    "algebra dual_x_q { basis = [u, e, v]; mul u*u = u; mul u*e = e; mul u*v = 0;\n"
    "  mul e*e = 0; mul e*v = 0; mul v*v = v; unit = u + v; }\n"
)
_RESOLVER = Resolver(parse(OPERATOR_ALGEBRAS))
STREAM_ALGEBRAS = tuple(
    _RESOLVER.algebra(name) for name in ("dual", "twonil", "trunc3", "trunc4", "q3", "dual_x_q")
)

# ints next to negative and fractional Fractions
_SIGNED = st.one_of(st.integers(-9, 9).filter(bool), _COEFFS)


@st.composite
def _wide_term_dicts(draw, count):
    """``count`` term dicts on one layout of 1-12 variables with exponents
    up to 200: empty, one-term and several-term dicts."""
    n = draw(st.integers(1, 12))
    exps = st.tuples(*[st.integers(0, 200)] * n)
    return [draw(st.dictionaries(exps, _SIGNED, max_size=5)) for _ in range(count)]


def _assert_same_terms(result, expected):
    """Equal nonzero terms; the packed loop (not the one-term scaling, which
    keeps int products int) makes Fractions."""
    assert result == expected
    assert all(c != 0 for c in result.values())


@settings(max_examples=150, deadline=None)
@given(_wide_term_dicts(2))
def test_packed_product_matches_tuple_loop(pair):
    a, b = pair
    result = _mul_terms(a, b)
    _assert_same_terms(result, _reference_mul_terms(a, b))
    if len(a) > 1 and len(b) > 1:
        assert all(type(c) is Fraction for c in result.values())


def test_packed_product_edge_cases():
    wide = {(200,) * 12: F(-1, 3), (0,) * 11 + (1,): 2}
    for a, b in [({}, {}), ({}, wide), (wide, {}), ({(7,): F(1, 2)}, {(3,): -4, (0,): 1})]:
        _assert_same_terms(_mul_terms(a, b), _reference_mul_terms(a, b))
    square = _mul_terms(wide, wide)
    assert square == _reference_mul_terms(wide, wide)
    assert square[(400,) * 12] == F(1, 9)


_TENSOR_ALGEBRAS = st.one_of(st.sampled_from(STREAM_ALGEBRAS), _products_in_a_random_basis())


@settings(max_examples=100, deadline=None)
@given(_TENSOR_ALGEBRAS, st.data())
def test_packed_tensor_mul_matches_tuple_loop(algebra, data):
    dicts = data.draw(_wide_term_dicts(2 * algebra.dim))
    n = len(next((e for t in dicts for e in t), (0,)))
    dicts = [{e[:n] + (0,) * (n - len(e)): c for e, c in t.items()} for t in dicts]
    variables = tuple(f"x{i}" for i in range(n))
    polys = [MultiPoly(variables, t) for t in dicts]
    a = TensorElement(algebra, polys[: algebra.dim])
    b = TensorElement(algebra, polys[algebra.dim :])
    result = tensor_mul(a, b)
    for r, e in zip(result.comps, _reference_tensor_ints(a, b)):
        _assert_same(r, e)


# ---------------------------------------------------------------------------
# the product-rule check on int forms


def _noncommutative(algebra):
    """The algebra's basis and unit with e_i * e_j halved for the first pair
    i < j with a nonzero product, and e_j * e_i kept."""
    a = [[list(row) for row in plane] for plane in algebra.struct_consts]
    n = algebra.dim
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if any(a[i][j]))
    a[i][j] = [c / 2 for c in a[i][j]]
    return FiniteDimAlgebra(a, algebra.unit, algebra.basis_names)


TRUNC4 = STREAM_ALGEBRAS[3]
# e * e^2 = 1/2 e^3 but e^2 * e = e^3
SKEW_TRUNC4 = _noncommutative(TRUNC4)
SKEW_DUAL_X_Q = _noncommutative(STREAM_ALGEBRAS[5])
CIRCLE = Ideal(VARS, ["x^2 + y^2 - 1"])


def _operator(algebra, ideal, images):
    """A DOperator built without the checks of make_doperator."""
    images = {v: [as_poly(c, VARS) for c in comps] for v, comps in images.items()}
    return DOperator(algebra, ideal, {v: TensorElement(algebra, c) for v, c in images.items()})


def test_product_rule_check_can_fail_with_denominators():
    # any images extend to a homomorphism of Q[x, y] when D is commutative
    # and associative, so only the skewed multiplication breaks the rule
    images = {"x": ("x", "1/2*y", "1/3", "0"), "y": ("y", "-1/2*x", "0", "1/5*x*y")}
    skew = _operator(SKEW_TRUNC4, CIRCLE, images)
    valid = _operator(TRUNC4, CIRCLE, images)
    for f, g in [("x", "x^2"), ("1/2*x*y", "3/4*x + 2/7*y^2")]:
        assert product_rule_check(skew, f, g) is False
        assert _reference_product_rule(skew, f, g) is False
        assert product_rule_check(valid, f, g) is True
        assert _reference_product_rule(valid, f, g) is True


_SMALL_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _COEFFS, max_size=3
).map(lambda t: MultiPoly(VARS, t))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([TRUNC4, SKEW_TRUNC4, STREAM_ALGEBRAS[4], SKEW_DUAL_X_Q]),
    st.sampled_from([Ideal(VARS, []), CIRCLE]),
    st.lists(_SMALL_POLYS, min_size=8, max_size=8),
    _SMALL_POLYS,
    _SMALL_POLYS,
)
def test_product_rule_check_matches_fraction_reference(algebra, ideal, comps, f, g):
    dim = algebra.dim
    op = _operator(algebra, ideal, {"x": comps[:dim], "y": comps[4 : 4 + dim]})
    verdict = product_rule_check(op, f, g)
    assert verdict is _reference_product_rule(op, f, g)
    if algebra in (TRUNC4, STREAM_ALGEBRAS[4]):
        assert verdict is True


# ---------------------------------------------------------------------------
# one packing per table: widening and the reused image

# a circle whose basis computations allow images of degree up to 100
WIDE_CIRCLE = Ideal(VARS, ["x^2 + y^2 - 1"], GroebnerBudget(max_degree=100))
# a hyperbola under a budget above the degree-258 images below; its
# remainders, unlike the circle's, stay a few terms long
HIGH_HYPERBOLA = Ideal(VARS, ["x*y - 1"], GroebnerBudget(max_degree=300))
# single terms of degree at most one keep the references small
_MONOMIALS = st.sampled_from(["0", "1", "-1/2", "x", "2*y", "-1/3*x", "y"])
# a table's slots hold any total degree up to 255: these exponents widen
# it, and no push or product rule of _SMALL_POLYS does
_FAR = st.one_of(
    st.tuples(st.integers(256, 258), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(256, 258)),
)
_HIGH_POLYS = st.dictionaries(_FAR, _COEFFS, min_size=1, max_size=2).map(
    lambda t: MultiPoly(VARS, t)
)
_LOW_POLYS = _SMALL_POLYS.filter(lambda p: not p.is_zero())


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([TRUNC4, STREAM_ALGEBRAS[0], STREAM_ALGEBRAS[4]]),
    st.sampled_from([Ideal(VARS, []), HIGH_HYPERBOLA]),
    st.lists(_MONOMIALS, min_size=6, max_size=6),
    _LOW_POLYS,
    _HIGH_POLYS,
    _LOW_POLYS,
)
def test_a_widened_table_matches_fraction_reference(algebra, ideal, comps, low, high, g):
    # a low push, one past total degree 255, then the low one again
    dim = algebra.dim
    images = {"x": ["x", *comps[: dim - 1]], "y": ["y", *comps[3 : 2 + dim]]}
    op = _operator(algebra, ideal, images)
    assert [mask for _, mask in op.powers._packing.slots] == [255, 255]
    packings = [op.powers._packing]
    for f in (low, high, low):
        expected = _reference_push_through(algebra, [f], op.images, VARS, op.ideal)[0]
        assert op.apply(f) == expected
        assert product_rule_check(op, f, g) is True
        assert op.apply(f) == expected
        packings.append(op.powers._packing)
        # widening re-packs every cached power onto the new packing
        cached = [form for cache in op.powers._powers.values() for form in cache[1:]]
        assert all(form.packing is packings[-1] for form in cached)
    assert packings[1] is packings[0]
    assert packings[2] is not packings[1] and packings[3] is packings[2]


def test_product_rule_check_reuses_the_image_of_apply():
    # a repeated text is one object, so its image is read back too
    assert as_poly("x^9 - y", VARS) is as_poly("x^9 - y", VARS)
    images = {"x": ("x", "1/2*y", "1/3", "0"), "y": ("y", "-1/2*x", "0", "1/5*x*y")}
    for algebra in (SKEW_TRUNC4, TRUNC4):
        for f, g in [("x", "x^2"), ("1/2*x*y", "3/4*x + 2/7*y^2"), ("x^9 - y", "y^3")]:
            op = _operator(algebra, CIRCLE, images)
            f = as_poly(f, VARS)
            image = op.apply(f)
            verdict = product_rule_check(op, f, g)
            assert verdict is product_rule_check(_operator(algebra, CIRCLE, images), f, g)
            assert verdict is _reference_product_rule(op, f, g)
            # the last push is read back, not pushed again
            assert op.apply(f).comps[1] == image.comps[1]
            last = op.powers._last
            assert op.apply(f).comps[2] == image.comps[2] and op.powers._last is last
            # an equal copy of f gets the same image
            copy = MultiPoly(VARS, dict(f.terms))
            assert copy is not f and op.apply(copy) == image
            # another polynomial does not get the image of the last one
            other = _operator(algebra, CIRCLE, images)
            other.apply(f)
            assert other.apply(as_poly(g, VARS)) == op.apply(as_poly(g, VARS))
            assert other.apply(as_poly(g, VARS)) != image


# ---------------------------------------------------------------------------
# the normal-form map: a table reduces each monomial once, and a remainder
# never widens it

# x^3 -> 1/6 y divides with the scale 6
SCALED = Ideal(VARS, ["x^3 - 1/6*y", "y^2 - 2"])


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([*ALGEBRAS, SKEW_TRUNC4]),
    st.sampled_from([CIRCLE, SCALED, WIDE_CIRCLE]),
    st.lists(_MONOMIALS, min_size=6, max_size=6),
    st.lists(_LOW_POLYS, min_size=1, max_size=2),
    _LOW_POLYS,
)
def test_the_normal_form_map_matches_fraction_reference(algebra, ideal, comps, lows, g):
    # low pushes, one of degree 16, then the low ones again on the same
    # table: later pushes read the map filled by earlier ones
    dim = algebra.dim
    images = {"x": ["x", *comps[: dim - 1]], "y": ["y", *comps[3 : 2 + dim]]}
    op = _operator(algebra, ideal, images)
    for f in lows:
        assert op.apply(f) == _reference_push_through(algebra, [f], op.images, VARS, ideal)[0]
    packing = op.powers._packing
    far = MultiPoly(VARS, {(0, 16): F(1, 3), (1, 1): F(-2)})
    for f in [far, *lows]:
        expected = _reference_push_through(algebra, [f], op.images, VARS, ideal)[0]
        assert push_through(op.powers, [f])[0] == expected
        assert product_rule_check(op, f, g) is _reference_product_rule(op, f, g)
        assert op.apply(f) == expected
    assert op.powers._packing is packing


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_LOW_POLYS, min_size=1, max_size=2),
    st.lists(_MONOMIALS, min_size=2, max_size=2),
    st.lists(_SMALL_POLYS, min_size=1, max_size=3),
)
def test_no_remainder_in_the_normal_form_map_outgrows_its_monomial(gens, comps, pushes):
    # under grevlex every term of a remainder is at most its monomial, so
    # of no higher total degree; the map records the remainder's degree
    ideal = Ideal(VARS, gens)
    dual = STREAM_ALGEBRAS[0]
    op = _operator(dual, ideal, {"x": ["x", comps[0]], "y": ["y", comps[1]]})
    for f in pushes:
        assert op.apply(f) == _reference_push_through(dual, [f], op.images, VARS, ideal)[0]
    packing = op.powers._packing
    for key, (r, _, degree) in op.powers._nf.items():
        (monomial,) = packing.unpack({key: 1})
        assert max(map(sum, packing.unpack(r)), default=0) == degree <= sum(monomial)


def test_a_remainder_never_widens_the_table():
    # x^8 leads x^8 - 1/2*y^8, so the map takes x^8 to y^8 over the scale 2:
    # a remainder of the same total degree, on the packing that holds x^8
    ideal = Ideal(VARS, ["x^8 - 1/2*y^8"])
    dual = STREAM_ALGEBRAS[0]
    op = _operator(dual, ideal, {"x": ["x", "x"], "y": ["y", "-1/3*y"]})
    packing = op.powers._packing
    for f in ("x", "x^8", "x^9 + x*y", "x^8"):
        f = as_poly(f, VARS)
        assert op.apply(f) == _reference_push_through(dual, [f], op.images, VARS, ideal)[0]
        assert op.powers._packing is packing
    (x8,), (y8,) = packing.pack([{(8, 0): 1}, {(0, 8): 1}])
    assert op.powers._nf[x8] == ({y8: 1}, 2, 8)


# (algebra, images of x and y, pushed polynomial, cap, degree named); in
# each the components go over the cap at different degrees
_OVER_BUDGET = [
    (0, ("x", "y"), ("y", "x^2*y"), "x^3*y^3", 4, 5),
    (0, ("x", "y"), ("y", "x^2*y"), "x^3*y^3 + x^2", 5, 6),
    (0, ("x", "y"), ("y", "x^2*y"), "x^3*y^3", 6, 8),
    (0, ("x", "x*y^3"), ("y", "x*y^2"), "x^2*y^4 + y^2", 6, 9),
    (0, ("x", "x"), ("y", "2*y^2 - x"), "x^3*y + y^2", 3, 4),
    (0, ("x", "y^3"), ("y", "1"), "x^3*y^4 + y^4", 5, 7),
    (2, ("x", "y^4", "y^4"), ("y", "2*y^2 - x", "x*y"), "x^2 + y^4", 4, 5),
]


@pytest.mark.parametrize("algebra, x, y, f, cap, degree", _OVER_BUDGET)
def test_a_push_over_the_budget_names_the_first_component_over_the_cap(
    algebra, x, y, f, cap, degree
):
    # as a division of each component in turn: the degree is the top
    # degree of the first component over the cap, not of the first
    # monomial over it
    algebra = STREAM_ALGEBRAS[algebra]
    ideal = Ideal(VARS, ["x^2 + y^2 - 1"], GroebnerBudget(max_degree=cap))
    x, y = ([as_poly(c, VARS) for c in t] for t in (x, y))
    images = {"x": TensorElement(algebra, x), "y": TensorElement(algebra, y)}
    with pytest.raises(BudgetExceededError) as raised:
        push_through(PowerTable(algebra, images, VARS, ideal), [as_poly(f, VARS)])
    assert str(raised.value) == f"budget exhausted: degree {degree} exceeds cap {cap}"


# ---------------------------------------------------------------------------
# Kronecker substitution against the tuple-exponent loop


def _forced_dense():
    """The dense path for every product, however small or sparse."""
    return mock.patch.multiple(packed, _DENSE_WORK=0, _DENSE_RATIO=0, _DENSE_MULTIPLY=math.inf)


def _paths():
    """Mocks wrapping the loop and the dense path of ``packed``, to see
    which of them a product takes."""
    loop = mock.patch.object(packed, "_add_products", wraps=packed._add_products)
    return loop, mock.patch.object(packed, "_kronecker", wraps=packed._kronecker)


@st.composite
def _small_polys(draw, count):
    """``count`` polynomials on one layout of 1-4 variables, with exponents
    up to 6 and Fraction coefficients of either sign; one variable, when
    drawn, is in no exponent, so its slot is 0 bits wide."""
    n = draw(st.integers(1, 4))
    unused = draw(st.sampled_from((None,) + tuple(range(n))))
    exps = st.lists(st.integers(0, 6), min_size=n, max_size=n).map(
        lambda e: tuple(0 if v == unused else x for v, x in enumerate(e))
    )
    variables = tuple(f"x{i}" for i in range(n))
    sizes = [draw(st.integers(1, 8)) for _ in range(count)]
    return [MultiPoly(variables, draw(st.dictionaries(exps, _COEFFS, max_size=m))) for m in sizes]


@settings(max_examples=80, deadline=None)
@given(_small_polys(2), st.integers(0, 3))
def test_polynomial_products_match_fraction_reference_on_both_paths(pair, n):
    a, b = pair
    # exponents up to 3 keep the forced dense path's powers small
    low = MultiPoly(a.variables, {e: c for e, c in a.terms.items() if max(e, default=0) <= 3})
    power = MultiPoly.one(a.variables)
    for _ in range(n):
        power = _reference_mul(power, low)
    _assert_same(a * b, _reference_mul(a, b))
    _assert_same(low**n, power)
    loop, dense = _paths()
    with _forced_dense(), loop as looped, dense as kronecker:
        _assert_same(a * b, _reference_mul(a, b))
        assert kronecker.called is (len(a.terms) > 1 and len(b.terms) > 1)
        _assert_same(low**n, power)
    assert not looped.called


@st.composite
def _product_operands(draw, count):
    """``count`` int term dicts on one layout of 1-4 variables: dense ones,
    with every exponent of total degree at most d, about where the loop
    gives way to the dense path, or a few terms of exponents up to 40;
    coefficients of up to 90 bits, of either sign."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = draw(st.sampled_from([1, 8, 90]))

    def coeff():
        return rng.choice((-1, 1)) * rng.randint(1, 2**bits)

    if draw(st.booleans()):
        d = draw(st.sampled_from(((12, 30, 60), (4, 7, 10), (3, 5, 7), (2, 4))[n - 1]))
        exps = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]
        return [{e: coeff() for e in exps if rng.random() < 0.9} for _ in range(count)]
    exps = st.tuples(*[st.integers(0, 40)] * n)
    return [{e: coeff() for e in draw(st.lists(exps, max_size=6))} for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STREAM_ALGEBRAS + ALGEBRAS), st.data())
def test_dense_products_match_tuple_loop(algebra, data):
    dicts = data.draw(_product_operands(2 * algebra.dim))
    n = len(next((e for t in dicts for e in t), (0,)))
    variables = tuple(f"x{i}" for i in range(n))
    polys = [MultiPoly(variables, t) for t in dicts]
    a = TensorElement(algebra, polys[: algebra.dim])
    b = TensorElement(algebra, polys[algebra.dim :])
    expected = _reference_tensor_ints(a, b)
    for r, e in zip(tensor_mul(a, b).comps, expected):
        _assert_same(r, e)
    tops = [max((e[v] for t in dicts for e in t), default=0) for v in range(n)]
    if math.prod(2 * t + 1 for t in tops) <= 10**5:
        with _forced_dense():
            for r, e in zip(tensor_mul(a, b).comps, expected):
                _assert_same(r, e)


def test_the_dense_path_takes_large_dense_products_only():
    # the degree-9 bivariate images multiply by Kronecker substitution; the
    # degree-2 ones, the sparse high-degree ones and the dense trivariate
    # ones with 200-bit coefficients (whose big-int multiply costs more than
    # the loop, although the loop makes 19 products per index) in the loop
    trunc3 = STREAM_ALGEBRAS[2]
    wide = (("x", "y", "z"), f"{2**200 + 1}*(x - 2*y + 3*z + 5)^6", False)
    cases = [(VARS, "(x - 2*y + 3)^9", True), (VARS, "(x + y)^2 + 1", False)]
    cases += [(VARS, "x^40*y^3 - 7*y^41 + x", False), wide]
    for variables, text, dense in cases:
        table = PowerTable(trunc3, {}, variables)
        f = as_poly(text, variables)
        a = TensorElement(trunc3, [f, f * 3, -f])
        form = table._form(a.comps)
        with _paths()[0] as loop:
            result = dring._tensor(table, table.product(form, form))
        assert loop.called is not dense
        for r, e in zip(result.comps, _reference_tensor_ints(a, a)):
            _assert_same(r, e)
    # polynomial products: the degree-32 product of the operator_stream
    # benchmark is dense; a product of powers in six variables makes more
    # loop products than the gate but spreads them over 6^6 indices
    f, g = as_poly("(x + y + 1)^32", VARS), as_poly("(x - 2*y + 3)^32", VARS)
    six = tuple(f"x{i}" for i in range(6))
    h = as_poly("(x0 + x1 + x2 + x3 + x4 + x5 + 1)^3", six)
    k = as_poly("(x0 - x1 + 2*x2 - x3 + x4 - 3*x5 + 1)^2", six)
    assert len(h.terms) * len(k.terms) >= packed._DENSE_WORK
    for a, b, dense in [(f, g, True), (h, k, False)]:
        loop, kronecker = _paths()
        with loop as looped, kronecker as kroneckered:
            product = a * b
        assert looped.called is not dense and kroneckered.called is dense
        assert product.terms == _reference_mul_terms(a.terms, b.terms)
    # a pushed term: over Q^3 the two factors of x^9 * y^9, the images of x^9
    # and y^9, are dense; its coefficient scales what the dense path adds
    q3 = STREAM_ALGEBRAS[4]
    comps = {"x": ["x", "x + y + 1", "x - 2*y + 3"], "y": ["y", "2*x - y + 1", "x + y + 5"]}
    images = {v: TensorElement(q3, [as_poly(c, VARS) for c in t]) for v, t in comps.items()}
    table = PowerTable(q3, images, VARS)
    table.power("x", 9), table.power("y", 9)
    f = as_poly("-3/2*x^9*y^9 + 5*x", VARS)
    loop, kronecker = _paths()
    with loop as looped, kronecker as kroneckered:
        (result,) = push_through(table, [f])
    assert kroneckered.called and not looped.called
    (expected,) = _reference_push_through(q3, [f], images, VARS)
    for r, e in zip(result.comps, expected.comps):
        _assert_same(r, e)


def test_the_dense_path_gate_sums_the_work_over_every_table_entry():
    # with a cost model that always favours Kronecker substitution, a
    # product leaves the loop exactly when its loop products, summed over
    # the three entries of Q^3's table, reach the gate: 3 * 32 * 11 does,
    # 3 * 31 * 11 does not, although no one entry comes near it
    _, table = STREAM_ALGEBRAS[4].int_constants
    packing = packed._Packing([63, 63])
    right = [{(j + 1) << 6: (-1) ** j * (j + 2) for j in range(11)}] * 3
    for n, dense in [(32, True), (31, False)]:
        left = [{i: c * (i + 1) for i in range(n)} for c in (1, -1, 7)]
        work = sum(len(left[i]) * len(right[j]) for i, j, _, _ in table)
        assert (work >= packed._DENSE_WORK) is dense
        expected = [{}, {}, {}]
        packed._add_products(expected, table, left, right, 5)
        sums = [{}, {}, {}]
        loop, kronecker = _paths()
        with mock.patch.multiple(packed, _DENSE_RATIO=0, _DENSE_MULTIPLY=math.inf):
            with loop as looped, kronecker as kroneckered:
                packed.add_products(sums, table, left, right, 5, packing)
        assert kroneckered.called is dense and looped.called is not dense
        assert sums == expected
