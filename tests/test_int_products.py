"""The integer product kernels against Fraction references.

``MultiPoly.__mul__`` and ``__pow__``, ``dring.tensor_mul`` and
``dring.push_through`` multiply on int numerators over a common denominator
(a one-term factor of a polynomial product scales the other factor's
Fractions instead).  The references below multiply Fraction by Fraction,
term by term, reducing every power and every product mod the ideal; the
results must agree term for term and keep Fraction coefficients."""

from fractions import Fraction
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from dfields.algebra import (
    FiniteDimAlgebra,
    from_presentation,
    product_algebra,
    rational_field_algebra,
)
from dfields.dring import TensorElement, push_through, tensor_mul
from dfields.poly import Ideal, MultiPoly

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
        out.append(total)
    return out


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
_COEFFS = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2), F(-1, 6), F(1, 24), F(5, 3)])
_EXPS = st.tuples(st.integers(0, 3), st.integers(0, 3))
_POLYS = st.dictionaries(_EXPS, _COEFFS, max_size=4).map(lambda t: MultiPoly(VARS, t))
_IDEALS = st.sampled_from(
    [None, Ideal(VARS, ["x^2 + y^2 - 1"]), Ideal(VARS, ["x^3 - 1/6*y", "y^2 - 2"])]
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
def test_push_through_matches_fraction_reference(algebra, polys, x_image, y_image, ideal):
    images = {"x": _tensor(algebra, x_image), "y": _tensor(algebra, y_image)}
    results = push_through(algebra, polys, images, VARS, ideal)
    expected = _reference_push_through(algebra, polys, images, VARS, ideal)
    for result, reference in zip(results, expected):
        for r, e in zip(result.comps, reference.comps):
            _assert_same(r, e)
            if ideal is not None:
                # the components come out as normal forms
                _assert_same(ideal.normal_form(r), r)
