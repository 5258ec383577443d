"""Algebra axioms, presentations, and the local decomposition."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfields import linalg
from dfields.algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    _quotient_algebra,
    _standard_monomials,
    check_algebra,
    check_assumption_res_field_k,
    from_presentation,
    local_decompose,
    mul,
    product_algebra,
    rational_field_algebra,
    residue_projection,
    apply_residue_projection,
)
from dfields.poly import (
    BudgetExceededError,
    GroebnerBudget,
    Ideal,
    MultiPoly,
    factor_univariate,
    format_poly,
    parse_polynomial,
    univariate_coeffs,
    univariate_poly,
)

from test_linalg import (
    reference_inverse,
    reference_mat_mul,
    reference_mat_vec,
    reference_nullspace,
    reference_rank,
    reference_rref,
)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# axioms


def test_dual_numbers_valid(dual):
    assert check_algebra(dual).is_valid
    assert dual.dim == 2
    assert dual.unit == (1, 0)


def test_product_of_rationals_valid(qxq):
    assert check_algebra(qxq).is_valid
    assert qxq.unit == (1, 1)


def test_altered_dual_table_is_still_a_valid_algebra():
    # flipping e*e from 0 to e presents Q[e]/(e^2 - e), which satisfies all
    # three axiom families; nothing is reported
    a = [[[F(1), F(0)], [F(0), F(1)]], [[F(0), F(1)], [F(0), F(1)]]]
    report = check_algebra(FiniteDimAlgebra(a, (1, 0)))
    assert report.is_valid


def test_broken_unit_row_reported_with_witness():
    # 1*e = 0 violates the unit law at (j, k) = (1, 1)
    a = [[[F(1), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(0), F(0)]]]
    report = check_algebra(FiniteDimAlgebra(a, (1, 0)))
    assert not report.is_valid
    assert ("unit", (1, 1)) in {(v.kind, v.indices) for v in report.violations}


def test_broken_associativity_reported_with_witness():
    # e*e = 1 with 1*e = 0 cannot be associative: (ee)e = e but e(ee) = 0
    a = [[[F(1), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(1), F(0)]]]
    report = check_algebra(FiniteDimAlgebra(a, (1, 0)))
    kinds = {v.kind for v in report.violations}
    assert "associativity" in kinds


def test_noncommutative_tensor_reported():
    a = [[[F(1), F(0)], [F(0), F(1)]], [[F(0), F(0)], [F(0), F(0)]]]
    report = check_algebra(FiniteDimAlgebra(a, (1, 0)))
    assert any(v.kind == "commutativity" for v in report.violations)


def test_dimension_mismatch_is_input_error():
    with pytest.raises(AlgebraError):
        FiniteDimAlgebra([[[F(1)]]], (1, 0))


def test_constants_become_fractions_and_fractions_are_kept():
    # Q[v]/(v^2 + 3v - 1/2) on the basis 1, v, given as Fractions, ints and
    # strings
    table = [[[F(1), F(0)], [F(0), F(1)]], [[F(0), F(1)], [Fraction(1, 2), F(-3)]]]
    given = FiniteDimAlgebra(table, (F(1), F(0)))
    assert given.struct_consts[1][1][0] is table[1][1][0]
    ints = [[[1, 0], [0, 1]], [[0, 1], [Fraction(1, 2), -3]]]
    strings = [[["1", "0"], ["0", "1"]], [["0", "1"], ["1/2", "-3"]]]
    for consts, unit in ((ints, (1, 0)), (strings, ("1", "0"))):
        algebra = FiniteDimAlgebra(consts, unit)
        entries = [c for plane in algebra.struct_consts for row in plane for c in row]
        assert all(type(c) is Fraction for c in entries + list(algebra.unit))
        assert (algebra.struct_consts, algebra.unit) == (given.struct_consts, given.unit)
        assert (algebra._den, algebra._rows) == (given._den, given._rows)
        assert check_algebra(algebra).is_valid


def _dense_check(algebra):
    """The plain loops over every index tuple: the reference for the
    sparse check_algebra, as (kind, indices) pairs in report order."""
    a, b, n = algebra.struct_consts, algebra.unit, algebra.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if a[i][j][k] != a[j][i][k]:
                    out.append(("commutativity", (i, j, k)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    lhs = sum(a[i][j][t] * a[t][k][m] for t in range(n))
                    rhs = sum(a[j][k][t] * a[i][t][m] for t in range(n))
                    if lhs != rhs:
                        out.append(("associativity", (i, j, k, m)))
    for j in range(n):
        for k in range(n):
            total = sum(b[i] * a[i][j][k] for i in range(n))
            if total != (1 if j == k else 0):
                out.append(("unit", (j, k)))
    return out


_TABLES = (
    from_presentation(["e"], ["e^3"]),
    from_presentation(["y"], ["y^3 - 2"]),
    from_presentation(["x", "y"], ["x^2 - y", "y^2"]),
    product_algebra(from_presentation(["e"], ["e^2"]), rational_field_algebra()),
    from_presentation(["x", "y"], ["x^2 - 1", "y^2 - x"]),
    from_presentation(["x", "y"], ["x^2 - 3/2", "y^2 - 2/3*x"]),
)

_DELTAS = st.sampled_from((F(-2), F(-1), Fraction(1, 2), F(1), Fraction(3, 2)))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_TABLES),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), _DELTAS),
        max_size=3,
    ),
    st.lists(st.tuples(st.integers(0, 3), _DELTAS), max_size=1),
)
def test_sparse_check_matches_dense_reference(algebra, table_edits, unit_edits):
    # edits with a nonzero delta break one or more axiom families
    n = algebra.dim
    a = [[list(row) for row in plane] for plane in algebra.struct_consts]
    unit = list(algebra.unit)
    for i, j, k, delta in table_edits:
        a[i % n][j % n][k % n] += delta
    for i, delta in unit_edits:
        unit[i % n] += delta
    edited = FiniteDimAlgebra(a, unit)
    violations = [(v.kind, v.indices) for v in check_algebra(edited).violations]
    assert violations == _dense_check(edited)
    if edited.struct_consts == algebra.struct_consts and edited.unit == algebra.unit:
        assert violations == []


# ---------------------------------------------------------------------------
# multiplication


def _basis_element(algebra, i):
    return algebra.element([int(k == i) for k in range(algebra.dim)])


def test_dual_numbers_square_of_nilpotent(dual):
    eps = _basis_element(dual, 1)
    assert (eps * eps).is_zero()


def test_unit_is_neutral(dual, q3, trunc3):
    for algebra in (dual, q3, trunc3):
        for i in range(algebra.dim):
            v = _basis_element(algebra, i)
            assert mul(algebra, algebra.one(), v) == v


def test_orthogonal_idempotents_in_product(qxq):
    assert (_basis_element(qxq, 0) * _basis_element(qxq, 1)).is_zero()


# ---------------------------------------------------------------------------
# presentations


def test_presentation_dual_numbers():
    a = from_presentation(["e"], ["e^2"])
    assert a.dim == 2
    assert a.basis_names == ("1", "e")


def test_presentation_truncated():
    a = from_presentation(["e"], ["e^3"])
    assert a.dim == 3
    assert a.basis_names == ("1", "e", "e^2")


def test_presentation_gaussian():
    a = from_presentation(["y"], ["y^2 + 1"])
    assert a.dim == 2
    y = _basis_element(a, 1)
    assert (y * y).coords == (-1, 0)


def test_presentation_infinite_dimensional_names_variable():
    with pytest.raises(AlgebraError, match="'y'"):
        from_presentation(["x", "y"], ["x^2"])


def test_presentation_degree_budget_counts_reduced_products():
    # the largest standard monomial is e^21; only the border monomial e^22
    # is reduced, so nothing reaches the default degree cap of 40
    a = from_presentation(["e"], ["e^22"])
    assert a.dim == 22
    assert list(a.struct_consts[10][11]) == [F(0)] * 21 + [F(1)]
    assert list(a.struct_consts[11][11]) == [F(0)] * 22


@pytest.mark.parametrize(
    "variables, relations, cap, degree",
    [
        (("e", "f"), ["e^3", "f^2"], 3, 4),
        (("x", "y"), ["x^3", "y^3"], 4, 5),
        (("x", "y"), ["x^2 - 3/2", "y^2 - 2/3*x"], 2, 3),
        (("x", "y", "z"), ["x^2 - y*z", "y^2 - 1/2", "z^3 - x"], 3, 4),
        (("x", "y", "z"), ["x^2", "y^3", "z^2 - x*y"], 4, 5),
    ],
)
def test_quotient_over_the_cap_fails_one_degree_above_it(variables, relations, cap, degree):
    # every basis element is within the cap, the products of the quotient
    # are not; the error names the lowest degree above the cap
    budget = GroebnerBudget(max_degree=cap)
    message = f"^budget exhausted: degree {degree} exceeds cap {cap}$"
    with pytest.raises(BudgetExceededError, match=message):
        from_presentation(variables, relations, budget)


def test_truncated_presentations_match_direct_table():
    for n in range(2, 7):
        a = from_presentation(["e"], [f"e^{n}"])
        assert a.dim == n
        for i in range(n):
            for j in range(n):
                expected = [F(0)] * n
                if i + j < n:
                    expected[i + j] = F(1)
                assert list(a.struct_consts[i][j]) == expected


# ---------------------------------------------------------------------------
# local decomposition


def test_component_counts_for_standard_algebras(dual, twonil, q3, dual_x_q, trunc3):
    expected = {id(dual): 1, id(twonil): 1, id(q3): 3, id(dual_x_q): 2, id(trunc3): 1}
    for algebra in (dual, twonil, q3, dual_x_q, trunc3):
        assert len(local_decompose(algebra)) == expected[id(algebra)]
        report = check_assumption_res_field_k(algebra)
        assert report.all_residue_fields_rational
        assert report.is_local == (expected[id(algebra)] == 1)


def _count_checks(monkeypatch):
    import dfields.algebra

    calls = []
    original = dfields.algebra.check_algebra

    def counting(algebra):
        calls.append(algebra)
        return original(algebra)

    monkeypatch.setattr(dfields.algebra, "check_algebra", counting)
    return calls


def test_decomposing_a_presented_algebra_skips_the_axiom_check(monkeypatch):
    calls = _count_checks(monkeypatch)
    algebra = from_presentation(["x", "y"], ["x^2 - 1", "y^2"])
    assert len(local_decompose(algebra)) == 2
    assert calls == []
    # a table is still checked, and an invalid one rejected
    table = FiniteDimAlgebra(algebra.struct_consts, algebra.unit)
    assert len(local_decompose(table)) == 2
    assert calls == [table]
    broken = [[[F(1), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(1), F(0)]]]
    with pytest.raises(AlgebraError, match="cannot decompose an invalid algebra"):
        local_decompose(FiniteDimAlgebra(broken, (1, 0)))
    assert len(calls) == 2


def test_dual_component_data(dual):
    (comp,) = local_decompose(dual)
    assert format_poly(comp.residue_poly) == "x"
    assert comp.residue_dim == 1
    assert len(comp.max_ideal_basis) == 1
    assert comp.max_ideal_basis[0].coords == (0, 1)
    assert dual.pi_index == 0


def test_product_components_and_projections(qxq):
    comps = local_decompose(qxq)
    assert [c.idempotent.coords for c in comps] == [(1, 0), (0, 1)]
    assert qxq.pi_index == 0
    assert residue_projection(qxq, 1) == ((F(0), F(1)),)
    assert apply_residue_projection(qxq, 1, (3, 7)) == (7,)


def test_gaussian_component(gauss):
    comps = local_decompose(gauss)
    assert len(comps) == 1
    assert format_poly(comps[0].residue_poly) == "y^2 + 1" or format_poly(
        comps[0].residue_poly
    ) == "x^2 + 1"
    assert comps[0].residue_dim == 2
    report = check_assumption_res_field_k(gauss)
    assert not report.all_residue_fields_rational
    assert report.residue_degrees == (2,)
    assert gauss.pi_index is None
    # the residue map of a field is an isomorphism
    assert residue_projection(gauss, 0) == ((F(1), F(0)), (F(0), F(1)))


def test_idempotent_partition_of_unity(dual, twonil, q3, dual_x_q, trunc3):
    for algebra in (dual, twonil, q3, dual_x_q, trunc3):
        comps = local_decompose(algebra)
        total = algebra.zero()
        for c in comps:
            assert c.idempotent * c.idempotent == c.idempotent
            total = total + c.idempotent
        assert total == algebra.one()
        for i, a in enumerate(comps):
            for j, b in enumerate(comps):
                if i != j:
                    assert (a.idempotent * b.idempotent).is_zero()
        for i in range(algebra.dim):
            v = _basis_element(algebra, i)
            recombined = algebra.zero()
            for c in comps:
                recombined = recombined + c.idempotent * v
            assert recombined == v


def test_max_ideal_elements_are_nilpotent(dual, twonil, dual_x_q, trunc3):
    for algebra in (dual, twonil, dual_x_q, trunc3):
        for comp in local_decompose(algebra):
            for el in comp.max_ideal_basis:
                assert (el ** algebra.dim).is_zero()


def test_power_of_an_algebra_element_needs_a_nonnegative_int():
    # in Q[e]/(e^2 - 2) the inverse of e is e/2, not 1
    algebra = from_presentation(["e"], ["e^2 - 2"])
    e = algebra.element([Fraction(0), Fraction(1)])
    assert e ** 0 == algebra.one() and e ** 3 == e.scale(2)
    for n in (-1, 1.5):
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            e ** n


def test_component_dimensions_sum(dual, twonil, q3, dual_x_q, trunc3, gauss):
    for algebra in (dual, twonil, q3, dual_x_q, trunc3, gauss):
        comps = local_decompose(algebra)
        assert sum(c.dim for c in comps) == algebra.dim
        for c in comps:
            assert c.dim == c.residue_dim + len(c.max_ideal_basis)


def test_residue_projection_is_multiplicative(dual, q3, dual_x_q, trunc3, gauss):
    for algebra in (dual, q3, dual_x_q, trunc3, gauss):
        for idx, comp in enumerate(local_decompose(algebra)):
            p_coeffs = univariate_coeffs(comp.residue_poly)

            def res_mul(u, v):
                # multiply in Q[x]/(P) by convolution then reduction
                prod = [Fraction(0)] * (2 * comp.residue_dim)
                for i, a in enumerate(u):
                    for j, b in enumerate(v):
                        prod[i + j] += a * b
                for k in range(len(prod) - 1, comp.residue_dim - 1, -1):
                    c = prod[k]
                    if c:
                        for t, pc in enumerate(p_coeffs):
                            prod[k - comp.residue_dim + t] -= c * pc
                        prod[k] = Fraction(0)
                return tuple(prod[: comp.residue_dim])

            for i in range(algebra.dim):
                for j in range(algebra.dim):
                    u = _basis_element(algebra, i)
                    v = _basis_element(algebra, j)
                    lhs = apply_residue_projection(algebra, idx, (u * v).coords)
                    rhs = res_mul(
                        apply_residue_projection(algebra, idx, u.coords),
                        apply_residue_projection(algebra, idx, v.coords),
                    )
                    assert lhs == rhs
            assert apply_residue_projection(algebra, idx, algebra.unit)[0] == 1


def _uni_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _uni_divmod(a, b):
    a = list(a)
    b = _uni_trim(list(b))
    q = [F(0)] * max(0, len(a) - len(b) + 1)
    while _uni_trim(a) and len(a) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, bc in enumerate(b):
            a[i + shift] -= factor * bc
    return _uni_trim(q), a


def _uni_mul(a, b):
    prod = [F(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, ac in enumerate(a):
        for j, bc in enumerate(b):
            prod[i + j] += ac * bc
    return prod


def _uni_sub_mul(x, q, y):
    """x - q*y on coefficient lists."""
    prod = _uni_mul(q, y)
    out = [F(0)] * max(len(x), len(prod))
    for i, c in enumerate(x):
        out[i] += c
    for i, c in enumerate(prod):
        out[i] -= c
    return _uni_trim(out)


def _uni_ext_gcd(a, b):
    """Monic g plus u with u*a = g mod b."""
    r0, r1 = _uni_trim(list(a)), _uni_trim(list(b))
    u0, u1 = [F(1)], []
    while r1:
        q, r = _uni_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _uni_sub_mul(u0, q, u1)
    return [c / r0[-1] for c in r0], [c / r0[-1] for c in u0]


# ---------------------------------------------------------------------------
# Fraction reference for the local decomposition: the routines as they ran
# on Fractions before the int kernels, reading the dense struct_consts


def _ref_mul(algebra, u, v):
    a = algebra.struct_consts
    out = [F(0)] * algebra.dim
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            if x and y:
                for k, c in enumerate(a[i][j]):
                    out[k] += c * x * y
    return out


def _ref_multiplication_matrix(algebra, coords):
    n, a = algebra.dim, algebra.struct_consts
    return [
        [sum((a[i][j][k] * coords[i] for i in range(n)), F(0)) for j in range(n)]
        for k in range(n)
    ]


def _ref_echelon_add(echelon, v, width):
    for pivot, row in echelon:
        f = v[pivot]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    pivot = next((j for j in range(width) if v[j]), None)
    if pivot is not None:
        echelon.append((pivot, [c / v[pivot] for c in v]))
    return v


class _RefQuotient:
    """Coordinates for A/N: e_i represents A/N when it is independent of N
    and of the e's taken before it."""

    def __init__(self, algebra, nil_basis):
        self.algebra = algebra
        n = algebra.dim
        columns = [list(v) for v in nil_basis]
        echelon = []
        for v in columns:
            _ref_echelon_add(echelon, v, n)
        self.rep_indices = []
        for i in range(n):
            e = [F(1) if j == i else F(0) for j in range(n)]
            if any(_ref_echelon_add(echelon, e, n)):
                columns.append(e)
                self.rep_indices.append(i)
        self.dim = len(self.rep_indices)
        self._to_coords = reference_inverse(list(map(list, zip(*columns))))[len(nil_basis):]

    def project(self, coords):
        return reference_mat_vec(self._to_coords, list(coords))

    def lift(self, qcoords):
        coords = [F(0)] * self.algebra.dim
        for c, idx in zip(qcoords, self.rep_indices):
            coords[idx] += c
        return coords

    def mul(self, u, v):
        return self.project(_ref_mul(self.algebra, self.lift(u), self.lift(v)))

    def one(self):
        return self.project(self.algebra.unit)


def _ref_minimal_polynomial(quot, u):
    d = quot.dim
    echelon = []
    powers = []
    power = quot.one()
    for k in range(d + 1):
        tag = [F(0)] * (d + 1)
        tag[k] = F(1)
        rest = _ref_echelon_add(echelon, power + tag, d)
        if not any(rest[:d]):
            return rest[d:d + k + 1], powers, echelon
        powers.append(power)
        power = quot.mul(power, u)
    raise AssertionError("minimal polynomial search exceeded quotient dimension")


def _ref_residue_table(p, d):
    p_coeffs = univariate_coeffs(p, "x")
    r = len(p_coeffs) - 1
    column = [F(1)] + [F(0)] * (r - 1)
    columns = []
    for _ in range(d):
        columns.append(column)
        top = column[-1]
        column = [a - top * b for a, b in zip([F(0)] + column[:-1], p_coeffs)]
    return [list(row) for row in zip(*columns)]


def _ref_primitive_element(algebra):
    """The nilradical basis, the quotient, the projected basis and the
    primitive element with its minimal polynomial, powers and elimination
    rows, found as local_decompose finds them."""
    n, a = algebra.dim, algebra.struct_consts
    trace = [sum(a[i][j][j] for j in range(n)) for i in range(n)]
    trace_form = [
        [sum(a[i][j][k] * trace[k] for k in range(n)) for j in range(n)] for i in range(n)
    ]
    nil_basis = reference_nullspace(trace_form)
    quot = _RefQuotient(algebra, nil_basis)
    projected = [quot.project([F(int(j == i)) for j in range(n)]) for i in range(n)]
    rng = random.Random(20230517)
    randoms = (quot.project([F(rng.randint(-5, 5)) for _ in range(n)]) for _ in range(100))
    for primitive in itertools.chain(projected, randoms):
        minpoly, powers, echelon = _ref_minimal_polynomial(quot, primitive)
        if len(minpoly) - 1 == quot.dim:
            return nil_basis, quot, projected, primitive, minpoly, powers, echelon
    raise AssertionError("no primitive element")


def _ref_lift_idempotent(algebra, e):
    for _ in range(algebra.dim + 2):
        e2 = _ref_mul(algebra, e, e)
        if e2 == e:
            return e
        e = [3 * x - 2 * y for x, y in zip(e2, _ref_mul(algebra, e2, e))]
    raise AssertionError("idempotent lifting did not converge")


def _reference_to_dict(algebra):
    """algebra.to_dict(with_components=True), computed on Fractions."""
    nil_basis, quot, projected, _, minpoly, powers, echelon = _ref_primitive_element(algebra)
    d = quot.dim
    _, factors = factor_univariate(univariate_poly(minpoly, "x"), "x")
    zeros = [F(0)] * (d + 1)
    in_power_basis = list(zip(*(
        _ref_echelon_add(echelon, [-c for c in qc] + zeros, d)[d:2 * d] for qc in projected
    )))
    tables = [_ref_residue_table(p, d) for p, _ in factors]
    crt_inv = reference_inverse([row for table in tables for row in table])
    power_matrix = list(map(list, zip(*powers)))
    comps = []
    offset = 0
    for (p, _), table in zip(factors, tables):
        ebar = reference_mat_vec(power_matrix, [row[offset] for row in crt_inv])
        offset += len(table)
        e = _ref_lift_idempotent(algebra, quot.lift(ebar))
        mult_e = _ref_multiplication_matrix(algebra, e)
        ideal_rows = [reference_mat_vec(mult_e, v) for v in nil_basis]
        reduced, pivots = reference_rref(ideal_rows) if ideal_rows else ([], [])
        residue_dim = p.total_degree()
        comps.append({
            "idempotent": [str(c) for c in e],
            "dim": reference_rank(mult_e),
            "residue_poly": format_poly(p if residue_dim > 1 else MultiPoly.variable("x")),
            "residue_dim": residue_dim,
            "max_ideal_basis": [[str(c) for c in reduced[r]] for r in range(len(pivots))],
            "matrix": reference_mat_mul(table, in_power_basis),
            "key": tuple(e),
        })

    def distinguished(comp):
        first = comp["matrix"][0]
        return comp["residue_dim"] == 1 and first[0] == 1 and not any(first[1:])

    comps.sort(key=lambda c: c["key"], reverse=True)
    comps.sort(key=lambda c: 0 if distinguished(c) else 1)
    return {
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "a": [[[str(c) for c in row] for row in plane] for plane in algebra.struct_consts],
        "b": [str(c) for c in algebra.unit],
        "pi_index": 0 if distinguished(comps[0]) else None,
        "components": [
            {k: v for k, v in c.items() if k not in ("matrix", "key")} for c in comps
        ],
    }


def _euclid_decompose(algebra):
    """The local factors, split by univariate Euclid in the polynomial
    ring of the primitive element: the reference for the CRT inverse of
    local_decompose.  Maps each idempotent to its residue polynomial,
    residue matrix and maximal-ideal basis."""
    n = algebra.dim
    nil_basis, quot, projected, primitive, minpoly, _, _ = _ref_primitive_element(algebra)
    power_basis = [quot.one()]
    for _ in range(quot.dim - 1):
        power_basis.append(quot.mul(power_basis[-1], primitive))
    power_inv = linalg.inverse(list(map(list, zip(*power_basis))))
    in_power_basis = [linalg.mat_vec(power_inv, qc) for qc in projected]

    out = {}
    _, factors = factor_univariate(univariate_poly(minpoly, "x"), "x")
    for p, _ in factors:
        p_coeffs = univariate_coeffs(p, "x")
        q_coeffs, rem = _uni_divmod(minpoly, p_coeffs)
        assert not rem
        g, u_coeffs = _uni_ext_gcd(q_coeffs, p_coeffs)
        assert g == [1]
        _, idem = _uni_divmod(_uni_mul(u_coeffs, q_coeffs), minpoly)
        e = quot.lift(
            [sum(c * u[r] for c, u in zip(idem, power_basis)) for r in range(quot.dim)]
        )
        for _ in range(n + 2):
            e2 = algebra.mul_coords(e, e)
            if e2 == e:
                break
            e = [3 * x - 2 * y for x, y in zip(e2, algebra.mul_coords(e2, e))]
        assert algebra.mul_coords(e, e) == e
        mult_e = _ref_multiplication_matrix(algebra, e)
        ideal_rows = [linalg.mat_vec(mult_e, v) for v in nil_basis]
        reduced, pivots = linalg.rref(ideal_rows) if ideal_rows else ([], [])
        r = p.total_degree()
        rows = [(_uni_divmod(t, p_coeffs)[1] + [F(0)] * r)[:r] for t in in_power_basis]
        out[tuple(e)] = (
            format_poly(p if r > 1 else MultiPoly.variable("x")),
            tuple(tuple(row[k] for row in rows) for k in range(r)),
            tuple(tuple(reduced[i]) for i in range(len(pivots))),
        )
    return out


_IRREDUCIBLE = (
    "{v}", "{v} - 1", "{v} + 2", "{v}^2 + 1", "{v}^2 - 2", "{v}^2 + {v} + 1", "{v}^3 - 2",
)


def _relation(v, max_degree):
    """A product of distinct irreducibles in v with multiplicities 1-2."""
    factors = st.lists(
        st.tuples(st.sampled_from(_IRREDUCIBLE), st.integers(1, 2)),
        min_size=1,
        max_size=3,
        unique_by=lambda pair: pair[0],
    )
    return factors.map(
        lambda fs: "*".join(f"({p.format(v=v)})^{m}" for p, m in fs)
    ).filter(lambda text: parse_polynomial(text).total_degree() <= max_degree)


_SPLIT_ALGEBRAS = st.one_of(
    _relation("y", 6).map(lambda f: from_presentation(["y"], [f])),
    st.tuples(_relation("y", 4), _relation("z", 3)).map(
        lambda fg: from_presentation(["y", "z"], list(fg))
    ),
    st.tuples(_relation("y", 3), _relation("y", 3)).map(
        lambda fg: product_algebra(*(from_presentation(["y"], [f]) for f in fg))
    ),
)


@settings(max_examples=40, deadline=None)
@given(_SPLIT_ALGEBRAS)
def test_crt_split_matches_euclid_reference(algebra):
    comps = local_decompose(algebra)
    assert {
        c.idempotent.coords: (
            format_poly(c.residue_poly),
            c.residue_matrix,
            tuple(el.coords for el in c.max_ideal_basis),
        )
        for c in comps
    } == _euclid_decompose(algebra)
    assert len(comps) == len(set(c.idempotent.coords for c in comps))


def _reference_quotient(ideal):
    """(den, rows, unit, basis names) of Q[x]/I with every product m_i * m_j
    of standard monomials reduced by its own normal form, the rows built as
    in the class docstring of FiniteDimAlgebra."""
    monomials = sorted(
        _standard_monomials(ideal), key=lambda m: (sum(m), tuple(-e for e in m))
    )
    index = {m: i for i, m in enumerate(monomials)}
    n = len(monomials)
    products = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        exp = tuple(a + b for a, b in zip(monomials[i], monomials[j]))
        product = MultiPoly._trusted(ideal.variables, {exp: F(1)})
        products[i, j] = ideal.normal_form(product).terms
    den = math.lcm(*(c.denominator for terms in products.values() for c in terms.values()))
    rows = [[None] * n for _ in range(n)]
    for (i, j), terms in products.items():
        rows[i][j] = rows[j][i] = tuple(sorted(
            (index[e], c.numerator * (den // c.denominator)) for e, c in terms.items()
        ))
    names = tuple("*".join(
        v if e == 1 else f"{v}^{e}" for v, e in zip(ideal.variables, m) if e
    ) or "1" for m in monomials)
    return den, rows, (F(1),) + (F(0),) * (n - 1), names


# nonzero rationals for the coefficients of non-monic relations
_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)

_PRESENTATIONS = st.one_of(
    # univariate products of irreducibles with multiplicities, as the split
    # shapes of the benchmark's algebra ladder
    _relation("y", 6).map(lambda f: (("y",), [f])),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda ab: (("e", "f"), [f"e^{ab[0]}", f"f^{ab[1]}"])
    ),
    # mixed systems shaped like ((x^2-2)(x-1)^2, y(y^2-3)^2, (z^2-x)^2 z^2)
    st.tuples(_relation("x", 2), _relation("y", 3), st.integers(0, 1)).map(
        lambda fgk: (("x", "y", "z"), [fgk[0], fgk[1], f"(z^2 - x)*z^{fgk[2]}"])
    ),
    # non-monic relations with rational coefficients, whose border normal
    # forms carry denominators
    st.tuples(_COEFFS, _COEFFS, _COEFFS).map(
        lambda c: (("y",), [f"{c[0]}*y^3 + {c[1]}*y + {c[2]}"])
    ),
    st.lists(_COEFFS, min_size=5, max_size=5).map(
        lambda c: (("x", "y"), [f"{c[0]}*x^2 + {c[1]}*y + {c[2]}", f"{c[3]}*y^2 + {c[4]}*x*y"])
    ),
    st.lists(_COEFFS, min_size=6, max_size=6).map(
        lambda c: (
            ("x", "y", "z"),
            [f"{c[0]}*x^2 + {c[1]}*y", f"{c[2]}*y^2 + {c[3]}*z", f"{c[4]}*z^2 + {c[5]}*x - 1/3"],
        )
    ),
)


@settings(max_examples=80, deadline=None)
@given(_PRESENTATIONS)
def test_quotient_matches_per_product_reference(presentation):
    variables, relations = presentation
    ideal = Ideal(variables, relations)
    algebra, _ = _quotient_algebra(ideal)
    assert (algebra._den, algebra._rows, algebra.unit, algebra.basis_names) == (
        _reference_quotient(ideal)
    )


_FACTORS = (
    rational_field_algebra(),
    from_presentation(["e"], ["e^2"]),
    from_presentation(["e"], ["e^3"]),
    from_presentation(["y"], ["y^2 + 1"]),
    from_presentation(["y"], ["y^2 - 2/3"]),
    from_presentation(["y"], ["(y - 1/2)^2"]),
)


def _transpose(m):
    return list(map(list, zip(*m)))


def _change_of_basis(algebra, t):
    """The same algebra as a table on the basis f_i = sum_j t[i][j] e_j."""
    n, a = algebra.dim, algebra.struct_consts
    to_f = _transpose(reference_inverse(t))
    table = []
    for i in range(n):
        plane = []
        for j in range(n):
            prod = [F(0)] * n
            for p, x in enumerate(t[i]):
                for q, y in enumerate(t[j]):
                    if x and y:
                        prod = [s + x * y * c for s, c in zip(prod, a[p][q])]
            plane.append(reference_mat_vec(to_f, prod))
        table.append(plane)
    return FiniteDimAlgebra(table, reference_mat_vec(to_f, list(algebra.unit)))


@st.composite
def _products_in_a_random_basis(draw):
    """A product of small local algebras, as a table in a basis L U with L
    unit lower triangular and U upper triangular, both invertible."""
    algebra = product_algebra(*draw(st.lists(st.sampled_from(_FACTORS), min_size=2, max_size=3)))
    n = algebra.dim
    small = st.integers(-1, 1).map(F)
    diagonal = st.sampled_from((F(1), F(-1), F(2), Fraction(1, 2)))
    lower = [[draw(small) if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [
        [draw(small) if j > i else (draw(diagonal) if i == j else F(0)) for j in range(n)]
        for i in range(n)
    ]
    return _change_of_basis(algebra, reference_mat_mul(lower, upper))


_DECOMPOSED_ALGEBRAS = st.one_of(
    st.integers(1, 8).map(lambda k: from_presentation(["e"], [f"e^{k}"])),
    _relation("y", 6).map(lambda f: from_presentation(["y"], [f])),
    _products_in_a_random_basis(),
    # presentations of dimension 12 at most, with nilpotents and residue
    # fields of degree 2 and 3, in the shapes of _PRESENTATIONS
    st.tuples(_relation("x", 3), _relation("y", 4)).map(
        lambda fg: from_presentation(["x", "y"], list(fg))
    ),
    st.tuples(_relation("x", 2), _relation("y", 2), st.integers(0, 1)).map(
        lambda fgk: from_presentation(["x", "y", "z"], [fgk[0], fgk[1], f"(z^2 - x)*z^{fgk[2]}"])
    ),
    # tables of 3 to 5 factors in the standard idempotent basis: no basis
    # element is primitive, and a seeded random candidate is chosen
    st.lists(st.sampled_from(_FACTORS), min_size=3, max_size=5).map(
        lambda factors: product_algebra(*factors)
    ),
)


@settings(max_examples=100, deadline=None)
@given(_DECOMPOSED_ALGEBRAS)
def test_decomposition_matches_fraction_reference(algebra):
    assert algebra.to_dict(with_components=True) == _reference_to_dict(algebra)


@pytest.mark.parametrize("d", [10, 12])
def test_split_algebra_with_many_rational_factors_decomposes(d):
    # a primitive element of Q^d needs d distinct coordinates, more than
    # [-5, 5] holds from d = 12 on (and rarely drawn at d = 10); the later
    # random candidates draw from a range that grows with d
    table = product_algebra(*[rational_field_algebra()] * d)
    comps = local_decompose(table)
    assert [(c.dim, c.residue_dim) for c in comps] == [(1, 1)] * d
    units = [tuple(F(int(i == j)) for j in range(d)) for i in range(d)]
    assert sorted(c.idempotent.coords for c in comps) == sorted(units)


def test_pi_is_coordinate_zero_for_adapted_algebras(dual, q3, dual_x_q):
    for algebra in (dual, q3, dual_x_q):
        assert algebra.is_pi_adapted()
        assert residue_projection(algebra, algebra.pi_index) == (
            (F(1),) + (F(0),) * (algebra.dim - 1),
        )


def test_serialisation_round_trip(dual_x_q):
    data = dual_x_q.to_dict(with_components=True)
    rebuilt = FiniteDimAlgebra.from_dict(data)
    assert rebuilt.struct_consts == dual_x_q.struct_consts
    assert rebuilt.unit == dual_x_q.unit
    assert data["pi_index"] == 0
    assert len(data["components"]) == 2


def test_product_algebra_shortcut():
    q = rational_field_algebra()
    cube = product_algebra(q, q, q)
    assert cube.dim == 3
    assert check_algebra(cube).is_valid
    assert cube.unit == (1, 1, 1)
