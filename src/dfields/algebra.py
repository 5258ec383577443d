"""Finite-dimensional commutative Q-algebras given by structure constants.

An algebra is a rank-3 tensor a[i][j][k] with e_i * e_j = sum_k a[i][j][k] e_k
plus the coordinates of 1.  The module checks the algebra axioms, builds
algebras from presentations Q[y1,..]/(relations), decomposes into local
factors (trace-form nilradical, primitive-element splitting, idempotent
lifting), and exposes the residue projections of the factors.  The axiom
check and the trace form run over the nonzero structure constants only.
The splitting is linear algebra: the elimination that finds the minimal
polynomial m of the primitive element also gives every basis element's
coordinates in its power basis, the residue map onto Q[x]/(p) for each
factor p of m is the table of x^k mod p, and one inverse of the stacked
tables (the Chinese-remainder isomorphism) gives every idempotent.

It is also the package's one zero-dimensional engine: for a
zero-dimensional ideal I, Q[x]/I is such an algebra, its local factors
are the Q-irreducible components of V(I), and the factors of residue
degree 1 are its rational points (:func:`solve_zero_dim`;
``poly.decide_irreducibility`` counts the factors).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .poly import (
    GREVLEX,
    BudgetExceededError,
    Ideal,
    MultiPoly,
    _exp_divides,
    factor_univariate,
    format_poly,
    univariate_coeffs,
    univariate_poly,
)


class AlgebraError(Exception):
    """Structural problem with an algebra or a presentation."""


class FiniteDimAlgebra:
    """A commutative unital Q-algebra of finite dimension.

    ``struct_consts[i][j][k]`` is the e_k coordinate of e_i * e_j and
    ``unit`` holds the coordinates of 1.  The local decomposition is
    computed lazily and cached; ``pi_index`` names the local component
    whose residue projection is the distinguished coordinate-0 map,
    when such a component exists.
    """

    def __init__(self, struct_consts, unit, basis_names=None):
        # Fractions are kept as given: rebuilding all n^3 of them dominated
        # from_presentation on large quotients
        a = [
            [[c if type(c) is Fraction else Fraction(c) for c in row] for row in plane]
            for plane in struct_consts
        ]
        n = len(a)
        if n == 0:
            raise AlgebraError("algebra dimension must be positive")
        for plane in a:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise AlgebraError("structure constants are not an n x n x n tensor")
        b = [c if type(c) is Fraction else Fraction(c) for c in unit]
        if len(b) != n:
            raise AlgebraError("unit vector length does not match dimension")
        if basis_names is None:
            basis_names = tuple(f"e{i}" for i in range(n))
        if len(basis_names) != n:
            raise AlgebraError("basis name count does not match dimension")
        self.dim = n
        self.struct_consts = tuple(tuple(tuple(row) for row in plane) for plane in a)
        self.unit = tuple(b)
        self.basis_names = tuple(basis_names)
        self.presentation = None
        self._components = None
        self._int_constants = None
        self._nonzero = tuple(
            (i, j, k, a[i][j][k])
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if a[i][j][k] != 0
        )
        # _rows[i][j]: the pairs (k, a[i][j][k]) of the nonzero constants
        self._rows = [[[] for _ in range(n)] for _ in range(n)]
        for i, j, k, c in self._nonzero:
            self._rows[i][j].append((k, c))

    @property
    def int_constants(self):
        """The nonzero structure constants on ints: (den, entries) with den
        their common denominator and entries the tuples (i, j, k,
        den * a[i][j][k]).  Built on first use and kept."""
        if self._int_constants is None:
            den = math.lcm(*(c.denominator for *_, c in self._nonzero))
            self._int_constants = (
                den,
                tuple(
                    (i, j, k, c.numerator * (den // c.denominator))
                    for i, j, k, c in self._nonzero
                ),
            )
        return self._int_constants

    # -- elements -----------------------------------------------------------

    def element(self, coords):
        return AlgebraElement(self, coords)

    def basis_element(self, i):
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return AlgebraElement(self, coords)

    def one(self):
        return AlgebraElement(self, self.unit)

    def zero(self):
        return AlgebraElement(self, [Fraction(0)] * self.dim)

    def mul_coords(self, u, v):
        out = [Fraction(0)] * self.dim
        v_support = [(j, y) for j, y in enumerate(v) if y]
        for i, x in enumerate(u):
            if x:
                row = self._rows[i]
                for j, y in v_support:
                    xy = x * y
                    for k, c in row[j]:
                        out[k] += c * xy
        return out

    def multiplication_matrix(self, coords):
        """Matrix of multiplication by the given element."""
        n = self.dim
        m = [[Fraction(0)] * n for _ in range(n)]
        for i, j, k, c in self._nonzero:
            if coords[i]:
                m[k][j] += c * coords[i]
        return m

    # -- axioms -------------------------------------------------------------

    def is_pi_adapted(self):
        """Whether extracting coordinate 0 is an algebra map onto Q, i.e.
        the basis is adapted to a distinguished projection."""
        n = self.dim
        if self.unit[0] != 1:
            return False
        for i in range(n):
            for j in range(n):
                expected = Fraction(1) if (i == 0 and j == 0) else Fraction(0)
                if self.struct_consts[i][j][0] != expected:
                    return False
        return True

    # -- decomposition (lazy) -------------------------------------------------

    @property
    def components(self):
        if self._components is None:
            self._components = _decompose(self)
        return self._components

    @property
    def pi_index(self):
        # the decomposition puts the distinguished component first
        return 0 if _is_distinguished(self.components[0]) else None

    def is_local(self):
        return len(self.components) == 1

    # -- serialisation ---------------------------------------------------------

    def to_dict(self, with_components=False):
        data = {
            "dim": self.dim,
            "basis": list(self.basis_names),
            "a": [
                [[str(c) for c in row] for row in plane]
                for plane in self.struct_consts
            ],
            "b": [str(c) for c in self.unit],
        }
        if with_components:
            data["pi_index"] = self.pi_index
            data["components"] = [
                {
                    "idempotent": [str(c) for c in comp.idempotent.coords],
                    "dim": comp.dim,
                    "residue_poly": format_poly(comp.residue_poly),
                    "residue_dim": comp.residue_dim,
                    "max_ideal_basis": [
                        [str(c) for c in el.coords] for el in comp.max_ideal_basis
                    ],
                }
                for comp in self.components
            ]
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(
            [[[Fraction(c) for c in row] for row in plane] for plane in data["a"]],
            [Fraction(c) for c in data["b"]],
            data.get("basis"),
        )

    def __repr__(self):
        return f"FiniteDimAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


class AlgebraElement:
    """An element of a FiniteDimAlgebra, stored by coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != algebra.dim:
            raise AlgebraError("coordinate length does not match algebra dimension")
        self.algebra = algebra
        self.coords = coords

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return AlgebraElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, n):
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c):
        c = Fraction(c)
        return AlgebraElement(self.algebra, [c * x for x in self.coords])

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_idempotent(self):
        return (self * self).coords == self.coords

    def is_nilpotent(self):
        power = self
        for _ in range(self.algebra.dim):
            if power.is_zero():
                return True
            power = power * self
        return power.is_zero()

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise AlgebraError("elements of different algebras")

    def __repr__(self):
        return f"AlgebraElement({[str(c) for c in self.coords]})"


@dataclass(frozen=True)
class LocalComponent:
    """One local factor of the decomposition, with its residue data."""

    idempotent: AlgebraElement
    dim: int
    max_ideal_basis: tuple
    residue_poly: MultiPoly
    residue_dim: int
    residue_matrix: tuple  # rows: coordinates in Q[x]/(P), columns: algebra basis


@dataclass(frozen=True)
class AxiomViolation:
    kind: str  # "commutativity" | "associativity" | "unit"
    indices: tuple

    def describe(self):
        return f"{self.kind} fails at indices {self.indices}"


@dataclass(frozen=True)
class AlgebraReport:
    violations: tuple

    @property
    def is_valid(self):
        return not self.violations

    def describe(self):
        if self.is_valid:
            return "valid commutative unital algebra"
        return "; ".join(v.describe() for v in self.violations)


def check_algebra(algebra):
    """Check commutativity, associativity, and the unit law exactly;
    every violated identity is reported with witness indices.

    The sums run over the nonzero structure constants only; violations
    come out in the order of a plain loop over all index tuples."""
    n = algebra.dim
    a = algebra.struct_consts
    nonzero = algebra._nonzero
    # rows[i][j]: pairs (k, den * a[i][j][k]) with den the common
    # denominator, so that the associativity sums run on integers
    rows = [[[] for _ in range(n)] for _ in range(n)]
    for i, j, k, c in algebra.int_constants[1]:
        rows[i][j].append((k, c))
    violations = [
        AxiomViolation("commutativity", idx)
        for idx in sorted(
            {(min(i, j), max(i, j), k) for i, j, k, c in nonzero if a[j][i][k] != c}
        )
    ]
    # (e_i e_j) e_k - e_i (e_j e_k), coordinate by coordinate
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            ij = row_i[j]
            row_j = rows[j]
            for k in range(n):
                jk = row_j[k]
                if not ij and not jk:
                    continue
                diff = [0] * n
                for t, c in ij:
                    for m, d in rows[t][k]:
                        diff[m] += c * d
                for t, c in jk:
                    for m, d in row_i[t]:
                        diff[m] -= c * d
                if any(diff):
                    violations.extend(
                        AxiomViolation("associativity", (i, j, k, m))
                        for m in range(n)
                        if diff[m]
                    )
    b = algebra.unit
    totals = [[Fraction(0)] * n for _ in range(n)]
    for i, j, k, c in nonzero:
        if b[i]:
            totals[j][k] += b[i] * c
    for j in range(n):
        for k in range(n):
            if totals[j][k] != (1 if j == k else 0):
                violations.append(AxiomViolation("unit", (j, k)))
    return AlgebraReport(tuple(violations))


def mul(algebra, u, v):
    """Product of two elements; accepts AlgebraElement or raw coordinates."""
    if not isinstance(u, AlgebraElement):
        u = algebra.element(u)
    if not isinstance(v, AlgebraElement):
        v = algebra.element(v)
    return u * v


# ---------------------------------------------------------------------------
# presentations


def _monomial_name(variables, exp):
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exp) if e]
    return "*".join(parts) if parts else "1"


def _standard_monomials(ideal):
    basis = ideal.groebner_basis()
    lms = [g.leading_exponent(GREVLEX) for g in basis]
    n = len(ideal.variables)
    found = []
    seen = set()
    queue = [(0,) * n]
    while queue:
        exp = queue.pop(0)
        if exp in seen:
            continue
        seen.add(exp)
        if any(_exp_divides(lm, exp) for lm in lms):
            continue
        found.append(exp)
        if len(found) > 10000:
            raise BudgetExceededError("budget exhausted: quotient dimension too large")
        for i in range(n):
            bumped = list(exp)
            bumped[i] += 1
            queue.append(tuple(bumped))
    found.sort(key=GREVLEX.key)
    return found


def from_presentation(generators, relations):
    """Build the algebra Q[generators]/(relations).

    The quotient must be finite-dimensional; the basis is the set of
    standard monomials of a Groebner basis of the relations, and the
    multiplication table comes from normal-form reduction of products.
    """
    return _quotient_algebra(Ideal(tuple(generators), relations))[0]


def _quotient_algebra(ideal):
    """The algebra Q[x]/I of a zero-dimensional ideal, and the map from a
    polynomial in normal form to its coordinates.

    The basis is the set of standard monomials of the ideal's cached
    grevlex basis, 1 first, then by degree with earlier variables first.
    Products are reduced under the ideal's budget one variable at a time:
    with m_i = x_v * m_p for an earlier basis monomial m_p,
    NF(m_i * m_j) = NF(x_v * NF(m_p * m_j)), so no product exceeds the
    largest standard degree by more than one.
    """
    variables = ideal.variables
    if ideal.is_trivial():
        raise AlgebraError("presentation collapses to the zero ring")
    lms = [g.leading_exponent(GREVLEX) for g in ideal.groebner_basis()]
    for idx, v in enumerate(variables):
        has_pure_power = any(
            lm[idx] > 0 and all(e == 0 for p, e in enumerate(lm) if p != idx)
            for lm in lms
        )
        if not has_pure_power:
            raise AlgebraError(
                f"infinite-dimensional quotient: variable {v!r} is unbounded"
            )
    monomials = _standard_monomials(ideal)
    monomials.sort(key=lambda m: (sum(m), tuple(-e for e in m)))
    index = {m: i for i, m in enumerate(monomials)}
    n = len(monomials)

    def coords_of(p):
        vec = [Fraction(0)] * n
        for exp, c in p.terms.items():
            if exp not in index:
                raise AlgebraError("normal form left the standard-monomial span")
            vec[index[exp]] += c
        return vec

    x = [MultiPoly.variable(v, variables) for v in variables]
    # products[i][j - i] = NF(m_i * m_j) for j >= i
    products = [[MultiPoly._trusted(variables, {m: Fraction(1)}) for m in monomials]]
    for i in range(1, n):
        m = monomials[i]
        v = next(idx for idx, e in enumerate(m) if e)
        p = index[m[:v] + (m[v] - 1,) + m[v + 1:]]
        products.append(
            [ideal.normal_form(x[v] * products[p][j - p]) for j in range(i, n)]
        )
    struct = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            struct[i][j] = struct[j][i] = coords_of(products[i][j - i])
    names = tuple(_monomial_name(variables, m) for m in monomials)
    algebra = FiniteDimAlgebra(struct, coords_of(products[0][0]), names)
    algebra.presentation = (variables, ideal.generators)
    return algebra, coords_of


def product_algebra(*factors):
    """Direct product of algebras, on the concatenation of their bases."""
    if not factors:
        raise AlgebraError("product of no algebras")
    n = sum(f.dim for f in factors)
    struct = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    unit = [Fraction(0)] * n
    offset = 0
    for f in factors:
        for i in range(f.dim):
            unit[offset + i] = f.unit[i]
            for j in range(f.dim):
                for k in range(f.dim):
                    struct[offset + i][offset + j][offset + k] = f.struct_consts[i][j][k]
        offset += f.dim
    return FiniteDimAlgebra(struct, unit)


def rational_field_algebra():
    """Q itself as a one-dimensional algebra."""
    return FiniteDimAlgebra([[[Fraction(1)]]], [Fraction(1)], ("1",))


# ---------------------------------------------------------------------------
# local decomposition


def _echelon_add(echelon, v, width):
    """Reduce v by the rows of ``echelon`` (pairs (pivot, row) with entry 1
    at the pivot, each row zero at the pivots of the rows before it).  A
    remainder nonzero in its first ``width`` entries joins as a new row.
    Returns the remainder."""
    for pivot, row in echelon:
        f = v[pivot]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    pivot = next((j for j in range(width) if v[j]), None)
    if pivot is not None:
        echelon.append((pivot, [c / v[pivot] for c in v]))
    return v


class _Quotient:
    """Coordinates for A/N given a basis of the ideal N."""

    def __init__(self, algebra, nil_basis):
        self.algebra = algebra
        self.nil_basis = nil_basis
        n = algebra.dim
        columns = [list(v) for v in nil_basis]
        # e_i represents A/N when it is independent of N and of the e's
        # taken before it
        echelon = []
        for v in columns:
            _echelon_add(echelon, v, n)
        self.rep_indices = []
        for i in range(n):
            e = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
            if any(_echelon_add(echelon, e, n)):
                columns.append(e)
                self.rep_indices.append(i)
        self.dim = len(self.rep_indices)
        to_coords = linalg.inverse(list(map(list, zip(*columns))))
        if to_coords is None:
            raise AlgebraError("nilradical basis is degenerate")
        self._to_coords = to_coords[len(nil_basis):]

    def project(self, coords):
        return linalg.mat_vec(self._to_coords, list(coords))

    def lift(self, qcoords):
        coords = [Fraction(0)] * self.algebra.dim
        for c, idx in zip(qcoords, self.rep_indices):
            coords[idx] += c
        return coords

    def mul(self, u, v):
        return self.project(self.algebra.mul_coords(self.lift(u), self.lift(v)))

    def one(self):
        return self.project(self.algebra.unit)


def _minimal_polynomial_in_quotient(quot, u):
    """Monic minimal polynomial of u in A/N, low degree first: the first
    linear dependence among 1, u, u^2, ..., found by eliminating rows
    (u^k, e_k) that carry their combination of the powers along.

    Also returns the powers 1, u, ... below the degree and the elimination
    rows; each row is (v, t) with v = sum_k t_k u^k."""
    d = quot.dim
    echelon = []
    powers = []
    power = quot.one()
    for k in range(d + 1):
        tag = [Fraction(0)] * (d + 1)
        tag[k] = Fraction(1)
        rest = _echelon_add(echelon, power + tag, d)
        if not any(rest[:d]):
            return rest[d:d + k + 1], powers, echelon
        powers.append(power)
        power = quot.mul(power, u)
    raise AlgebraError("minimal polynomial search exceeded quotient dimension")


def _residue_table(p, d):
    """The columns x^k mod p for k < d, as a matrix: the residue map of
    Q[x]/(m) onto Q[x]/(p) on power bases, for any multiple m of p of
    degree d."""
    p_coeffs = univariate_coeffs(p, "x")
    r = len(p_coeffs) - 1
    column = [Fraction(1)] + [Fraction(0)] * (r - 1)
    columns = []
    for _ in range(d):
        columns.append(column)
        # x * column, less its top coefficient times the monic p
        top = column[-1]
        column = [a - top * b for a, b in zip([Fraction(0)] + column[:-1], p_coeffs)]
    return [list(row) for row in zip(*columns)]


def _decompose(algebra):
    n = algebra.dim
    # a presented algebra is Q[x]/I, valid by construction; a table is checked
    if algebra.presentation is None:
        report = check_algebra(algebra)
        if not report.is_valid:
            raise AlgebraError(f"cannot decompose an invalid algebra: {report.describe()}")

    # nilradical: kernel of the trace form (characteristic 0), with
    # Tr(e_i e_j) = sum_k a[i][j][k] Tr(e_k) and Tr(e_i) = sum_j a[i][j][j]
    trace = [Fraction(0)] * n
    for i, j, k, c in algebra._nonzero:
        if j == k:
            trace[i] += c
    trace_form = [[Fraction(0)] * n for _ in range(n)]
    for i, j, k, c in algebra._nonzero:
        trace_form[i][j] += c * trace[k]
    nil_basis = linalg.nullspace(trace_form)
    quot = _Quotient(algebra, nil_basis)
    projected = [quot.project(algebra.basis_element(i).coords) for i in range(n)]

    # primitive element for the semisimple quotient: every basis element,
    # then up to 100 seeded random elements
    rng = random.Random(20230517)
    randoms = (
        quot.project([Fraction(rng.randint(-5, 5)) for _ in range(n)]) for _ in range(100)
    )
    d = quot.dim
    for primitive in itertools.chain(projected, randoms):
        minpoly, powers, echelon = _minimal_polynomial_in_quotient(quot, primitive)
        if len(minpoly) - 1 == d:
            break
    else:
        raise AlgebraError(
            "no primitive element found for the semisimple quotient after 100 random attempts"
        )

    _, factors = factor_univariate(univariate_poly(minpoly, "x"), "x")
    if any(mult_ != 1 for _, mult_ in factors):
        raise AlgebraError("semisimple quotient has a repeated factor; trace form is wrong")

    # column i: e_i as a polynomial in the primitive element; reducing
    # (-q, 0) through the elimination rows leaves (0, t), q = sum_k t_k u^k
    zeros = [Fraction(0)] * (d + 1)
    in_power_basis = list(zip(*(
        _echelon_add(echelon, [-c for c in qc] + zeros, d)[d:2 * d] for qc in projected
    )))
    # Q[x]/(minpoly) is the product of the Q[x]/(p) (CRT); the preimage of
    # the unit of one factor is its idempotent
    tables = [_residue_table(p, d) for p, _ in factors]
    crt_inv = linalg.inverse([row for table in tables for row in table])
    power_matrix = list(map(list, zip(*powers)))

    # CRT idempotents in the quotient, then unique lifts through the nilradical
    components = []
    offset = 0
    for (p, _), table in zip(factors, tables):
        ebar = linalg.mat_vec(power_matrix, [row[offset] for row in crt_inv])
        offset += len(table)

        e = quot.lift(ebar)
        for _ in range(algebra.dim + 2):
            e2 = algebra.mul_coords(e, e)
            if e2 == e:
                break
            e3 = algebra.mul_coords(e2, e)
            e = [3 * a - 2 * b for a, b in zip(e2, e3)]
        else:
            raise AlgebraError("idempotent lifting did not converge")

        # component data
        mult_e = algebra.multiplication_matrix(e)
        comp_dim = linalg.rank(mult_e)
        ideal_rows = [linalg.mat_vec(mult_e, v) for v in nil_basis]
        reduced, pivots = linalg.rref(ideal_rows) if ideal_rows else ([], [])
        max_ideal = tuple(
            AlgebraElement(algebra, reduced[r]) for r in range(len(pivots))
        )

        residue_dim = p.total_degree()
        matrix = tuple(map(tuple, linalg.mat_mul(table, in_power_basis)))

        residue_poly = p
        if residue_dim == 1:
            residue_poly = MultiPoly.variable("x")
        components.append(
            LocalComponent(
                idempotent=AlgebraElement(algebra, e),
                dim=comp_dim,
                max_ideal_basis=max_ideal,
                residue_poly=residue_poly,
                residue_dim=residue_dim,
                residue_matrix=matrix,
            )
        )

    # distinguished component first, remainder by descending idempotent coords
    components.sort(key=lambda c: tuple(c.idempotent.coords), reverse=True)
    components.sort(key=lambda c: 0 if _is_distinguished(c) else 1)

    if sum(c.dim for c in components) != n:
        raise AlgebraError("component dimensions do not sum to the algebra dimension")
    return tuple(components)


def _is_distinguished(comp):
    """Whether the component's residue projection is coordinate 0 onto Q."""
    first = comp.residue_matrix[0]
    return comp.residue_dim == 1 and first[0] == 1 and not any(first[1:])


def local_decompose(algebra):
    """The local factors of the algebra, distinguished component first."""
    return algebra.components


@dataclass(frozen=True)
class ResidueFieldReport:
    all_residue_fields_rational: bool
    residue_degrees: tuple
    is_local: bool


def check_assumption_res_field_k(algebra):
    """Do all local factors have residue field Q?  Also reports whether the
    algebra is local (the single-factor case)."""
    comps = algebra.components
    degrees = tuple(c.residue_dim for c in comps)
    return ResidueFieldReport(
        all_residue_fields_rational=all(d == 1 for d in degrees),
        residue_degrees=degrees,
        is_local=len(comps) == 1,
    )


def residue_projection(algebra, i):
    """Matrix of the residue projection of component i, rows indexed by the
    power basis of Q[x]/(P_i), columns by the algebra basis."""
    comps = algebra.components
    if not 0 <= i < len(comps):
        raise AlgebraError(f"component index {i} out of range")
    return comps[i].residue_matrix


def apply_residue_projection(algebra, i, coords):
    """Image of an element under the residue projection, as coefficients in
    the power basis of Q[x]/(P_i)."""
    matrix = residue_projection(algebra, i)
    return tuple(
        sum((row[j] * Fraction(coords[j]) for j in range(algebra.dim)), Fraction(0))
        for row in matrix
    )


# ---------------------------------------------------------------------------
# zero-dimensional solving


@dataclass(frozen=True)
class SolveResult:
    points: tuple
    has_nonrational: bool


def solve_zero_dim(ideal):
    """All rational points of a zero-dimensional variety.

    The local components of Q[x]/I are the Q-irreducible components of
    V(I).  A component of residue degree 1 is a rational point, whose
    coordinates are the residue projections of the variables' normal
    forms; ``has_nonrational`` is true exactly when some component has a
    larger residue degree, that is, when V(I) has a non-rational point.
    """
    if ideal.is_trivial():
        return SolveResult((), False)
    if ideal.krull_dimension() != 0:
        raise ValueError("ideal is not zero-dimensional")
    algebra, coords_of = _quotient_algebra(ideal)
    values = [
        coords_of(ideal.normal_form(MultiPoly.variable(v, ideal.variables)))
        for v in ideal.variables
    ]
    points = [
        tuple(apply_residue_projection(algebra, i, vec)[0] for vec in values)
        for i, comp in enumerate(algebra.components)
        if comp.residue_dim == 1
    ]
    return SolveResult(
        tuple(sorted(points)), any(c.residue_dim > 1 for c in algebra.components)
    )
