"""Finite-dimensional commutative Q-algebras given by structure constants.

An algebra is a rank-3 tensor a[i][j][k] with e_i * e_j = sum_k a[i][j][k] e_k
plus the coordinates of 1.  The module checks the algebra axioms, builds
algebras from presentations Q[y1,..]/(relations), decomposes into local
factors (trace-form nilradical, primitive-element splitting, idempotent
lifting), and exposes the residue projections of the factors.  The axiom
check and the trace form run over the nonzero structure constants only.
The splitting runs in the smallest space that holds each answer.  A/N,
for N the kernel of the trace form, multiplies by its own d-dimensional
table.  Its primitive element u is the first candidate whose minimal
polynomial m has degree d: the basis elements e_0, .., e_{n-1} of A, then
seeded random elements of A, 100 with coefficients in [-5, 5] and 100 in
[-d^2, d^2]; for d > 1 a multiple of 1 in A/N is skipped.  The elimination
that finds m also gives the unit vectors of A/N in the power basis of u.
m is factored on its int coefficients, the residue map onto Q[x]/(p) for
each factor p is the table of x^k mod p, and one inverse of the stacked
tables (Chinese remaindering) gives the idempotents of A/N.  Each lifts to
A as a polynomial in itself, the last as 1 less the others, and the
products e v (v in N), until dim e N of them are independent, give the
maximal ideal e N.

All of it runs on ints: the structure constants are int rows over one
denominator (see :class:`FiniteDimAlgebra`), every vector of the
decomposition is exact (``linalg.exact``), every elimination is
``linalg.int_rref`` on a matrix or ``linalg.echelon_add`` one vector at a
time, and the components receive Fractions once, when they are built.

It is also the package's one zero-dimensional engine: for a
zero-dimensional ideal I, Q[x]/I is such an algebra, its local factors
are the Q-irreducible components of V(I), and the factors of residue
degree 1 are its rational points (:func:`solve_zero_dim`;
``poly.decide_irreducibility`` counts the factors).  :func:`rational_points`
is the one point search on a variety: all rational points of a finite one,
a grid sample of a positive-dimensional one.  :meth:`LocalComponent.residue`
is the one place where a residue row is combined with coordinates; the
projections of a prolongation, the associated homomorphisms, localisation
and :func:`solve_zero_dim` all go through it.
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
    _factor_ints,
    format_poly,
    linear_combination,
)


_ZERO, _ONE = Fraction(0), Fraction(1)


class AlgebraError(Exception):
    """Structural problem with an algebra or a presentation."""


class FiniteDimAlgebra:
    """A commutative unital Q-algebra of finite dimension.

    The structure constants a[i][j][k] (e_i * e_j = sum_k a[i][j][k] e_k)
    are stored once, sparse and on ints: ``_den`` is the common
    denominator of the nonzero constants and ``_rows[i][j]`` holds the
    pairs (k, _den * a[i][j][k]) of the nonzero ones, by increasing k.
    Products, the axiom check, the trace form and the local decomposition
    all run on these rows.  Fractions appear only at the edge: ``unit``
    holds the coordinates of 1, element coordinates are Fractions, and the
    dense tensor ``struct_consts`` is built on first read (a given table
    is kept as given).  The local decomposition is computed lazily and
    cached; ``pi_index`` names the local component whose residue
    projection is the distinguished coordinate-0 map, when such a
    component exists.
    """

    def __init__(self, struct_consts, unit, basis_names=None):
        # given Fractions are kept, and the given table is struct_consts
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
        nonzero = [[[(k, c) for k, c in enumerate(row) if c] for row in plane] for plane in a]
        den = math.lcm(*(c.denominator for plane in nonzero for row in plane for _, c in row))
        rows = [
            [tuple((k, c.numerator * (den // c.denominator)) for k, c in row) for row in plane]
            for plane in nonzero
        ]
        self._setup(den, rows, unit, basis_names)
        self._struct_consts = tuple(tuple(tuple(row) for row in plane) for plane in a)

    @classmethod
    def _from_rows(cls, den, rows, unit, basis_names=None):
        """The algebra with the given int rows (see the class docstring)."""
        algebra = cls.__new__(cls)
        algebra._setup(den, rows, unit, basis_names)
        return algebra

    def _setup(self, den, rows, unit, basis_names):
        n = len(rows)
        b = [c if type(c) is Fraction else Fraction(c) for c in unit]
        if len(b) != n:
            raise AlgebraError("unit vector length does not match dimension")
        if basis_names is None:
            basis_names = tuple(f"e{i}" for i in range(n))
        if len(basis_names) != n:
            raise AlgebraError("basis name count does not match dimension")
        self.dim = n
        self._den = den
        self._rows = rows
        self.unit = tuple(b)
        self.basis_names = tuple(basis_names)
        self.presentation = None
        self._struct_consts = None
        self._components = None
        self._int_constants = None
        self._report = None

    @property
    def struct_consts(self):
        """The dense tensor a[i][j][k] of Fractions, built on first read."""
        if self._struct_consts is None:
            n, den = self.dim, self._den
            planes = []
            for plane in self._rows:
                dense_plane = []
                for row in plane:
                    dense = [_ZERO] * n
                    for k, c in row:
                        dense[k] = Fraction(c, den)
                    dense_plane.append(tuple(dense))
                planes.append(tuple(dense_plane))
            self._struct_consts = tuple(planes)
        return self._struct_consts

    @property
    def int_constants(self):
        """The nonzero structure constants on ints: (den, entries) with den
        their common denominator and entries the tuples (i, j, k,
        den * a[i][j][k]).  Built on first use and kept."""
        if self._int_constants is None:
            self._int_constants = (
                self._den,
                tuple(
                    (i, j, k, c)
                    for i, plane in enumerate(self._rows)
                    for j, row in enumerate(plane)
                    for k, c in row
                ),
            )
        return self._int_constants

    # -- elements -----------------------------------------------------------

    def element(self, coords):
        return AlgebraElement(self, coords)

    def one(self):
        return AlgebraElement(self, self.unit)

    def zero(self):
        return AlgebraElement(self, [Fraction(0)] * self.dim)

    def _mul_ints(self, u, v):
        """_den * u * v for int coordinate vectors u and v."""
        out = [0] * self.dim
        v_support = [(j, y) for j, y in enumerate(v) if y]
        rows = self._rows
        for i, x in enumerate(u):
            if x:
                row = rows[i]
                for j, y in v_support:
                    xy = x * y
                    for k, c in row[j]:
                        out[k] += c * xy
        return out

    def _mul(self, u, v):
        """The product of two exact vectors (nums, den)."""
        return linalg.exact(self._mul_ints(u[0], v[0]), u[1] * v[1] * self._den)

    def mul_coords(self, u, v):
        u, du = linalg.int_row(u)
        v, dv = linalg.int_row(v)
        return linalg.fractions_of(self._mul_ints(u, v), du * dv * self._den)

    # -- axioms -------------------------------------------------------------

    def is_pi_adapted(self):
        """Whether extracting coordinate 0 is an algebra map onto Q, i.e.
        the basis is adapted to a distinguished projection."""
        if self.unit[0] != 1:
            return False
        for i, plane in enumerate(self._rows):
            for j, row in enumerate(plane):
                at_zero = row[0] if row and row[0][0] == 0 else None
                if at_zero != ((0, self._den) if i == j == 0 else None):
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

    # -- serialisation ---------------------------------------------------------

    def to_dict(self, with_components=False):
        n, den = self.dim, self._den
        table = []
        for plane in self._rows:
            strings = []
            for row in plane:
                entries = ["0"] * n
                for k, c in row:
                    entries[k] = str(c) if den == 1 else str(Fraction(c, den))
                strings.append(entries)
            table.append(strings)
        data = {
            "dim": self.dim,
            "basis": list(self.basis_names),
            "a": table,
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
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
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
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
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

    def residue(self, comps, variables):
        """The residue projection of sum_j comps[j] e_j for polynomials
        comps[j] on ``variables``: one polynomial per power-basis slot of
        Q[x]/(P).  Every residue row is combined here."""
        return tuple(linear_combination(row, comps, variables) for row in self.residue_matrix)


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
    every violated identity is reported with witness indices.  The report
    is computed once per algebra and kept on it."""
    if algebra._report is None:
        algebra._report = _axiom_report(algebra)
    return algebra._report


def _axiom_report(algebra):
    """The report of :func:`check_algebra`.  The sums run on the int rows of
    the nonzero structure constants only; violations come out in the order
    of a plain loop over all index tuples."""
    n = algebra.dim
    rows = algebra._rows
    swapped = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                ij, ji = dict(rows[i][j]), dict(rows[j][i])
                swapped.update((i, j, k) for k in ij.keys() | ji.keys() if ij.get(k) != ji.get(k))
    violations = [AxiomViolation("commutativity", idx) for idx in sorted(swapped)]
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
    # sum_i b_i a[i][j][k] = delta_jk, times the denominators of b and a
    b, db = linalg.int_row(algebra.unit)
    one = db * algebra._den
    for j in range(n):
        totals = [0] * n
        for i, x in enumerate(b):
            if x:
                for k, c in rows[i][j]:
                    totals[k] += x * c
        violations.extend(
            AxiomViolation("unit", (j, k))
            for k in range(n)
            if totals[k] != (one if j == k else 0)
        )
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
    return found


def from_presentation(generators, relations, budget=None):
    """Build the algebra Q[generators]/(relations).

    The quotient must be finite-dimensional; the basis is the set of
    standard monomials of a Groebner basis of the relations, and the
    multiplication table comes from the multiplication matrices of the
    generators, one normal form per border monomial.
    The Groebner basis and the reductions run under ``budget`` (a
    :class:`GroebnerBudget`, the default one when None).
    """
    return _quotient_algebra(Ideal(tuple(generators), relations, budget))[0]


def _quotient_algebra(ideal):
    """The algebra Q[x]/I of a zero-dimensional ideal, and the map from a
    polynomial in normal form to its coordinates.

    The basis is the set of standard monomials of the ideal's cached
    grevlex basis, 1 first, then by degree with earlier variables first.
    The table comes from the multiplication matrices of the variables
    (Faugere, Gianni, Lazard and Mora, JSC 16, 1993): column k of M_v is
    x_v * m_k, a unit vector when that product is a standard monomial and
    otherwise a border monomial, which takes one normal form under the
    ideal's budget.  With m_i = x_v * m_p for an earlier basis monomial
    m_p, the product m_i * m_j is M_v applied to m_p * m_j, on ints.
    """
    variables = ideal.variables
    if ideal.is_trivial():
        raise AlgebraError("presentation collapses to the zero ring")
    lms = [g.leading_exponent(GREVLEX) for g in ideal.groebner_basis()]
    for idx, v in enumerate(variables):
        # a pure power of every variable leads some basis element
        if not any(lm[idx] == sum(lm) > 0 for lm in lms):
            raise AlgebraError(f"infinite-dimensional quotient: variable {v!r} is unbounded")
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

    # the columns of M_v over ``step`` for each standard x_v, the only ones
    # in an m_i; the border monomials are reduced lowest degree first, so
    # that a degree cap fails at the lowest degree above it
    shifted = {
        v: [m[:v] + (m[v] + 1,) + m[v + 1:] for m in monomials]
        for v in (m.index(1) for m in monomials if sum(m) == 1)
    }
    border = sorted(set().union(*shifted.values()) - index.keys(), key=GREVLEX.neg_key, reverse=True)
    reduced = [coords_of(ideal.normal_form(MultiPoly._trusted(variables, {e: _ONE}))) for e in border]
    step = math.lcm(*(c.denominator for vec in reduced for c in vec))
    column = {m: ((i, step),) for m, i in index.items()}
    for e, vec in zip(border, reduced):
        column[e] = [(k, int(c * step)) for k, c in enumerate(vec) if c]
    columns = {v: [column[e] for e in row] for v, row in shifted.items()}
    # products[i][j - i] = m_i * m_j for j >= i, as (k, int) pairs over
    # step^deg(m_i)
    products = [[((j, 1),) for j in range(n)]]
    for i, m in enumerate(monomials[1:], 1):
        v = next(idx for idx, e in enumerate(m) if e)
        p = index[m[:v] + (m[v] - 1,) + m[v + 1:]]
        row = []
        for pairs in products[p][i - p:]:
            out = {}
            for t, c in pairs:
                for k, d in columns[v][t]:
                    out[k] = out.get(k, 0) + c * d
            row.append(tuple(sorted((k, c) for k, c in out.items() if c)))
        products.append(row)
    # the lcm of the entries' reduced denominators, and the int rows over it
    scales = [step ** sum(m) for m in monomials]
    den = 1 if step == 1 else math.lcm(*(
        d // math.gcd(d, *(c for _, c in r)) for d, row in zip(scales, products) for r in row
    ))
    rows = [[None] * n for _ in range(n)]
    for i, (d, row) in enumerate(zip(scales, products)):
        for j, pairs in enumerate(row, i):
            scaled = pairs if d == den else tuple((k, c * den // d) for k, c in pairs)
            rows[i][j] = rows[j][i] = scaled
    names = tuple(_monomial_name(variables, m) for m in monomials)
    algebra = FiniteDimAlgebra._from_rows(den, rows, [1] + [0] * (n - 1), names)
    algebra.presentation = (variables, ideal.generators)
    return algebra, coords_of


def product_algebra(*factors):
    """Direct product of algebras, on the concatenation of their bases."""
    if not factors:
        raise AlgebraError("product of no algebras")
    n = sum(f.dim for f in factors)
    den = math.lcm(*(f._den for f in factors))
    rows = [[()] * n for _ in range(n)]
    unit = []
    offset = 0
    for f in factors:
        scale = den // f._den
        for i, plane in enumerate(f._rows):
            for j, row in enumerate(plane):
                rows[offset + i][offset + j] = tuple((offset + k, c * scale) for k, c in row)
        unit.extend(f.unit)
        offset += f.dim
    return FiniteDimAlgebra._from_rows(den, rows, unit)


def rational_field_algebra():
    """Q itself as a one-dimensional algebra."""
    return FiniteDimAlgebra([[[Fraction(1)]]], [Fraction(1)], ("1",))


# ---------------------------------------------------------------------------
# local decomposition


class _Quotient:
    """A/N on ints, for N given by rows n_r with pivots p_r, each zero at
    the pivots of the others.  The e_i off the pivots represent a basis of
    A/N; x has the coordinates x - sum_r (x[p_r] / n_r[p_r]) n_r off the
    pivots, ``columns[i]`` those of e_i times ``scale`` as (q, int) pairs.
    A/N multiplies as an algebra: ``_rows`` over ``_den``."""

    _mul_ints = FiniteDimAlgebra._mul_ints
    _mul = FiniteDimAlgebra._mul

    def __init__(self, algebra, nil):
        pivots = {p for p, _ in nil}
        self.rep_indices = reps = [i for i in range(algebra.dim) if i not in pivots]
        self.dim = d = len(reps)
        self.scale = den = math.lcm(*(row[p] for p, row in nil))
        self.columns = columns = [[] for _ in range(algebra.dim)]
        for q, i in enumerate(reps):
            columns[i].append((q, den))
        for p, row in nil:
            columns[p] += [(q, -row[i] * (den // row[p])) for q, i in enumerate(reps) if row[i]]
        # with N = 0, A/N is A and keeps its rows
        self._rows = [[None] * d for _ in range(d)] if nil else algebra._rows
        for a, i in enumerate(reps if nil else ()):
            for b in range(a, d):
                out = [0] * d
                for k, c in algebra._rows[i][reps[b]]:
                    for q, x in columns[k]:
                        out[q] += c * x
                self._rows[a][b] = self._rows[b][a] = [(q, c) for q, c in enumerate(out) if c]
        self._den = algebra._den * den
        self.one = self.project(linalg.int_row(algebra.unit))

    def project(self, vec):
        nums, den = vec
        out = [0] * self.dim
        for j, x in enumerate(nums):
            if x:
                for q, c in self.columns[j]:
                    out[q] += c * x
        return linalg.exact(out, den * self.scale)


def _minimal_polynomial(algebra, one, u):
    """Monic minimal polynomial of the exact vector u in the algebra with
    unit ``one``, low degree first, as an int multiple: the first linear
    dependence among 1, u, u^2, ..., found by eliminating rows (u^k, e_k)
    that carry their combination of the powers along.

    Also returns the powers 1, u, ... below the degree and the elimination
    rows; each row stands for (v, t) with v = sum_k t_k u^k."""
    d = algebra.dim
    echelon = []
    powers = []
    power = one
    for k in range(d + 1):
        nums, den = power
        rest, _ = linalg.echelon_add(echelon, (nums + [0] * k + [den] + [0] * (d - k), den), d)
        if not any(rest[:d]):
            return rest[d:d + k + 1], powers, echelon
        powers.append(power)
        power = algebra._mul(power, u)
    raise AlgebraError("minimal polynomial search exceeded the dimension")


def _primitive_element(quot, n):
    """The minimal polynomial, powers and elimination rows (as
    :func:`_minimal_polynomial` gives them) of the first primitive element
    of A/N in the order of the module docstring.  A random element of the
    second range fails with probability at most d(d-1)/(2d^2 + 1) < 1/2, by
    Schwartz-Zippel on the discriminant."""
    d, one = quot.dim, quot.one[0]
    j = next(i for i, x in enumerate(one) if x)
    rng = random.Random(20230517)
    basis = (quot.project(([0] * i + [1], 1)) for i in range(n))
    randoms = (
        quot.project(([rng.randint(-r, r) for _ in range(n)], 1)) for r in [5] * 100 + [d * d] * 100
    )
    for u in itertools.chain(basis, randoms):
        if d > 1 and all(a * one[j] == u[0][j] * b for a, b in zip(u[0], one)):
            continue
        minpoly, powers, echelon = _minimal_polynomial(quot, quot.one, u)
        if len(minpoly) - 1 == d:
            return minpoly, powers, echelon
    raise AlgebraError(
        "no primitive element found for the semisimple quotient after 200 random attempts"
    )


def _residue_table(p, d):
    """The columns x^k mod p for k < d, as int rows over one denominator:
    the residue map of Q[x]/(m) onto Q[x]/(p) on power bases, for any
    multiple m of p of degree d; p is a primitive int polynomial, low
    degree first."""
    if len(p) == 2:  # x^k mod (q x - r) is (r / q)^k
        return [[(-p[0]) ** k * p[1] ** (d - 1 - k) for k in range(d)]], p[1] ** (d - 1)
    column, den = [1] + [0] * (len(p) - 2), 1
    columns = []
    for _ in range(d):
        columns.append((column, den))
        # x * column, less its top coefficient times p / lead(p)
        column, den = linalg.exact(
            [p[-1] * a - column[-1] * b for a, b in zip([0] + column[:-1], p)], den * p[-1]
        )
    den = math.lcm(*(cd for _, cd in columns))
    return [list(row) for row in zip(*([x * (den // cd) for x in c] for c, cd in columns))], den


def _combine(coeffs, vectors):
    """sum_k coeffs[k] * vectors[k], for exact scalars and exact vectors."""
    den = math.lcm(*(cd * vd for (c, cd), (_, vd) in zip(coeffs, vectors) if c))
    out = [0] * len(vectors[0][0])
    for (c, cd), (nums, vd) in zip(coeffs, vectors):
        if c:
            f = c * (den // (cd * vd))
            out = [a + f * b for a, b in zip(out, nums)]
    return linalg.exact(out, den)


def _lift_idempotent(algebra, e0):
    """The idempotent of A over e0 != 0, 1, an exact vector idempotent in
    A/N.  As e0^2 - e0 is nilpotent, e0 has the minimal polynomial
    x^a (x - 1)^b, a, b >= 1, and the idempotent is h(e0) for the h of
    degree below a + b that is 0 mod x^a and 1 mod (x - 1)^b:
    h = x^a sum_{k<b} binom(a + k - 1, k) (1 - x)^k.  An idempotent e0
    (a = b = 1) is its own lift."""
    if algebra._mul(e0, e0) == e0:
        return e0
    mu, powers, _ = _minimal_polynomial(algebra, linalg.int_row(algebra.unit), e0)
    a = next(i for i, c in enumerate(mu) if c)
    b = len(mu) - 1 - a
    h = [0] * a + [
        (-1) ** j * sum(math.comb(a + k - 1, k) * math.comb(k, j) for k in range(j, b))
        for j in range(b)
    ]
    return _combine([(c, 1) for c in h], powers)


def _decompose(algebra):
    n = algebra.dim
    # a presented algebra is Q[x]/I, valid by construction; a table is checked
    if algebra.presentation is None:
        report = check_algebra(algebra)
        if not report.is_valid:
            raise AlgebraError(f"cannot decompose an invalid algebra: {report.describe()}")

    # nilradical: kernel of the trace form (characteristic 0), with
    # Tr(e_i e_j) = sum_k a[i][j][k] Tr(e_k) and Tr(e_i) = sum_j a[i][j][j];
    # on the int rows, trace holds den * Tr(e_i) and the form is den^2 times
    rows = algebra._rows
    trace = [sum(c for j, row in enumerate(plane) for k, c in row if k == j) for plane in rows]
    trace_form = [[sum([c * trace[k] for k, c in row]) for row in plane] for plane in rows]
    nil = [(p, linalg.primitive(v)) for p, v in linalg._kernel(trace_form)]
    nil_basis = [v for _, v in nil]
    quot = _Quotient(algebra, nil)
    d = quot.dim
    minpoly, powers, echelon = _primitive_element(quot, n)
    factors = _factor_ints(minpoly)
    if any(mult != 1 for _, mult in factors):
        raise AlgebraError("semisimple quotient has a repeated factor; trace form is wrong")

    # the d unit vectors of A/N in the power basis of u, over one
    # denominator: the elimination rows, fully reduced, are (c e_q, t) with
    # c e_q = sum_k t_k u^k; e_i of A is sum_q columns[i] e_q / scale
    reduced = [row for _, row in echelon]
    in_power_basis = [None] * d
    for row, q in zip(reduced, linalg.int_rref(reduced)):
        in_power_basis[q] = row[d:2 * d], row[q]
    t_den = math.lcm(*(den for _, den in in_power_basis))
    in_power_basis = [[x * (t_den // den) for x in t] for t, den in in_power_basis]
    # Q[x]/(minpoly) is the product of the Q[x]/(p) (CRT); the preimage of
    # the unit of one factor is its idempotent
    tables = [_residue_table(p, d) for p, _ in factors]
    if len(tables) > 1:
        crt_inv = linalg.int_inverse([(row, den) for table, den in tables for row in table])
        if crt_inv is None:
            raise AlgebraError("residue tables of the factors are not independent")

    # CRT idempotents in the quotient, then unique lifts through the
    # nilradical; the last idempotent is 1 less the others (for a local
    # algebra, 1)
    components = []
    offset = 0
    rest = linalg.int_row(algebra.unit)
    for (p, _), (table, table_den) in zip(factors, tables):
        if offset + len(table) == d:
            e_nums, e_den = rest
        else:
            ebar, ebar_den = _combine([(nums[offset], den) for nums, den in crt_inv], powers)
            e_nums = [0] * n
            for q, i in enumerate(quot.rep_indices):
                e_nums[i] = ebar[q]
            e = (e_nums, ebar_den)
            e_nums, e_den = e = _lift_idempotent(algebra, e) if nil_basis else e
            rest = _combine([(1, 1), (-1, 1)], [rest, e])
        offset += len(table)

        # component data: multiplication by e projects onto the component,
        # so its rank is its trace; the maximal ideal e N, of dimension
        # comp_dim - deg p, is spanned by the products e v (v in N), taken
        # until that many are independent
        comp_dim, rem = divmod(sum(a * b for a, b in zip(e_nums, trace)), e_den * algebra._den)
        if rem:
            raise AlgebraError("idempotent has a non-integral trace")
        ideal_rows = []
        for v in nil_basis:
            if len(ideal_rows) == comp_dim - len(p) + 1:
                break
            linalg.echelon_add(ideal_rows, (algebra._mul_ints(e_nums, v), 1), n)
        if len(ideal_rows) != comp_dim - len(p) + 1:
            raise AlgebraError("maximal ideal has the wrong dimension")
        ideal_rows = [row for _, row in ideal_rows]
        pivots = linalg.int_rref(ideal_rows)
        max_ideal = tuple(
            AlgebraElement(algebra, linalg.fractions_of(row, row[c]))
            for row, c in zip(ideal_rows, pivots)
        )

        # the residue rows on the units of A/N, then on the basis of A
        on_units = [[sum(a * b for a, b in zip(row, t)) for t in in_power_basis] for row in table]
        den = table_den * t_den * quot.scale
        matrix = tuple(
            tuple(linalg.fractions_of([sum(c * t[q] for q, c in col) for col in quot.columns], den))
            for t in on_units
        )
        residue_poly = MultiPoly.variable("x") if len(p) == 2 else MultiPoly._trusted(
            ("x",), {(i,): Fraction(c, p[-1]) for i, c in enumerate(p) if c}
        )
        idempotent = AlgebraElement(algebra, linalg.fractions_of(e_nums, e_den))
        components.append(
            LocalComponent(idempotent, comp_dim, max_ideal, residue_poly, len(p) - 1, matrix)
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


def _component(algebra, i):
    comps = algebra.components
    if not 0 <= i < len(comps):
        raise AlgebraError(f"component index {i} out of range")
    return comps[i]


def residue_projection(algebra, i):
    """Matrix of the residue projection of component i, rows indexed by the
    power basis of Q[x]/(P_i), columns by the algebra basis."""
    return _component(algebra, i).residue_matrix


def apply_residue_projection(algebra, i, coords):
    """Image of an element under the residue projection, as coefficients in
    the power basis of Q[x]/(P_i)."""
    constants = [MultiPoly.constant(c) for c in coords]
    return tuple(p.constant_value() for p in _component(algebra, i).residue(constants, ()))


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


# Small rationals tried, coordinate by coordinate, on a positive-dimensional
# variety; no more than _GRID_LIMIT points of the grid are tried.
_GRID_VALUES = tuple(
    Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2), 4, -4)
)
_GRID_LIMIT = 60000


def rational_points(ideal, limit):
    """Rational points of V(I), as (dimension, points, has_nonrational).

    The dimension is None when V(I) is empty.  A finite V(I) gives all its
    rational points (:func:`solve_zero_dim`); otherwise the points are the
    first ``limit`` found among the first ``_GRID_LIMIT`` points of a grid
    of small rationals, and ``has_nonrational`` is False.  This is the one
    point search behind the sharp points of a D-variety and the search of
    an axiom instance.
    """
    if ideal.is_trivial():
        return None, (), False
    dim = ideal.krull_dimension()
    if dim == 0:
        solved = solve_zero_dim(ideal)
        return 0, solved.points, solved.has_nonrational
    found = []
    grid = itertools.product(_GRID_VALUES, repeat=len(ideal.variables))
    for combo in itertools.islice(grid, _GRID_LIMIT):
        coords = dict(zip(ideal.variables, combo))
        if all(g.evaluate(coords) == 0 for g in ideal.generators):
            found.append(combo)
            if len(found) >= limit:
                break
    return dim, tuple(found), False
