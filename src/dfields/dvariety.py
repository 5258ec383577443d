"""D-varieties: a variety together with a section of the projection from
its prolongation, i.e. an operator structure on its coordinate ring.  The
two are one piece of data, verified once by
:func:`dfields.dring.make_doperator`; a :class:`DVariety` keeps the operator.

Includes the sharp-point machinery (points where the canonical operator
image agrees with the section, found by ``algebra.rational_points``, the
point search that the axiom-instance search shares), restriction to basic
opens, the minimal-prime closure check on supplied decompositions, and
descent of a D-variety along a finite extension Q(alpha)/Q with a verified
operator structure on Q(alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import rational_points
from .dring import (
    DOperator,
    DRingError,
    SectionPropertyError,
    WellDefinednessError,
    is_d_ideal,
    localize_dstructure,
    make_doperator,
    push_through,
)
from .poly import (
    Ideal,
    MultiPoly,
    as_poly,
    factor_univariate,
    format_poly,
    linear_combination,
    univariate_coeffs,
)


class DVarietyError(Exception):
    """Invalid section data or descent input."""


class DVariety:
    """A variety with a verified section into its prolongation, kept as the
    equivalent operator on the coordinate ring: ``section`` is the
    operator's map from each coordinate to its image."""

    def __init__(self, operator):
        self.operator = operator
        self.algebra = operator.algebra
        self.ideal = operator.ideal
        self.section = operator.images

    @property
    def variables(self):
        return self.ideal.variables

    def to_dict(self):
        return {
            "variables": list(self.variables),
            "generators": [format_poly(g) for g in self.ideal.generators],
            "section": {
                v: [format_poly(c) for c in t.comps]
                for v, t in sorted(self.section.items())
            },
        }

    def __repr__(self):
        gens = ", ".join(format_poly(g) for g in self.ideal.generators)
        return f"DVariety(vars={list(self.variables)}, V=<{gens}>)"


def zero_section(algebra, ideal):
    """The section matching the trivial structure: coordinate x maps to
    x * 1_D."""
    return {
        v: tuple(
            MultiPoly.variable(v, ideal.variables).scale(b) for b in algebra.unit
        )
        for v in ideal.variables
    }


def make_dvariety(algebra, ideal, section):
    """Build a D-variety from the section's images of the coordinates.  The
    section lands in the prolongation exactly when the operator with those
    images is well defined, so :func:`dfields.dring.make_doperator` checks
    it, together with the section property."""
    images = {}
    for v in ideal.variables:
        if v not in section:
            raise DVarietyError(f"section missing coordinate {v!r}")
        images[v] = tuple(section[v])
        if len(images[v]) != algebra.dim:
            raise DVarietyError(f"section of {v!r} needs {algebra.dim} components")
    try:
        return DVariety(make_doperator(algebra, ideal, images))
    except WellDefinednessError as exc:
        raise DVarietyError(
            f"section does not land in the prolongation: component {exc.component} "
            f"of {format_poly(exc.generator)} pulls back to {format_poly(exc.value)}"
        ) from exc
    except SectionPropertyError as exc:
        raise DVarietyError(f"section is not an operator structure: {exc}") from exc


# ---------------------------------------------------------------------------
# sharp points


def sharp_locus(dv):
    """Ideal of the constant-coordinate sharp points, the closed locus where
    the canonical image of a constant point agrees with the section: the
    variety plus s_i(x) = b_i * x for every level i >= 1."""
    algebra = dv.algebra
    gens = list(dv.ideal.generators)
    for v in dv.variables:
        var = MultiPoly.variable(v, dv.variables)
        for i in range(1, algebra.dim):
            gens.append(dv.section[v].comps[i] - var.scale(algebra.unit[i]))
    gens = [g for g in gens if not g.is_zero()]
    return Ideal(dv.variables, gens, dv.ideal.budget)


@dataclass(frozen=True)
class SharpPointsResult:
    """Rational sharp points when the locus is finite; otherwise the locus
    with its dimension and a few sampled points."""

    locus: Ideal
    dimension: int | None  # None for an empty locus
    points: tuple | None  # None when the locus is positive-dimensional
    has_nonrational: bool
    samples: tuple = ()

    @property
    def is_empty(self):
        return self.dimension is None

    @property
    def zero_dimensional(self):
        return self.dimension == 0


def rational_sharp_points(dv):
    """Enumerate the rational sharp points when the sharp locus is finite;
    otherwise report the locus and its dimension with sample points.

    Over Q an empty answer does not refute anything: the rational points
    of a positive-dimensional locus may simply be scarce."""
    locus = sharp_locus(dv)
    dim, points, has_nonrational = rational_points(locus, limit=5)
    if dim:
        return SharpPointsResult(locus, dim, None, False, samples=points)
    return SharpPointsResult(locus, dim, points, has_nonrational)


def open_dsubvariety(dv, q):
    """The restriction of the D-variety to the basic open set q != 0,
    presented by an inverse variable."""
    localized = localize_dstructure(dv.operator, q)
    if localized is dv.operator:
        return dv
    return DVariety(localized)


# ---------------------------------------------------------------------------
# minimal primes of a D-ideal (on supplied decompositions)


@dataclass(frozen=True)
class PrimeCheckEntry:
    contains_ideal: bool
    closed_under_operator: bool


def dideal_fixture_check(op, J, primes):
    """Check a supplied minimal-prime decomposition of a radical D-ideal:
    each prime must contain the ideal and be closed under the operator, one
    PrimeCheckEntry per prime, in a tuple.

    Primary decomposition is deliberately not computed here; the fixtures
    carry it.  Raises when J itself is not a D-ideal."""
    if isinstance(J, (list, tuple)):
        J = Ideal(op.variables, list(J))
    if not is_d_ideal(op, J):
        raise DRingError("the supplied ideal is not closed under the operator")
    entries = []
    for prime in primes:
        if isinstance(prime, (list, tuple)):
            prime = Ideal(op.variables, list(prime))
        contains = all(prime.contains(g.on_variables(prime.variables)) for g in J.generators)
        closed = is_d_ideal(op, prime) if contains else False
        entries.append(PrimeCheckEntry(contains, closed))
    return tuple(entries)


# ---------------------------------------------------------------------------
# descent along a finite extension Q(alpha)/Q


@dataclass
class WeilDescentResult:
    """A descended D-variety plus the point correspondence.

    ``forward_table`` writes each original coordinate as a polynomial in
    the descended coordinates and alpha.
    """

    algebra: object
    alpha: str
    minpoly: MultiPoly
    xvars: tuple
    original_ideal: Ideal
    original_section: dict
    ext_operator: DOperator
    descended: DVariety
    forward_table: dict

    @property
    def degree(self):
        return self.minpoly.degree_in(self.alpha)

    def to_descended(self, point):
        """Map a point with coordinates in Q(alpha) (polynomials in alpha)
        to the corresponding rational descended point."""
        out = []
        m_ideal = Ideal((self.alpha,), [self.minpoly])
        for v in self.xvars:
            val = point[v] if isinstance(point, dict) else point[self.xvars.index(v)]
            val = m_ideal.normal_form(as_poly(val, (self.alpha,)))
            coeffs = univariate_coeffs(val, self.alpha)
            coeffs = coeffs + [Fraction(0)] * (self.degree - len(coeffs))
            out.extend(coeffs[: self.degree])
        return tuple(out)

    def to_original(self, point):
        """Map a rational descended point back to Q(alpha) coordinates."""
        out = {}
        for i, v in enumerate(self.xvars):
            coeffs = point[i * self.degree:(i + 1) * self.degree]
            out[v] = MultiPoly(
                (self.alpha,), {(p,): Fraction(c) for p, c in enumerate(coeffs)}
            )
        return out

    def is_sharp_over_extension(self, point):
        """Pointwise sharp check for a point of the original variety with
        Q(alpha) coordinates, using the verified structure on Q(alpha)."""
        m_ideal = self.ext_operator.ideal
        values = {v: as_poly(point[v], (self.alpha,)) for v in self.xvars}
        for g in self.original_ideal.generators:
            residue = m_ideal.normal_form(
                g.substitute(values).on_variables((self.alpha,))
            )
            if not residue.is_zero():
                return False
        for v in self.xvars:
            image = self.ext_operator.apply(values[v])
            for i in range(self.algebra.dim):
                expected = self.original_section[v][i].substitute(values)
                defect = m_ideal.normal_form(
                    (image.comps[i] - expected).on_variables((self.alpha,))
                )
                if not defect.is_zero():
                    return False
        return True


def weil_descent(algebra, minpoly, alpha_images, xvars, generators, section, budget=None):
    """Descend an affine D-variety over Q(alpha) to one over Q.

    ``minpoly`` is a monic irreducible polynomial in a single symbol alpha;
    ``alpha_images`` gives the operator image of alpha over Q(alpha),
    verified against the minimal polynomial.  ``generators`` and
    ``section`` may mention alpha in their coefficients.  Returns the
    descended D-variety (each original coordinate split into deg(minpoly)
    rational coordinates) plus the substitution tables; sharp points
    correspond under the returned point maps.
    """
    used = minpoly.used_variables()
    if len(used) != 1:
        raise DVarietyError("the minimal polynomial must be univariate")
    alpha = next(iter(used))
    if alpha in xvars:
        raise DVarietyError("alpha cannot also be a coordinate")
    minpoly = minpoly.monic()
    _, factors = factor_univariate(minpoly, alpha)
    if len(factors) != 1 or factors[0][1] != 1:
        raise DVarietyError("the minimal polynomial must be irreducible")
    r = minpoly.degree_in(alpha)
    dim = algebra.dim
    xvars = tuple(xvars)

    # the operator structure on Q(alpha); make_doperator verifies that the
    # images respect the minimal polynomial
    m_ideal = Ideal((alpha,), [minpoly], budget)
    try:
        ext_op = make_doperator(algebra, m_ideal, {alpha: alpha_images})
    except DRingError as exc:
        raise DVarietyError(f"invalid operator structure on Q(alpha): {exc}") from exc

    ring_vars = (alpha,) + xvars
    gens = [as_poly(g, ring_vars) for g in generators]
    section_comps = {}
    for v in xvars:
        comps = tuple(as_poly(c, ring_vars) for c in section[v])
        if len(comps) != dim:
            raise DVarietyError(f"section of {v!r} needs {dim} components")
        section_comps[v] = comps
    original_ideal = Ideal(ring_vars, gens + [minpoly.on_variables(ring_vars)], budget)

    if r == 1:
        root = -univariate_coeffs(minpoly, alpha)[0]
        subs = {alpha: MultiPoly.constant(root)}
        plain = Ideal(xvars, [g.substitute(subs).on_variables(xvars) for g in gens], budget)
        plain_section = {
            v: tuple(c.substitute(subs).on_variables(xvars) for c in comps)
            for v, comps in section_comps.items()
        }
        descended = make_dvariety(algebra, plain, plain_section)
        return WeilDescentResult(
            algebra, alpha, minpoly, xvars, original_ideal, section_comps,
            ext_op, descended, {v: MultiPoly.variable(v, xvars) for v in xvars},
        )

    dvars = tuple(f"{x}_{p}" for x in xvars for p in range(r))
    if len(set(dvars) | set(ring_vars)) != len(dvars) + len(ring_vars):
        raise DVarietyError("descended coordinate names collide; rename the originals")
    full_vars = (alpha,) + dvars
    reduce_ideal = Ideal(full_vars, [minpoly.on_variables(full_vars)], budget)

    phi = {}
    for x in xvars:
        expansion = MultiPoly.zero(full_vars)
        for p in range(r):
            term = MultiPoly.variable(f"{x}_{p}", full_vars) * MultiPoly.variable(
                alpha, full_vars
            ) ** p
            expansion = expansion + term
        phi[x] = expansion
    alpha_idx = 0

    def alpha_coefficients(poly):
        """Split an alpha-reduced polynomial into its alpha-power slices."""
        slices = [MultiPoly.zero(dvars) for _ in range(r)]
        poly = poly.on_variables(full_vars)
        for exp, c in poly.terms.items():
            p = exp[alpha_idx]
            rest = exp[1:]
            slices[p] = slices[p] + MultiPoly(dvars, {rest: c})
        return slices

    descended_gens = []
    for g in gens:
        expanded = reduce_ideal.normal_form(g.substitute(phi).on_variables(full_vars))
        descended_gens.extend(s for s in alpha_coefficients(expanded) if not s.is_zero())

    # the comparison matrix: the algebra map alpha^p e_i -> image(alpha)^p e_i
    # on the r(l+1)-dimensional space Q(alpha) tensor D; column (p, i) is
    # e_i times the pushed alpha^p, read off D's structure constants
    alpha_powers = [MultiPoly.variable(alpha, (alpha,)) ** p for p in range(r)]
    powers = push_through(ext_op.powers, alpha_powers)
    ds, consts = algebra.int_constants
    size = r * dim
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for p, image in enumerate(powers):
        coeffs = [univariate_coeffs(c, alpha) for c in image.comps]
        for i, j, k, s in consts:
            for q, c in enumerate(coeffs[j]):
                matrix[q * dim + k][p * dim + i] += c * Fraction(s, ds)
    inverse = linalg.inverse(matrix)
    if inverse is None:
        raise DVarietyError(
            "the operator structure on Q(alpha) does not invert; "
            "descent is not defined"
        )

    descended_section = {name: [None] * dim for name in dvars}
    for x in xvars:
        rhs = [MultiPoly.zero(dvars) for _ in range(size)]
        for k in range(dim):
            comp = reduce_ideal.normal_form(
                section_comps[x][k].substitute(phi).on_variables(full_vars)
            )
            for q, slice_ in enumerate(alpha_coefficients(comp)):
                rhs[q * dim + k] = slice_
        for p in range(r):
            for j in range(dim):
                descended_section[f"{x}_{p}"][j] = linear_combination(
                    inverse[p * dim + j], rhs, dvars
                )
    descended_section = {
        name: tuple(comps) for name, comps in descended_section.items()
    }

    descended = make_dvariety(algebra, Ideal(dvars, descended_gens, budget), descended_section)
    return WeilDescentResult(
        algebra, alpha, minpoly, xvars, original_ideal, section_comps,
        ext_op, descended, phi,
    )
