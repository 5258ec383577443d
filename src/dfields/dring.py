"""Operators from a finitely presented ring R into R tensor D.

A DOperator stores, for every ring variable, the coordinates of its image
in the basis 1 (x) e_0, ..., 1 (x) e_l of R (x) D.  Constants map to
c * 1_D, so the coefficient field carries the unique trivial structure;
richer coefficient rings are modelled upstream by parameter variables.

:func:`push_through` is the one route from polynomials into R (x) D: the
image of a ring element under an operator, and the expansion of a
generator under the generic point of a prolongation, are both computed by
it from a map of variable images.

Products in R (x) D run on ints, by ``packed.add_products``, over the int
structure constants of D and int forms: an int term dict per component, on
packed exponents, over one denominator, with a bound on the total degree of
its terms.  Each output component is reduced mod the ideal and its content
shared with the denominator divided out; only what :func:`push_through` and
:func:`tensor_mul` return is made Fractions.

The powers live in a :class:`PowerTable`: the variable images reduced mod
the ideal, their powers and 1_D, filled on demand, so every ``apply`` on a
:class:`DOperator` builds each power once.  :func:`push_through` adds
every term c * P_1 * ... * P_r of a polynomial into one packed dict per
component and reduces each component once, at the end (normal forms are
linear and NF(NF(a) NF(b)) = NF(ab)), adding the normal forms of its
monomials from a map filled by one division the first time a monomial
appears.  That normal form depends on the ideal alone, so the map is the
entry of a bounded memo for (variables, packing cap, budget, reduced
basis), shared by every table on an equal ideal whatever D or the images.
A table keeps every int form on one packing, a byte for every variable, so
any term of total degree up to 255 fits; a product or a push of a higher
degree bound widens every slot two bits past it (cached forms re-packed,
the map taken for the new cap).  A remainder never widens it: under
grevlex no term of a remainder has a higher total degree than the monomial
it reduces.
The table keeps the image of the polynomial it pushed last, keyed by (and
holding) the object, so the product-rule check after ``apply(f)`` does not
push f again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import FiniteDimAlgebra
from .poly import (
    GREVLEX,
    BudgetExceededError,
    Ideal,
    MonomialOrder,
    MultiPoly,
    _fresh_name,
    _int_normal_form,
    as_poly,
    format_poly,
    groebner_basis_of,
    normal_form,
)
from .packed import _common_int_terms, _fraction_terms, _Packing, add_products


class DRingError(Exception):
    """Invalid operator data or unsupported operator construction."""


class SectionPropertyError(DRingError):
    """The coordinate-0 component of an image is not the variable itself."""

    def __init__(self, variable):
        self.variable = variable
        super().__init__(
            f"component 0 of the image of {variable!r} is not {variable!r} modulo the ideal"
        )


class WellDefinednessError(DRingError):
    """An image of a defining relation does not vanish on the variety."""

    def __init__(self, generator, component, value):
        self.generator = generator
        self.component = component
        self.value = value
        super().__init__(
            f"component {component} of relation {format_poly(generator)} maps to "
            f"{format_poly(value)}, which is not in the ideal"
        )


class TensorElement:
    """An element of R tensor D: one ring element per basis vector of D."""

    __slots__ = ("algebra", "comps")

    def __init__(self, algebra, comps):
        comps = tuple(map(as_poly, comps))
        if len(comps) != algebra.dim:
            raise DRingError("tensor component count does not match dim(D)")
        self.algebra = algebra
        self.comps = comps

    @classmethod
    def constant(cls, algebra, c, variables=()):
        c = Fraction(c)
        return cls(
            algebra,
            [MultiPoly.constant(c * b, variables) for b in algebra.unit],
        )

    @classmethod
    def one(cls, algebra, variables=()):
        return cls.constant(algebra, 1, variables)

    @classmethod
    def from_algebra_element(cls, algebra, coords, variables=()):
        return cls(algebra, [MultiPoly.constant(c, variables) for c in coords])

    def __add__(self, other):
        self._check(other)
        return TensorElement(self.algebra, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        self._check(other)
        return TensorElement(self.algebra, [a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return TensorElement(self.algebra, [-a for a in self.comps])

    def __mul__(self, other):
        """Product via the structure constants of D (no reduction)."""
        self._check(other)
        return tensor_mul(self, other)

    def scale(self, factor):
        """Multiply every component by a ring element or rational."""
        factor = as_poly(factor)
        return TensorElement(self.algebra, [factor * c for c in self.comps])

    def reduce(self, ideal):
        return TensorElement(self.algebra, [ideal.normal_form(c) for c in self.comps])

    def on_variables(self, variables):
        """The same element with every component on ``variables``."""
        return TensorElement(self.algebra, [c.on_variables(variables) for c in self.comps])

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and other.algebra is self.algebra
            and all(a == b for a, b in zip(self.comps, other.comps))
        )

    def _check(self, other):
        if not isinstance(other, TensorElement) or other.algebra is not self.algebra:
            raise DRingError("tensor elements over different algebras")

    def __repr__(self):
        return "TensorElement(" + ", ".join(format_poly(c) for c in self.comps) + ")"


class _IntForm(NamedTuple):
    """Tensor components as ints over one denominator: ``comps[k]`` maps
    each exponent of component k, packed on ``packing``, to den times its
    coefficient, and ``degree`` bounds the total degree of every term."""

    den: int
    comps: list
    degree: int
    packing: _Packing


def _tensor(table, form):
    """The TensorElement on ``table.variables`` of an int form: one
    Fraction per term."""
    comps = [_fraction_terms(form.packing.unpack(t), form.den) for t in form.comps]
    return TensorElement(table.algebra, [MultiPoly._trusted(table.variables, t) for t in comps])


def tensor_mul(a, b, ideal=None):
    """Product in R tensor D; components reduced mod ``ideal``, and on its
    variables, when given."""
    variables = ideal.variables if ideal is not None else tuple(
        dict.fromkeys(v for p in a.comps + b.comps for v in p.variables)
    )
    table = PowerTable(a.algebra, {}, variables, ideal)
    return _tensor(table, table.product(table._form(a.comps), table._form(b.comps)))


_NF_ENTRIES = 1 << 16  # a map past this many entries is cleared


@functools.lru_cache(maxsize=64)
def _nf_memo(variables, cap, budget, basis):
    """The normal-form map of every table on ``variables`` (in order, as
    the slots are), packed ``cap`` a slot, reducing by the reduced grevlex
    ``basis`` under ``budget`` (which decides what division raises)."""
    return {}


class PowerTable:
    """The variable images of an operator, reduced mod ``ideal`` when given,
    their powers and the unit 1_D, each an int form, filled on demand and
    shared by every :func:`push_through` on the table.  Every form is on
    ``_packing``, whose slots all hold ``_cap``, a bound on the total degree
    of any term.  With a basis, ``_nf`` is the :func:`_nf_memo` map for the
    table's key, shared with every table on an equal ideal: it maps a packed
    monomial to (packed int remainder r, scale s, total degree of r), its
    normal form being r / s.
    """

    def __init__(self, algebra, images, variables, ideal=None):
        self.algebra = algebra
        self.images = images
        self.variables = tuple(variables)
        self.ideal = ideal
        self._cap = 255
        self._packing = _Packing([self._cap] * len(self.variables))
        self._powers = {}
        units = [{0: b} if b else {} for b in algebra.unit]  # zero exponents pack to 0
        self._one = _IntForm(*_common_int_terms(units), 0, self._packing)
        self._last = None  # (polynomial, int form of its image)
        self._basis = () if ideal is None else ideal.groebner_basis()
        self._nf = self._basis and _nf_memo(self.variables, self._cap, ideal.budget, self._basis)

    def _room(self, degree):
        """Widen every slot, two bits past ``degree``, when a total degree
        passes the cap, re-pack the cached forms and take the new cap's map."""
        if degree <= self._cap:
            return
        self._cap = (4 << degree.bit_length()) - 1
        self._packing = _Packing([self._cap] * len(self.variables))
        if self._basis:
            self._nf = _nf_memo(self.variables, self._cap, self.ideal.budget, self._basis)
        for cache in self._powers.values():
            cache[1:] = map(self._on, cache[1:])
        self._one = self._on(self._one)
        self._last = self._last and (self._last[0], self._on(self._last[1]))

    def _on(self, form):
        """``form`` on the table's packing."""
        if form.packing is self._packing:
            return form
        comps = self._packing.pack([form.packing.unpack(t) for t in form.comps])
        return form._replace(comps=comps, packing=self._packing)

    def _form(self, comps):
        """The int form of ring elements, reduced."""
        den, comps = _common_int_terms([p.on_variables(self.variables).terms for p in comps])
        degree = max([sum(e) for comp in comps for e in comp], default=0)
        self._room(degree)
        return self._reduced(self._packing.pack(comps), den, degree)

    def _reduced(self, sums, den, degree):
        """The int form, in lowest terms, of packed int term dicts over ``den``
        of total degree at most ``degree``, each reduced mod the ideal when
        it has a basis."""
        if self._basis:
            sums, den, degree = self._normal_forms(sums, den)
        else:
            sums = [{e: v for e, v in t.items() if v} if 0 in t.values() else t for t in sums]
        g = math.gcd(den, *[v for t in sums for v in t.values()]) if den > 1 else 1
        if g > 1:
            sums = [{e: v // g for e, v in t.items()} for t in sums]
        return _IntForm(den // g, sums, degree, self._packing)

    def _normal_forms(self, sums, den):
        """``sums`` reduced through the map over den * L (a term v*m adds
        v*(L/s)*r, L the lcm of its monomials' scales s), den * L and the
        largest total degree of the remainders used.  Division is under
        grevlex, so a remainder is no higher in degree than its monomial
        and fits the packing that holds the monomial."""
        nf, packing, budget = self._nf, self._packing, self.ideal.budget
        used = {e for t in sums for e, v in t.items() if v}
        if len(nf) > _NF_ENTRIES:
            nf.clear()
        for e in used - nf.keys():  # one division per monomial new to the map
            try:
                r, s = _int_normal_form(packing.unpack({e: 1}), self._basis, GREVLEX, budget)
            except BudgetExceededError:  # name the first component over the cap
                for t in sums:
                    _int_normal_form(packing.unpack(t), self._basis, GREVLEX, budget)
                raise
            nf[e] = (packing.pack([r])[0], s, max(map(sum, r), default=0))
        scale = math.lcm(*[nf[e][1] for e in used])
        comps = []
        for t in sums:
            out = {}
            get = out.get
            for e, v in t.items():
                if v:
                    r, s, _ = nf[e]
                    v *= scale // s
                    for k, c in r.items():
                        out[k] = get(k, 0) + v * c
            comps.append({k: c for k, c in out.items() if c} if 0 in out.values() else out)
        return comps, den * scale, max([nf[e][2] for e in used], default=0)

    def power(self, v, e):
        """The int form of the image of v^e, for e >= 1."""
        cache = self._powers.get(v)
        if cache is None:
            cache = self._powers[v] = [None, self._form(self.images[v].comps)]
        while len(cache) <= e:
            cache.append(self.product(cache[-1], cache[1]))
        return cache[e]

    def product(self, a, b):
        """The int form of the product of two int forms, reduced."""
        ds, table = self.algebra.int_constants
        degree = a.degree + b.degree
        self._room(degree)
        sums = [{} for _ in range(self.algebra.dim)]
        add_products(sums, table, self._on(a).comps, self._on(b).comps, 1, self._packing)
        return self._reduced(sums, a.den * b.den * ds, degree)


def push_through(table, polys):
    """The images in R tensor D of a list of polynomials.

    A coefficient c maps to c * 1_D and each variable v to its image in the
    :class:`PowerTable` ``table``; term products go through the structure
    constants of D.  The results live on ``table.variables`` and are
    reduced mod ``table.ideal`` when given.
    """
    return [_tensor(table, form) for form in _images(table, polys)]


def _images(table, polys):
    """The int forms of :func:`push_through`'s images: the terms of each
    polynomial summed on the table's packing and reduced once (see above).
    The polynomial the table pushed last is read back, not pushed again."""
    algebra = table.algebra
    ds, consts = algebra.int_constants
    out = []
    for f in polys:
        if table._last is not None and table._last[0] is f:
            out.append(table._last[1])
            continue
        # each term as (c, int form of P_1 ... P_(r-1) or None, of P_r)
        parts = []
        for exp, c in f.terms.items():
            factors = [table.power(v, e) for v, e in zip(f.variables, exp) if e]
            if not factors:
                parts.append((c, None, table._one))
                continue
            left = factors[0] if len(factors) > 1 else None
            for t in factors[1:-1]:
                left = table.product(left, t)
            parts.append((c, left, factors[-1]))
        # each term's denominator, and a bound on the total degrees
        dens, degrees = [], []
        for c, left, right in parts:
            dens.append(c.denominator * right.den * (1 if left is None else left.den * ds))
            degrees.append(right.degree if left is None else left.degree + right.degree)
        den, degree = math.lcm(*dens), max(degrees, default=0)
        table._room(degree)
        sums = [{} for _ in range(algebra.dim)]
        for (c, left, right), d in zip(parts, dens):
            factor = c.numerator * (den // d)
            right = table._on(right).comps
            if left is not None:
                left = table._on(left).comps
                add_products(sums, consts, left, right, factor, table._packing)
                continue
            for target, comp in zip(sums, right):
                for e, x in comp.items():
                    target[e] = target.get(e, 0) + factor * x
        table._last = (f, table._reduced(sums, den, degree))
        out.append(table._last[1])
    return out


class DOperator:
    """A verified operator structure on Q[variables]/ideal.

    Use :func:`make_doperator` to construct one; it runs the section and
    well-definedness checks.
    """

    def __init__(self, algebra, ideal, images):
        self.algebra = algebra
        self.ideal = ideal
        self.images = images
        self.powers = PowerTable(algebra, images, ideal.variables, ideal)

    @property
    def variables(self):
        return self.ideal.variables

    def _ring_element(self, f):
        """``f`` (anything :func:`as_poly` takes) on the ring variables; a
        polynomial on any other variable is a DRingError."""
        try:
            return as_poly(f, self.variables)
        except ValueError:
            unknown = sorted(f.used_variables() - set(self.variables))
            raise DRingError(f"unknown variable {unknown[0]!r}") from None

    def apply(self, f):
        """The image of a ring element, components reduced to normal form."""
        f = self._ring_element(f)
        return push_through(self.powers, [f])[0]

    def to_dict(self):
        return {
            "variables": list(self.variables),
            "relations": [format_poly(g) for g in self.ideal.generators],
            "images": {
                v: [format_poly(self.ideal.normal_form(c)) for c in t.comps]
                for v, t in sorted(self.images.items())
            },
        }

    def __repr__(self):
        rels = ", ".join(format_poly(g) for g in self.ideal.generators)
        return f"DOperator(vars={list(self.variables)}, relations=[{rels}])"


def check_images(algebra, variables, images):
    """Raise DRingError unless ``images`` ({variable: components}) gives
    each of ``variables``, and nothing else, an image of dim(D)
    components."""
    for v, comps in images.items():
        if v not in variables:
            raise DRingError(f"image given for {v!r}, which is not a ring variable")
        if len(comps) != algebra.dim:
            raise DRingError(
                f"image of {v!r} has {len(comps)} components; dim(D) is {algebra.dim}"
            )
    missing = set(variables) - set(images)
    if missing:
        raise DRingError(f"no image given for variable {sorted(missing)[0]!r}")


def _coerce_images(algebra, ideal, images):
    images = {
        v: img.comps if isinstance(img, TensorElement) else img for v, img in images.items()
    }
    check_images(algebra, ideal.variables, images)
    return {
        v: TensorElement(algebra, [as_poly(c, ideal.variables) for c in comps])
        for v, comps in images.items()
    }


def make_doperator(algebra, ideal, images):
    """Build and verify a DOperator.

    Verifies that coordinate extraction at e_0 is the distinguished
    projection of D, that the e_0 component of every image is the variable
    itself (section property), and that every defining relation maps into
    the ideal (well-definedness).
    """
    if not isinstance(algebra, FiniteDimAlgebra):
        raise DRingError("first argument must be a FiniteDimAlgebra")
    if not algebra.is_pi_adapted():
        raise DRingError(
            "the basis of D is not adapted to a distinguished projection "
            "(need e_i*e_j to have no e_0 part except e_0^2 = e_0, and unit "
            "coordinate 0 equal to 1)"
        )
    images = _coerce_images(algebra, ideal, images)
    op = DOperator(algebra, ideal, images)
    for v in ideal.variables:
        comp, x = images[v].comps[0], MultiPoly.variable(v, ideal.variables)
        if comp != x and not ideal.normal_form(comp - x).is_zero():
            raise SectionPropertyError(v)
    for g in ideal.generators:
        if g.is_zero():
            continue
        image = op.apply(g)
        for j, comp in enumerate(image.comps):
            if not comp.is_zero():
                raise WellDefinednessError(g, j, comp)
    return op


def product_rule_check(op, f, g):
    """Does the image of f*g equal the structure-constant combination of the
    images of f and g?  Over a commutative, associative D with its unit
    this holds for any images, since the images come from a ring
    homomorphism followed by a normal form: it checks the product and
    reduction code, not the operator.  The operator's check is the
    relation check of :func:`make_doperator`."""
    f, g = op._ring_element(f), op._ring_element(g)
    image_f, image_g, lhs = _images(op.powers, [f, g, f * g])
    rhs = op.powers.product(image_f, image_g)
    lhs = op.powers._on(lhs)
    # both forms are in lowest terms, so equal elements have equal forms
    return lhs.den == rhs.den and lhs.comps == rhs.comps


@dataclass(frozen=True)
class AssociatedHom:
    """The composition of the operator with the residue projection of one
    local component: variable images in R[x]/(P_i), given as coefficient
    tuples in the power basis.  An endomorphism when P_i is linear."""

    residue_poly: MultiPoly
    images: dict

    @property
    def is_endomorphism(self):
        return all(len(t) == 1 for t in self.images.values())

    def endo_images(self):
        if not self.is_endomorphism:
            raise DRingError("associated homomorphism is not an endomorphism")
        return {v: t[0] for v, t in self.images.items()}


def associated_hom(op, i):
    """The i-th associated homomorphism of the operator."""
    comps = op.algebra.components
    if not 0 <= i < len(comps):
        raise DRingError(f"component index {i} out of range")
    comp = comps[i]
    images = {
        v: tuple(op.ideal.normal_form(p) for p in comp.residue(t.comps, op.variables))
        for v, t in op.images.items()
    }
    return AssociatedHom(comp.residue_poly, images)


def is_d_ideal(op, J):
    """Is J closed under the operator?  Checks generators only; by the
    product rule and linearity this suffices for the whole ideal."""
    if isinstance(J, (list, tuple)):
        J = Ideal(op.variables, list(J))
    for g in op.ideal.generators:
        if not J.contains(g.on_variables(J.variables)):
            raise DRingError("J does not contain the defining ideal of the ring")
    for g in J.generators:
        image = op.apply(g.on_variables(op.variables))
        if not all(J.contains(c.on_variables(J.variables)) for c in image.comps):
            return False
    return True


def invert_modulo(ideal, s):
    """The inverse of s in Q[vars]/ideal, or None when s is not a unit.

    Works by adjoining z with s*z = 1 and eliminating z: the normal form of
    z is z-free exactly when the inverse exists, and then equals it.
    """
    z = _fresh_name("z_inv", ideal.variables)
    reordered = (z,) + ideal.variables
    zvar = MultiPoly.variable(z, reordered)
    gens = [g.on_variables(reordered) for g in ideal.generators]
    gens.append(s.on_variables(reordered) * zvar - MultiPoly.one(reordered))
    order = MonomialOrder("block", block=1)
    basis = groebner_basis_of(gens, reordered, order, ideal.budget)
    nf = normal_form(zvar, list(basis), order, ideal.budget)
    if z in nf.used_variables():
        return None
    inverse = nf.on_variables(ideal.variables)
    if not ideal.contains(s * inverse - MultiPoly.one(ideal.variables)):
        return None
    return inverse


def localize_dstructure(op, q):
    """Extend the operator to the localisation R_q, presented by adjoining
    an inverse variable w (renamed when taken) with the relation q*w = 1.

    The image of w is the inverse of the image dq of q in R_q (x) D.  Newton
    starts from w0 = sum_c e_c / sigma_c(q) over the local components c of
    D, each residue inverted in the localised ring, and steps w <- w (2 -
    dq w) until dq w = 1.  As 1 - dq w0 is nilpotent and each step squares
    it, at most dim(D).bit_length() steps are needed.  For a non-local D
    this requires every associated image of q to be invertible in R_q
    already; otherwise the localisation is reported as impossible.
    """
    q = as_poly(q, op.variables)
    if op.ideal.contains(q):
        raise DRingError("cannot localise at an element that vanishes on the variety")
    if q.is_constant():
        return op

    algebra = op.algebra
    if any(c.residue_dim != 1 for c in algebra.components):
        raise DRingError(
            "localisation is only implemented when every local component of D "
            "has residue field Q"
        )

    w = _fresh_name("w", op.variables)
    new_vars = op.variables + (w,)
    wvar = MultiPoly.variable(w, new_vars)
    new_gens = [g.on_variables(new_vars) for g in op.ideal.generators]
    new_gens.append(q.on_variables(new_vars) * wvar - MultiPoly.one(new_vars))
    new_ideal = Ideal(new_vars, new_gens, op.ideal.budget)

    dq = op.apply(q).on_variables(new_vars)

    inverse = TensorElement(algebra, [MultiPoly.zero(new_vars)] * algebra.dim)
    for idx, comp in enumerate(algebra.components):
        sigma_q = new_ideal.normal_form(comp.residue(dq.comps, new_vars)[0])
        if idx == algebra.pi_index:
            sigma_inv = wvar
        else:
            sigma_inv = invert_modulo(new_ideal, sigma_q)
            if sigma_inv is None:
                raise DRingError(
                    f"associated image {format_poly(sigma_q)} of the localised "
                    f"element is not invertible on the localisation "
                    f"(component {idx}); the open set is not closed under the "
                    f"operator"
                )
        e_tensor = TensorElement.from_algebra_element(algebra, comp.idempotent.coords, new_vars)
        inverse = inverse + e_tensor.scale(sigma_inv)
    inverse = inverse.reduce(new_ideal)
    one = TensorElement.one(algebra, new_vars).reduce(new_ideal)
    for _ in range(algebra.dim.bit_length() + 1):
        rest = one - tensor_mul(dq, inverse, new_ideal)
        if rest.is_zero():
            break
        inverse = inverse + tensor_mul(inverse, rest, new_ideal)
    else:
        raise DRingError("nilpotent part of the localised image did not terminate")

    new_images = {v: t.on_variables(new_vars) for v, t in op.images.items()}
    new_images[w] = inverse
    # the image of q*w - 1 vanishes exactly when the image of w inverts
    # the image of q, so make_doperator checks the inverse
    return make_doperator(op.algebra, new_ideal, new_images)
