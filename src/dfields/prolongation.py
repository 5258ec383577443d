"""Prolongations of affine varieties along an operator on the coefficients.

Given defining equations in variables x over Q (or over Q[t] for declared
parameters t with operator images), each generator f is expanded by
:func:`dfields.dring.push_through` with the generic point as variable
images: x -> sum_j x_j e_j and each parameter to its operator image.
Collecting the e_j coordinates of the result yields the generators of the
prolonged ideal.  The prolonged ring orders its variables block-major:
parameters, then all level-0 names, then level 1, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dring import (
    PowerTable,
    SectionPropertyError,
    TensorElement,
    WellDefinednessError,
    make_doperator,
    push_through,
)
from .poly import Ideal, MultiPoly, as_poly, format_poly


class ProlongationError(Exception):
    """Bad prolongation input: name collisions, points off the variety."""


class BaseDStructure:
    """The operator structure on the coefficient ring Q[params].

    Constants map to c * 1_D; each declared parameter carries a
    user-supplied image.  With no parameters this is the unique structure
    on Q itself.
    """

    def __init__(self, algebra, params=(), images=None):
        self.algebra = algebra
        self.params = tuple(params)
        ring = Ideal(self.params, [])
        self.operator = make_doperator(algebra, ring, images or {})

    @classmethod
    def trivial(cls, algebra):
        return cls(algebra, ())

    def __repr__(self):
        return f"BaseDStructure(dim(D)={self.algebra.dim}, params={list(self.params)})"


def prolonged_names(xvars, level):
    return tuple(f"{x}_{level}" for x in xvars)


def _coordinate_blocks(xvars, dim, variables):
    """Each coordinate x with its prolonged coordinates x_0, ..., x_l, as
    variables of a polynomial ring on ``variables``."""
    levels = [prolonged_names(xvars, level) for level in range(dim)]
    return {
        x: [MultiPoly.variable(names[k], variables) for names in levels]
        for k, x in enumerate(xvars)
    }


def prolonged_variables(params, xvars, dim):
    """The variables of a prolongation: the parameters, then the
    coordinates of every level."""
    return tuple(params) + tuple(
        name for level in range(dim) for name in prolonged_names(xvars, level)
    )


@dataclass(frozen=True)
class ProlongedVariety:
    """The prolongation of V(ideal): its ideal, the coordinates of each
    generator's expansion, and the coordinate blocks it was expanded on,
    which :func:`pi_hat` combines."""

    base: BaseDStructure
    xvars: tuple
    prolonged_ideal: Ideal
    per_generator: tuple  # pairs (generator, tuple of component polys)
    blocks: dict = field(compare=False, repr=False)  # x -> [x_0, ..., x_l]

    @property
    def variables(self):
        return self.prolonged_ideal.variables

    def block(self, level):
        return prolonged_names(self.xvars, level)

    def to_dict(self):
        return {
            "variables": list(self.variables),
            "generators": [
                {
                    "f": format_poly(f),
                    "components": [format_poly(c) for c in comps],
                }
                for f, comps in self.per_generator
            ],
        }


def prolong(base, ideal):
    """The prolongation of V(ideal) along the base operator structure.

    The coordinates x are the variables of ``ideal`` that are not
    parameters of ``base``; the result lives in
    Q[params + x_0-block + ... + x_l-block].
    """
    xvars = tuple(v for v in ideal.variables if v not in base.params)
    algebra = base.algebra
    new_vars = prolonged_variables(base.params, xvars, algebra.dim)
    if len(set(new_vars)) != len(new_vars):
        raise ProlongationError(
            "prolonged coordinate names collide with existing variables; "
            "rename the originals"
        )
    images = {p: t.on_variables(new_vars) for p, t in base.operator.images.items()}
    blocks = _coordinate_blocks(xvars, algebra.dim, new_vars)
    for x, block in blocks.items():
        images[x] = TensorElement(algebra, block)
    expansions = push_through(PowerTable(algebra, images, new_vars), ideal.generators)
    per_generator = tuple((f, t.comps) for f, t in zip(ideal.generators, expansions))
    components = [c for _, comps in per_generator for c in comps if not c.is_zero()]
    prolonged = Ideal(new_vars, components, ideal.budget)
    return ProlongedVariety(base, xvars, prolonged, per_generator, blocks)


def nabla(op, point, xvars=None):
    """The prolongation point of a point of the variety of ``op``: the point
    itself followed by its operator coordinates, block-major.

    Point coordinates are rationals (or parameter polynomials); it must
    satisfy the defining ideal exactly.
    """
    if xvars is None:
        xvars = op.variables
    values = {v: as_poly(val) for v, val in zip(xvars, point)}
    for g in op.ideal.generators:
        image = g.substitute(values)
        if not (image.is_zero() or op.ideal.contains(image.on_variables(op.variables))):
            raise ProlongationError(
                f"point does not satisfy {format_poly(g)}: got {format_poly(image)}"
            )
    out = []
    for level in range(op.algebra.dim):
        for v in xvars:
            val = op.images[v].comps[level].substitute(values)
            out.append(val.constant_value() if val.is_constant() else val)
    return tuple(out)


@dataclass(frozen=True)
class PiHatMap:
    """Coordinate data of the projection of the prolongation onto one twist
    of the original variety: each original variable maps to a linear
    combination of its block coordinates.  For residue degree one this is a
    genuine morphism onto an affine variety; otherwise the coordinates land
    in Q[x]/(P_i) and are reported per power-basis slot."""

    residue_dim: int
    xvars: tuple
    images: dict  # xvar -> tuple of MultiPoly on the prolonged variables

    def apply_point(self, prolonged_vars, point):
        coords = {v: val for v, val in zip(prolonged_vars, point)}
        out = []
        for v in self.xvars:
            for img in self.images[v]:
                val = img.substitute(coords)
                out.append(val.constant_value() if val.is_constant() else val)
        return tuple(out)


def pi_hat(prolonged, i):
    """The projection of the prolongation induced by the residue map of the
    i-th local component; for the distinguished component this is just
    x -> x_0."""
    algebra = prolonged.base.algebra
    comps = algebra.components
    if not 0 <= i < len(comps):
        raise ProlongationError(f"component index {i} out of range")
    comp = comps[i]
    images = {x: comp.residue(block, prolonged.variables) for x, block in prolonged.blocks.items()}
    return PiHatMap(comp.residue_dim, prolonged.xvars, images)


@dataclass(frozen=True)
class AlphaHatMap:
    """The product of all projections: the comparison map from the
    prolongation to the product of the twisted copies of the variety."""

    factors: tuple  # PiHatMap per local component

    def apply_point(self, prolonged_vars, point):
        out = []
        for factor in self.factors:
            out.extend(factor.apply_point(prolonged_vars, point))
        return tuple(out)


def alpha_hat(prolonged):
    algebra = prolonged.base.algebra
    n_comps = len(algebra.components)
    factors = tuple(pi_hat(prolonged, i) for i in range(n_comps))
    if any(f.residue_dim != 1 for f in factors):
        raise ProlongationError(
            "comparison map needs every local component to have residue field Q"
        )
    return AlphaHatMap(factors)


def extend_by_point(base, ideal, point_images):
    """Extend the base structure to Q[x]/ideal by prescribing the image of
    the generic point: ``point_images`` lists, block-major, the coordinates
    of a point of the prolongation whose level-0 block is x itself.  The
    coordinates x are the variables of ``ideal`` that are not parameters.

    The point lies on the prolongation exactly when the operator with
    those images is well defined, which :func:`dfields.dring.make_doperator`
    checks along with the level-0 block; returns that operator.
    """
    xvars = tuple(v for v in ideal.variables if v not in base.params)
    dim = base.algebra.dim
    entries = [as_poly(entry, ideal.variables) for entry in point_images]
    if len(entries) != len(xvars) * dim:
        raise ProlongationError(
            f"expected {len(xvars) * dim} coordinates, got {len(entries)}"
        )
    images = {
        x: [entries[level * len(xvars) + pos] for level in range(dim)]
        for pos, x in enumerate(xvars)
    }
    for p, t in base.operator.images.items():
        images[p] = t.on_variables(ideal.variables)
    try:
        return make_doperator(base.algebra, ideal, images)
    except SectionPropertyError as exc:
        x = exc.variable
        raise ProlongationError(
            f"level-0 coordinate of {x!r} must be {x!r} itself modulo the ideal"
        ) from exc
    except WellDefinednessError as exc:
        raise ProlongationError(
            f"not a point of the prolongation: component {exc.component} of "
            f"{format_poly(exc.generator)} evaluates to {format_poly(exc.value)}"
        ) from exc
