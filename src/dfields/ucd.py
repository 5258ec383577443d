"""Per-instance verification of the geometric axiom hypotheses.

An instance is a variety X, a subvariety Y of its prolongation, an
optional open set U = Y minus V(h), and an optional rational witness p on
Y.  The checker answers, in order: containment of Y in the prolongation,
dominance of every projection pi_i: Y -> X^sigma_i, smoothness of the
witness, irreducibility of X and Y where the polynomial toolkit can decide
it (user assertions cover the rest), and nonemptiness of U.

Each hypothesis first tries a certificate: an exact answer, mostly by int
linear algebra at the witness, that needs no Groebner basis of Y.  Let
f_1..f_m be the nonzero generators of Y in n variables, J their Jacobian.

- smooth_witness: p is on Y and rank J = m.  By the Jacobian criterion
  (Eisenbud, Commutative Algebra, Thm 16.19) p is then a smooth point of
  exactly one component Y_0 of Y, of dimension n - m, with tangent space
  ker J.
- U_nonempty: p is on Y, and there is no h or h(p) != 0.
- Y_subset_of_tauX: every prolonged component is a Q-linear combination of
  the generators of Y (one row reduction of their coefficient rows).
- dominance_pi_i: containment holds, X^sigma_i is decided irreducible (an
  assertion does not count), smooth_witness has its certificate, and
  d(pi_i) on ker J has rank dim X^sigma_i.  That rank is at most the
  generic rank of pi_i on Y_0, which in characteristic 0 is the dimension
  of the image closure (generic smoothness, Hartshorne III.10.7); so the
  closure is all of the irreducible X^sigma_i.  pi_i keeps the parameters
  and sends x to a linear form in its block, so d(pi_i) is their
  coefficient rows, the same at every point.
- Over a graph: over a parameter-free base whose X is the graph of a
  polynomial map v = p(u) (``Ideal.graph``), tau X is the graph of one
  over its free coordinates u (Moosa and Scanlon, "Jet and prolongation
  spaces", 2010).  With containment, Y's generators leave remainders r in
  Q[u] modulo tau X's graph basis, so V(Y) is the graph of a polynomial
  map over V(r), and isomorphic to V(r).  Hence:
  - Y_irreducible is verified when r is empty or V(r) is decided
    irreducible;
  - U_nonempty without h is refuted iff 1 is in (r): V(Y) is empty iff
    V(r) is;
  - dominance_pi_i, with pi_i the projection onto block j, holds iff (r)
    meets Q[u_j] in 0: v_j = p(u_j) on tau X, and that elimination ideal
    cuts out the closure of the image of V(r) in the u_j (closure theorem;
    Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 3).
- dominance_pi_i without a witness, from Y's reduced grevlex basis: with
  containment, pi_i the projection onto block j, X^sigma_i decided
  irreducible of dimension d, and 1 not in I(Y), it is verified when d of
  the parameters and block-j coordinates T are independent modulo the
  leading monomials (Kredel and Weispfenning, JSC 6, 1988).  A monomial
  in T lies in in(I(Y)) only if a lead divides it, so I(Y) meets Q[T] in
  0, the projection of V(Y) to T is dense (closure theorem), and the
  closure of pi_i(V(Y)), closed in X^sigma_i and of dimension >= d, is
  all of it.
- Y_irreducible, then: with a smooth witness, m >= 2 and n - m >= 1, Y has
  a component of codimension at least 2 and positive dimension, so its
  reduced basis is not zero, trivial, principal or zero-dimensional; if
  some f_j is nonzero at p + k for a k in ker J, it is not linear either
  (a linear V(I) through p contains p + ker J).  Y is then undetermined
  without a basis: weaker than the Groebner path, which may still find Y
  a graph, but never contrary to it.

Where no certificate applies, the hypothesis is answered from Groebner
bases of Y as before: ideal membership, elimination ideals, the Krull
dimension and ``decide_irreducibility``.  A refutation there needs a
proof.  A polynomial outside an ideal refutes containment or dominance
only when it is also outside the radical (Rabinowitsch), that is, when it
does not vanish on the variety.  A Jacobian rank below the codimension
refutes smoothness only when I(Y) is radical by inspection: a squarefree
principal reduced basis.  A linear reduced basis never meets a low rank:
its forms are combinations of the generators, so at a point of V(Y) their
independent gradients lie in the span of the generators' gradients, and
rank J is the codimension.  Otherwise the hypothesis is undetermined.

The search procedure looks for rational points a of X whose canonical
prolongation point lands in U, on the locus of X where that point lies on
Y; ``algebra.rational_points`` finds them, as it finds the sharp points of
a D-variety.  The projections pi_i come from ``prolongation.pi_hat``, which
combines residue rows through ``LocalComponent.residue``.  Over Q the
conclusion of the axiom can genuinely fail (Q is not large); emptiness of
the search is reported, never treated as a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import rational_points
from .dring import associated_hom
from .dvariety import zero_section
from .poly import (
    Ideal,
    IrreducibilityResult,
    MonomialOrder,
    MultiPoly,
    NotOnVarietyError,
    _fresh_name,
    _independent_set,
    _int_gradients,
    as_poly,
    decide_irreducibility,
    format_poly,
    is_squarefree,
    jacobian_at,
    normal_form,
)
from .prolongation import BaseDStructure, ProlongedVariety, pi_hat, prolong


class UcdError(Exception):
    """Malformed instance data."""


@dataclass(frozen=True)
class UcdInstance:
    """One instance of the axiom-scheme hypotheses, with the prolongation
    of X that Y lives in."""

    base: BaseDStructure
    x_ideal: Ideal
    y_ideal: Ideal
    xvars: tuple
    prolonged: ProlongedVariety
    h: MultiPoly | None = None
    witness: tuple | None = None
    assert_irreducible: frozenset = frozenset()


def ucd_instance(base, x_ideal, y_ideal, h=None, witness=None, assert_irreducible=()):
    """Validate the variable layout and build an instance.

    ``y_ideal`` must live on exactly the variables of the prolongation of
    ``x_ideal`` (parameters first, then the coordinate blocks in order).
    """
    prolonged = prolong(base, x_ideal)
    if tuple(y_ideal.variables) != prolonged.variables:
        raise UcdError(
            f"inconsistent variable sets: Y must use {list(prolonged.variables)}, "
            f"got {list(y_ideal.variables)}"
        )
    if h is not None:
        h = as_poly(h, y_ideal.variables)
    if witness is not None:
        witness = tuple(Fraction(c) for c in witness)
        if len(witness) != len(y_ideal.variables):
            raise UcdError("witness length does not match the prolongation coordinates")
    return UcdInstance(
        base, x_ideal, y_ideal, prolonged.xvars, prolonged, h, witness,
        frozenset(assert_irreducible),
    )


@dataclass(frozen=True)
class HypothesisEntry:
    name: str
    status: str  # verified | refuted | undetermined | asserted
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    entries: tuple

    @property
    def verdict(self):
        statuses = {e.status for e in self.entries}
        if "refuted" in statuses:
            return "refuted"
        if statuses <= {"verified", "asserted"}:
            return "verified"
        return "undetermined"

    @property
    def exit_code(self):
        return {"verified": 0, "refuted": 2, "undetermined": 3}[self.verdict]

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "hypotheses": [
                {"name": e.name, "status": e.status, "detail": e.detail}
                for e in self.entries
            ],
        }


def _nonzero_generators(ideal):
    return [g for g in ideal.generators if not g.is_zero()]


@dataclass(frozen=True)
class _AtWitness:
    """The Jacobian J of Y's nonzero generators at a witness on Y."""

    rank: int
    kernel: list  # a basis of ker J, int vectors
    smooth: bool  # rank J is the number of generators


def _at_witness(inst):
    """Jacobian data at the witness, on ints; None without a witness on Y."""
    if inst.witness is None:
        return None
    gens = _nonzero_generators(inst.y_ideal)
    n = len(inst.y_ideal.variables)
    grads = _int_gradients(gens, inst.y_ideal.variables, inst.witness)
    if any(value for value, _, _ in grads):
        return None
    kernel = linalg.int_nullspace([row for _, row, _ in grads] or [[0] * n])
    return _AtWitness(n - len(kernel), kernel, n - len(kernel) == len(gens))


def _outside_span(inst):
    """The prolonged components, as (generator, level, component), that are
    not Q-linear combinations of Y's generators: one echelon of the
    generators' int coefficient rows, then each component reduced by it."""
    gens = inst.y_ideal.generators
    column = {e: k for k, e in enumerate(dict.fromkeys(e for g in gens for e in g.terms))}

    def row(p):
        out = [0] * len(column)
        for e, c in p._int_terms().items():
            out[column[e]] = c
        return out, 1

    echelon = []
    for g in gens:
        linalg.echelon_add(echelon, row(g), len(column))
    return [
        (f, j, comp)
        for f, comps in inst.prolonged.per_generator
        for j, comp in enumerate(comps)
        if any(e not in column for e in comp.terms)
        or any(linalg.echelon_add(echelon, row(comp), 0)[0])
    ]


def _containment_entry(inst, components=None):
    """Membership of prolonged components in I(Y) (all of them when
    ``components`` is None); one outside I(Y) refutes only when it is
    also outside the radical, that is, when it does not vanish on Y."""
    if components is None:
        components = [
            (f, j, comp)
            for f, comps in inst.prolonged.per_generator
            for j, comp in enumerate(comps)
        ]
    for f, j, comp in components:
        if inst.y_ideal.radical_contains(comp):
            continue
        return HypothesisEntry(
            "Y_subset_of_tauX",
            "refuted",
            f"component {j} of {format_poly(f)} is not in I(Y): {format_poly(comp)}",
        )
    return HypothesisEntry("Y_subset_of_tauX", "verified")


def _twisted(inst, i):
    """X^sigma_i: X with sigma_i applied to its parameter coefficients."""
    if not inst.base.params:
        return inst.x_ideal
    sigma = associated_hom(inst.base.operator, i).endo_images()
    variables = inst.x_ideal.variables
    return Ideal(
        variables,
        [g.substitute(sigma).on_variables(variables) for g in inst.x_ideal.generators],
        inst.x_ideal.budget,
    )


def _differential_rank(inst, i, at):
    """The rank of d(pi_i) on ker J: with residue degree 1, pi_i sends a
    point to its parameters and the linear forms images[x][0], so each row
    is a form's int coefficient row applied to the kernel vectors."""
    variables, images = inst.y_ideal.variables, pi_hat(inst.prolonged, i).images
    forms = [MultiPoly.variable(p, variables) for p in inst.base.params]
    forms.extend(images[x][0] for x in inst.xvars)
    image = [
        [sum(c * vec[e.index(1)] for e, c in f._int_terms().items()) for vec in at.kernel]
        for f in forms
    ]
    return len(linalg.int_rref(image, full=False))


def _dominance_certified(inst, i, at, twisted):
    """The certificate for pi_i once Y lies in the prolongation: X^sigma_i
    (``twisted``) is decided irreducible, the witness is smooth, and
    d(pi_i) on ker J has rank dim X^sigma_i."""
    if at is None or not at.smooth or decide_irreducibility(twisted).status != "irreducible":
        return False
    return _differential_rank(inst, i, at) == twisted.krull_dimension()


def _indicator(inst, i):
    """The coordinate j whose unit vector is component i's residue row, so
    that pi_i is the projection onto block j; None if there is none."""
    row = inst.base.algebra.components[i].residue_matrix[0]
    nonzero = [j for j, c in enumerate(row) if c]
    return nonzero[0] if len(nonzero) == 1 and row[nonzero[0]] == 1 else None


def _graph_dominance(inst, i, reduced):
    """pi_i over a graph X (module docstring), by (r) meeting Q[u_j] in 0;
    None without a reduction or an indicator j."""
    j = _indicator(inst, i)
    if reduced is None or j is None:
        return None
    level = set(inst.prolonged.block(j))
    kept = reduced.generators and reduced.elimination_ideal(
        [u for u in reduced.variables if u in level]
    ).generators
    if not kept:
        return HypothesisEntry(f"dominance_pi_{i}", "verified")
    return HypothesisEntry(
        f"dominance_pi_{i}",
        "refuted",
        f"projection {i} is not dominant: elimination ideal contains {format_poly(kept[0])}",
    )


def _dense_projection(inst, i, twisted):
    """The certificate for pi_i without a witness (module docstring), once
    Y lies in the prolongation: pi_i projects onto a block j, X^sigma_i is
    decided irreducible, Y is not empty, and dim X^sigma_i of the
    parameters and block-j coordinates are independent modulo Y's leads."""
    j = _indicator(inst, i)
    if inst.y_ideal.is_trivial() or j is None or decide_irreducibility(twisted).status != "irreducible":
        return False
    variables, kept = inst.y_ideal.variables, set(inst.base.params) | set(inst.prolonged.block(j))
    supports = [1 << k for k, v in enumerate(variables) if v not in kept]
    supports += [
        sum(1 << k for k, e in enumerate(g.leading_exponent()) if e)
        for g in inst.y_ideal.groebner_basis()
    ]
    return _independent_set(len(variables), supports).bit_count() >= twisted.krull_dimension()


def _dominance_entry(inst, i, twisted, on_basis=False):
    """Dominance of pi_i by the elimination ideal of its graph, built on
    Y's reduced basis (``on_basis``, once :func:`_dense_projection` has
    computed it) or on its generators: the block basis is the same."""
    projection = pi_hat(inst.prolonged, i)
    indicator = _indicator(inst, i)
    if indicator is not None:
        zname = dict(zip(inst.xvars, inst.prolonged.block(indicator)))
    else:
        zname = {}
        taken = set(inst.y_ideal.variables) | set(inst.x_ideal.variables)
        for x in inst.xvars:
            zname[x] = _fresh_name(f"{x}_sigma{i}", taken)
            taken.add(zname[x])
    graph_vars = inst.y_ideal.variables + tuple(
        zname[x] for x in inst.xvars if zname[x] not in inst.y_ideal.variables
    )
    source = inst.y_ideal.groebner_basis() if on_basis else inst.y_ideal.generators
    gens = [g.on_variables(graph_vars) for g in source]
    for x in inst.xvars:
        z = MultiPoly.variable(zname[x], graph_vars)
        combo = projection.images[x][0].on_variables(graph_vars)
        if not (z - combo).is_zero():
            gens.append(z - combo)
    keep = tuple(inst.base.params) + tuple(zname[x] for x in inst.xvars)
    image_closure = Ideal(graph_vars, gens, inst.y_ideal.budget).elimination_ideal(keep)

    # image_closure is on the parameters, then the z in xvars order: retag
    ring = tuple(inst.base.params) + inst.xvars
    renamed = Ideal(
        ring, [MultiPoly._trusted(ring, g.terms) for g in image_closure.generators],
        inst.x_ideal.budget,
    )

    name = f"dominance_pi_{i}"
    missing = _first_outside_radical(twisted, renamed.generators)
    if missing is not None:
        witness = MultiPoly._trusted(image_closure.variables, missing.terms)
        return HypothesisEntry(
            name,
            "refuted",
            f"projection {i} is not dominant: elimination ideal contains "
            f"{format_poly(witness)}",
        )
    backwards = _first_outside_radical(renamed, twisted.generators)
    if backwards is not None:
        return HypothesisEntry(
            name,
            "refuted",
            f"image closure does not contain the twisted variety: "
            f"{format_poly(backwards)} is missing",
        )
    return HypothesisEntry(name, "verified")


def _first_outside_radical(ideal, polys):
    """The first of ``polys`` that does not vanish on V(ideal); None if
    there is none."""
    return next((g for g in polys if not ideal.radical_contains(g)), None)


def _dominance_entries(inst, contained, at, reduced):
    comps = inst.base.algebra.components
    if any(c.residue_dim != 1 for c in comps):
        return [
            HypothesisEntry(
                "dominance",
                "undetermined",
                "some local component has residue degree > 1",
            )
        ]
    twisted = [_twisted(inst, i) for i in range(len(comps))]
    # over a graph X (a reduction) the reduction decides pi_i with no basis of Y
    dense = contained and reduced is None
    return [
        HypothesisEntry(f"dominance_pi_{i}", "verified")
        if contained and _dominance_certified(inst, i, at, x)
        or dense and _dense_projection(inst, i, x)
        else _graph_dominance(inst, i, reduced) or _dominance_entry(inst, i, x, dense)
        for i, x in enumerate(twisted)
    ]


def _smoothness_certificate(at):
    """The Jacobian criterion: rank J equal to the number of generators."""
    if at is None or not at.smooth:
        return None
    return HypothesisEntry(
        "smooth_witness", "verified", f"Jacobian rank {at.rank} = codimension"
    )


def _complete_intersection(ideal, point, codim):
    """Whether codim polynomials generate the ideal: the first nonzero
    generators, then reduced basis elements, whose gradients at the point
    on V(ideal) are independent, chosen greedily on one int echelon.  A
    polynomial that only multiplies others has gradient zero there, so
    redundant generators of that kind never change the choice."""
    generators = _nonzero_generators(ideal)
    basis = ideal.groebner_basis()
    candidates = generators + list(basis)
    chosen, echelon = [], []
    for g, (_, row, _) in zip(candidates, _int_gradients(candidates, ideal.variables, point)):
        if len(chosen) < codim and any(linalg.echelon_add(echelon, (row, 1), len(row))[0]):
            chosen.append(g)
    if len(chosen) < codim:
        return False
    return all(g in chosen for g in generators) or (
        Ideal(ideal.variables, chosen, ideal.budget).groebner_basis() == basis
    )


def _smoothness_entry(inst, at):
    """Jacobian rank at the witness (``at``, from :func:`_at_witness`)
    against the codimension of Y.

    Rank = codimension shows a smooth witness only when every component of
    Y through it has the dimension of Y; that is known when codimension-many
    polynomials generate I(Y) (a complete intersection is unmixed), or when
    Y is decided irreducible.  Otherwise a smaller component may pass
    through the witness and be singular there."""
    if inst.witness is None:
        return HypothesisEntry("smooth_witness", "undetermined", "no witness supplied")
    if at is None:
        # the witness is off Y: name the generator it fails
        try:
            jacobian_at(inst.y_ideal.generators, inst.y_ideal.variables, inst.witness)
        except NotOnVarietyError as exc:
            return HypothesisEntry("smooth_witness", "refuted", f"witness not on Y: {exc}")
    rank = at.rank
    # the witness lies on V(Y), so V(Y) is not empty
    codim = len(inst.y_ideal.variables) - inst.y_ideal.krull_dimension()
    if rank == codim:
        if _complete_intersection(inst.y_ideal, inst.witness, codim) or (
            decide_irreducibility(inst.y_ideal).status == "irreducible"
        ):
            return HypothesisEntry(
                "smooth_witness", "verified", f"Jacobian rank {rank} = codimension"
            )
        return HypothesisEntry(
            "smooth_witness",
            "undetermined",
            f"Jacobian rank {rank} = codimension {codim}, but Y is not known to be "
            f"equidimensional: a smaller component through the witness may be singular there",
        )
    if rank > codim:
        return HypothesisEntry(
            "smooth_witness",
            "undetermined",
            f"Jacobian rank {rank} > codimension {codim}: the witness lies only "
            f"on components of smaller dimension",
        )
    # radical by inspection (module docstring); a linear basis gives rank = codim
    basis = inst.y_ideal.groebner_basis()
    if len(basis) == 1 and is_squarefree(basis[0]):
        return HypothesisEntry(
            "smooth_witness",
            "refuted",
            f"Jacobian rank {rank} != codimension {codim} at the witness",
        )
    return HypothesisEntry(
        "smooth_witness",
        "undetermined",
        f"Jacobian rank {rank} < codimension {codim} at the witness, and I(Y) "
        f"is not known to be radical",
    )


def _irreducibility_verdict(inst, which, result):
    name = f"{which}_irreducible"
    if result.status == "irreducible":
        return HypothesisEntry(name, "verified", result.method)
    if result.status in ("reducible", "empty"):
        return HypothesisEntry(name, "refuted", f"{result.method}: {result.detail}")
    if which in inst.assert_irreducible:
        return HypothesisEntry(name, "asserted", "user assertion; not decided here")
    return HypothesisEntry(name, "undetermined", result.detail or result.method)


def _irreducibility_entry(inst, which):
    ideal = inst.x_ideal if which == "X" else inst.y_ideal
    return _irreducibility_verdict(inst, which, decide_irreducibility(ideal))


def _graph_reduction(inst, contained):
    """Y over a graph X (module docstring): the ideal (r) in tau X's free
    coordinates u of the remainders of Y's generators on division by tau
    X's prolonged graph basis, or None.  That basis has the coprime leading
    monomials v_j, so it is a Groebner basis, and division by it
    substitutes for each v_j.  When X is written as that graph, its
    prolongation is the instance's own."""
    graph = None if inst.base.params or not contained else inst.x_ideal.graph
    if not graph:
        return None
    xvars = inst.x_ideal.variables
    gens = tuple(MultiPoly.variable(v, xvars) - p for v, p in graph.items())
    tau = inst.prolonged if gens == inst.x_ideal.generators else prolong(inst.base, Ideal(xvars, gens))
    first = tuple(tau.block(j)[tau.xvars.index(v)] for v in graph for j in range(inst.base.algebra.dim))
    free = tuple(v for v in inst.y_ideal.variables if v not in first)
    ring = first + free
    order = MonomialOrder("block", block=len(first))
    basis = [c.on_variables(ring) for _, comps in tau.per_generator for c in comps]
    rests = [normal_form(g.on_variables(ring), basis, order) for g in inst.y_ideal.generators]
    return Ideal(free, [r.on_variables(free) for r in rests if not r.is_zero()], inst.y_ideal.budget)


def _irreducibility_certificate(inst, at):
    """The Y entry without a basis of Y, when the smooth witness shows that
    Y is outside every case decide_irreducibility supports but the graph;
    None otherwise."""
    variables = inst.y_ideal.variables
    gens = _nonzero_generators(inst.y_ideal)
    m = len(gens)
    if at is None or not at.smooth or m < 2 or len(variables) - m < 1:
        return None
    for k in at.kernel:
        moved = dict(zip(variables, (a + b for a, b in zip(inst.witness, k))))
        if any(g.evaluate(moved) != 0 for g in gens):
            unsupported = IrreducibilityResult("undetermined", "unsupported-case")
            return _irreducibility_verdict(inst, "Y", unsupported)
    return None


def _open_set_certificate(inst, at):
    """U is nonempty when the witness lies on Y and outside V(h)."""
    if at is None:
        return None
    if inst.h is None:
        return HypothesisEntry("U_nonempty", "verified", "U = Y")
    if inst.h.evaluate(dict(zip(inst.y_ideal.variables, inst.witness))) != 0:
        return HypothesisEntry("U_nonempty", "verified", "h does not vanish on Y")
    return None


def _open_set_entry(inst, reduced=None):
    """Emptiness of U from I(Y): 1 in I(Y), or h in its radical.  Without
    h, over a graph X, 1 in the reduction (r) instead: V(Y) is isomorphic
    to V(r)."""
    if inst.h is None:
        if (inst.y_ideal if reduced is None else reduced).is_trivial():
            return HypothesisEntry("U_nonempty", "refuted", "Y itself is empty")
        return HypothesisEntry("U_nonempty", "verified", "U = Y")
    if inst.y_ideal.radical_contains(inst.h):
        return HypothesisEntry(
            "U_nonempty", "refuted", "h vanishes on all of Y, so U is empty"
        )
    return HypothesisEntry("U_nonempty", "verified", "h does not vanish on Y")


def check_instance(inst):
    """Run every hypothesis check and collect the verdict: a certificate at
    the witness or over a graph X where one applies, Groebner bases of Y
    where none does."""
    at = _at_witness(inst)
    containment = _containment_entry(inst, _outside_span(inst))
    contained = containment.status == "verified"
    reduced = _graph_reduction(inst, contained)
    entries = [containment]
    entries.extend(_dominance_entries(inst, contained, at, reduced))
    entries.append(_smoothness_certificate(at) or _smoothness_entry(inst, at))
    entries.append(_irreducibility_entry(inst, "X"))
    on_graph = reduced is not None and (
        not reduced.generators or decide_irreducibility(reduced).status == "irreducible"
    )
    entries.append(
        HypothesisEntry("Y_irreducible", "verified", "graph") if on_graph
        else _irreducibility_certificate(inst, at) or _irreducibility_entry(inst, "Y")
    )
    entries.append(_open_set_certificate(inst, at) or _open_set_entry(inst, reduced))
    return HypothesisReport(tuple(entries))


# ---------------------------------------------------------------------------
# point search


@dataclass(frozen=True)
class NablaSearchResult:
    """Outcome of the search for rational points a with the canonical
    prolongation point of a inside U."""

    locus: Ideal
    dimension: int | None  # None when the locus is empty
    points: tuple  # pairs (a, prolongation point), exact hits
    samples: tuple = ()  # sampled hits on a positive-dimensional locus
    note: str = ""

    @property
    def found(self):
        return bool(self.points or self.samples)

    def to_dict(self):
        return {
            "dimension": self.dimension,
            "locus": [format_poly(g) for g in self.locus.generators],
            "points": [
                {"a": [str(c) for c in a], "nabla": [str(c) for c in nb]}
                for a, nb in self.points
            ],
            "samples": [
                {"a": [str(c) for c in a], "nabla": [str(c) for c in nb]}
                for a, nb in self.samples
            ],
            "found": self.found,
            "note": self.note,
        }


def find_nabla_point(inst):
    """Search for rational a in X(Q) whose canonical prolongation point
    (a, b_1 a, ..., b_l a), by the trivial structure x -> x * 1_D, satisfies
    I(Y) and avoids V(h).  Emptiness over Q never refutes the instance; Q
    is not large.
    """
    algebra = inst.base.algebra
    if inst.base.params:
        raise UcdError("point search is implemented for parameter-free instances")
    section = zero_section(algebra, inst.x_ideal)
    # Y's generators with each block coordinate x_level replaced by section[x][level]
    subs = {
        name: section[x][level]
        for level in range(algebra.dim)
        for x, name in zip(inst.xvars, inst.prolonged.block(level))
    }
    locus_gens = list(inst.x_ideal.generators) + [
        g.substitute(subs).on_variables(inst.xvars) for g in inst.y_ideal.generators
    ]
    locus = Ideal(inst.xvars, [g for g in locus_gens if not g.is_zero()], inst.x_ideal.budget)
    dim, points, has_nonrational = rational_points(locus, limit=8)
    hits = []
    for a in points:
        at = dict(zip(inst.xvars, a))
        nb = tuple(
            section[x][level].evaluate(at) for level in range(algebra.dim) for x in inst.xvars
        )
        if inst.h is None or inst.h.evaluate(dict(zip(inst.y_ideal.variables, nb))) != 0:
            hits.append((a, nb))
    if dim is None:
        note = "locus is empty"
    elif dim:
        note = "positive-dimensional locus" + ("" if hits else "; no sample point found")
    elif hits:
        note = ""
    else:
        note = "no rational point in U found"
        if has_nonrational:
            note += "; non-rational locus points exist"
    hits = tuple(hits)
    return NablaSearchResult(locus, dim, () if dim else hits, hits if dim else (), note=note)


# ---------------------------------------------------------------------------
# difference-largeness instance data


@dataclass(frozen=True)
class DifferencePointEntry:
    point: tuple
    component: int
    passed: bool
    detail: str = ""


def check_difference_large_instance(inst, sigma_maps, points):
    """Verify that supplied rational points of Y have the shape
    (a, sigma_1(a), ..., sigma_t(a)) for the given endomorphism data; one
    DifferencePointEntry per point and component, in a tuple.

    Density of such points is what the largeness notion asks for; it is
    not decidable here and is never claimed - this reports only the
    per-point outcome.
    """
    algebra = inst.base.algebra
    comps = algebra.components
    if len(comps) < 2:
        raise UcdError("no associated endomorphisms: the algebra is local")
    if any(c.residue_dim != 1 for c in comps):
        raise UcdError("associated maps with residue degree > 1 are not endomorphisms")

    prolonged = inst.prolonged
    projections = [pi_hat(prolonged, i) for i in range(len(comps))]

    entries = []
    for point in points:
        point = tuple(Fraction(c) for c in point)
        if len(point) != len(inst.y_ideal.variables):
            raise UcdError("point length does not match the prolongation coordinates")
        coords = dict(zip(inst.y_ideal.variables, point))
        if any(g.evaluate(coords) != 0 for g in inst.y_ideal.generators):
            entries.append(
                DifferencePointEntry(point, -1, False, "point is not on Y")
            )
            continue
        base_image = projections[0].apply_point(prolonged.variables, point)
        base_coords = dict(zip(inst.xvars, base_image))
        for i in range(1, len(comps)):
            expected = projections[i].apply_point(prolonged.variables, point)
            sigma = sigma_maps[i]
            got = [as_poly(sigma[x], inst.xvars).evaluate(base_coords) for x in inst.xvars]
            ok = tuple(got) == tuple(expected)
            detail = "" if ok else (
                f"sigma_{i} of the base projection is {[str(g) for g in got]}, "
                f"projection {i} of the point is {[str(e) for e in expected]}"
            )
            entries.append(DifferencePointEntry(point, i, ok, detail))
    return tuple(entries)
