"""Per-instance verification of the geometric axiom hypotheses.

An instance is a variety X, a subvariety Y of its prolongation, an
optional open set U = Y minus V(h), and an optional smooth rational
witness on Y.  The checker verifies, in order: containment of Y in the
prolongation, dominance of every projection (by elimination ideals),
smoothness of the witness, irreducibility where the polynomial toolkit
can decide it (user assertions cover the rest), and nonemptiness of U.

The search procedure looks for rational points a of X whose canonical
prolongation point lands in U.  Over Q the conclusion of the axiom can
genuinely fail (Q is not large); emptiness of the search is reported,
never treated as a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import solve_zero_dim
from .poly import (
    EmptyVarietyError,
    Ideal,
    MultiPoly,
    NotOnVarietyError,
    as_poly,
    decide_irreducibility,
    format_poly,
    jacobian_rank_at,
)
from .prolongation import (
    BaseDStructure,
    ProlongedVariety,
    pi_hat,
    prolong,
    sigma_twist,
)
from .dvariety import _sample_points


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


def _containment_entries(inst):
    bad = None
    for f, comps in inst.prolonged.per_generator:
        for j, comp in enumerate(comps):
            if not inst.y_ideal.contains(comp):
                bad = (f, j, comp)
                break
        if bad:
            break
    if bad:
        f, j, comp = bad
        return HypothesisEntry(
            "Y_subset_of_tauX",
            "refuted",
            f"component {j} of {format_poly(f)} is not in I(Y): {format_poly(comp)}",
        )
    return HypothesisEntry("Y_subset_of_tauX", "verified")


def _dominance_entries(inst):
    algebra = inst.base.algebra
    comps = algebra.components
    entries = []
    if any(c.residue_dim != 1 for c in comps):
        return [
            HypothesisEntry(
                "dominance",
                "undetermined",
                "some local component has residue degree > 1",
            )
        ]
    for i in range(len(comps)):
        projection = pi_hat(inst.prolonged, i)
        twisted = Ideal(
            inst.x_ideal.variables,
            [
                sigma_twist(inst.base, i, g).on_variables(inst.x_ideal.variables)
                for g in inst.x_ideal.generators
            ],
            inst.x_ideal.budget,
        )

        row = comps[i].residue_matrix[0]
        indicator = None
        ones = [j for j, c in enumerate(row) if c == 1]
        if len(ones) == 1 and all(c == 0 for j, c in enumerate(row) if j != ones[0]):
            indicator = ones[0]

        if indicator is not None:
            zname = dict(zip(inst.xvars, inst.prolonged.block(indicator)))
        else:
            zname = {x: f"{x}_sigma{i}" for x in inst.xvars}
        graph_vars = inst.y_ideal.variables + tuple(
            zname[x] for x in inst.xvars if zname[x] not in inst.y_ideal.variables
        )
        gens = [g.on_variables(graph_vars) for g in inst.y_ideal.generators]
        for x in inst.xvars:
            z = MultiPoly.variable(zname[x], graph_vars)
            combo = projection.images[x][0].on_variables(graph_vars)
            if not (z - combo).is_zero():
                gens.append(z - combo)
        keep = tuple(inst.base.params) + tuple(zname[x] for x in inst.xvars)
        image_closure = Ideal(graph_vars, gens, inst.y_ideal.budget).elimination_ideal(keep)

        rename = {zname[x]: MultiPoly.variable(x, inst.x_ideal.variables) for x in inst.xvars}
        renamed = Ideal(
            inst.x_ideal.variables,
            [g.substitute(rename).on_variables(inst.x_ideal.variables)
             for g in image_closure.generators],
            inst.x_ideal.budget,
        )

        name = f"dominance_pi_{i}"
        missing = [g for g in renamed.generators if not twisted.contains(g)]
        if missing:
            witness = missing[0].substitute(
                {x: MultiPoly.variable(zname[x], image_closure.variables) for x in inst.xvars}
            )
            entries.append(
                HypothesisEntry(
                    name,
                    "refuted",
                    f"projection {i} is not dominant: elimination ideal contains "
                    f"{format_poly(witness)}",
                )
            )
            continue
        backwards = [g for g in twisted.generators if not renamed.contains(g)]
        if backwards:
            entries.append(
                HypothesisEntry(
                    name,
                    "refuted",
                    f"image closure does not contain the twisted variety: "
                    f"{format_poly(backwards[0])} is missing",
                )
            )
            continue
        entries.append(HypothesisEntry(name, "verified"))
    return entries


def _smoothness_entry(inst):
    if inst.witness is None:
        return HypothesisEntry("smooth_witness", "undetermined", "no witness supplied")
    try:
        rank = jacobian_rank_at(
            inst.y_ideal.generators, inst.y_ideal.variables, inst.witness
        )
    except NotOnVarietyError as exc:
        return HypothesisEntry("smooth_witness", "refuted", f"witness not on Y: {exc}")
    try:
        dim = inst.y_ideal.krull_dimension()
    except EmptyVarietyError:
        return HypothesisEntry("smooth_witness", "refuted", "Y is empty")
    codim = len(inst.y_ideal.variables) - dim
    if rank == codim:
        return HypothesisEntry(
            "smooth_witness", "verified", f"Jacobian rank {rank} = codimension"
        )
    return HypothesisEntry(
        "smooth_witness",
        "refuted",
        f"Jacobian rank {rank} != codimension {codim} at the witness",
    )


def _irreducibility_entry(inst, which):
    ideal = inst.x_ideal if which == "X" else inst.y_ideal
    result = decide_irreducibility(ideal)
    name = f"{which}_irreducible"
    if result.status == "irreducible":
        return HypothesisEntry(name, "verified", result.method)
    if result.status in ("reducible", "empty"):
        return HypothesisEntry(name, "refuted", f"{result.method}: {result.detail}")
    if which in inst.assert_irreducible:
        return HypothesisEntry(name, "asserted", "user assertion; not decided here")
    return HypothesisEntry(name, "undetermined", result.detail or result.method)


def _open_set_entry(inst):
    if inst.h is None:
        if inst.y_ideal.is_trivial():
            return HypothesisEntry("U_nonempty", "refuted", "Y itself is empty")
        return HypothesisEntry("U_nonempty", "verified", "U = Y")
    if inst.y_ideal.contains(inst.h):
        return HypothesisEntry(
            "U_nonempty", "refuted", "h vanishes on all of Y, so U is empty"
        )
    return HypothesisEntry("U_nonempty", "verified", "h does not vanish on Y")


def check_instance(inst):
    """Run every hypothesis check and collect the verdict."""
    entries = [_containment_entries(inst)]
    entries.extend(_dominance_entries(inst))
    entries.append(_smoothness_entry(inst))
    entries.append(_irreducibility_entry(inst, "X"))
    entries.append(_irreducibility_entry(inst, "Y"))
    entries.append(_open_set_entry(inst))
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
    candidate_consistent: bool | None = None

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


def find_nabla_point(inst, candidate=None):
    """Search for rational a in X(Q) whose canonical prolongation point
    (a, b_1 a, ..., b_l a) satisfies I(Y) and avoids V(h).

    ``candidate`` is an optional verified operator on the coordinate ring
    of X (for instance from extend_by_point); when given, the result also
    records whether its graph lies inside Y.  Emptiness over Q never
    refutes the instance; Q is not large.
    """
    algebra = inst.base.algebra
    if inst.base.params:
        raise UcdError("point search is implemented for parameter-free instances")

    consistent = None
    if candidate is not None:
        subs = {
            name: candidate.images[x].comps[level]
            for level in range(algebra.dim)
            for x, name in zip(inst.xvars, inst.prolonged.block(level))
        }
        consistent = all(
            inst.x_ideal.contains(g.substitute(subs).on_variables(inst.x_ideal.variables))
            for g in inst.y_ideal.generators
        )

    subs = {
        name: MultiPoly.variable(x, inst.xvars).scale(algebra.unit[level])
        for level in range(algebra.dim)
        for x, name in zip(inst.xvars, inst.prolonged.block(level))
    }
    locus_gens = list(inst.x_ideal.generators)
    locus_gens.extend(
        g.substitute(subs).on_variables(inst.xvars) for g in inst.y_ideal.generators
    )
    locus = Ideal(inst.xvars, [g for g in locus_gens if not g.is_zero()], inst.x_ideal.budget)

    def nabla_of(a):
        out = []
        for level in range(algebra.dim):
            for c in a:
                out.append(algebra.unit[level] * Fraction(c))
        return tuple(out)

    def in_open_set(nb):
        if inst.h is None:
            return True
        coords = dict(zip(inst.y_ideal.variables, nb))
        return inst.h.evaluate(coords) != 0

    if locus.is_trivial():
        return NablaSearchResult(
            locus, None, (), note="locus is empty", candidate_consistent=consistent
        )
    dim = locus.krull_dimension()
    if dim == 0:
        solved = solve_zero_dim(locus)
        hits = []
        for a in solved.points:
            nb = nabla_of(a)
            coords = dict(zip(inst.y_ideal.variables, nb))
            assert all(g.evaluate(coords) == 0 for g in inst.y_ideal.generators)
            if in_open_set(nb):
                hits.append((a, nb))
        note = "" if hits else "no rational point in U found"
        if solved.has_nonrational and not hits:
            note += "; non-rational locus points exist" if note else "non-rational locus points exist"
        return NablaSearchResult(
            locus, 0, tuple(hits), note=note, candidate_consistent=consistent
        )
    samples = []
    for a in _sample_points(locus, limit=8):
        nb = nabla_of(a)
        if in_open_set(nb):
            samples.append((a, nb))
    note = "positive-dimensional locus"
    if not samples:
        note += "; no sample point found"
    return NablaSearchResult(
        locus, dim, (), tuple(samples), note=note, candidate_consistent=consistent
    )


# ---------------------------------------------------------------------------
# difference-largeness instance data


@dataclass(frozen=True)
class DifferencePointEntry:
    point: tuple
    component: int
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class DifferenceLargeReport:
    entries: tuple

    @property
    def points_checked(self):
        return len({e.point for e in self.entries})

    @property
    def points_passed(self):
        failing = {e.point for e in self.entries if not e.passed}
        return self.points_checked - len(failing)

    @property
    def all_passed(self):
        return all(e.passed for e in self.entries)


def check_difference_large_instance(inst, sigma_maps, points):
    """Verify that supplied rational points of Y have the shape
    (a, sigma_1(a), ..., sigma_t(a)) for the given endomorphism data.

    Density of such points is what the largeness notion asks for; it is
    not decidable here and is never claimed - this reports only the
    per-point outcome and the count.
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
    return DifferenceLargeReport(tuple(entries))
