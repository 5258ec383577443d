"""Certificates at the witness against the Groebner-basis path.

``check_instance`` answers a hypothesis by a certificate at the witness
or over a graph X where one applies and by Groebner bases of Y otherwise.
On prolongations of four curves over local and split algebras, intact and
with the broken extra generator x_0, and with the witness on and off Y,
every status must be the one the Groebner-basis helpers give when called
directly.  With the other broken extra generators, a certificate may also
verify what the helpers leave undetermined.  Without a witness, a
projection that Y's leading monomials show dense must read as its
elimination ideal reads.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfields.algebra import from_presentation, product_algebra, rational_field_algebra
from dfields import linalg, poly, ucd
from dfields.cli import parse, run
from dfields.poly import Ideal, IrreducibilityResult, MultiPoly, jacobian_at, parse_polynomial
from dfields.prolongation import BaseDStructure, pi_hat, prolong
from dfields.ucd import (
    _at_witness,
    _complete_intersection,
    _containment_entry,
    _dense_projection,
    _differential_rank,
    _dominance_certified,
    _dominance_entry,
    _irreducibility_certificate,
    _irreducibility_entry,
    _open_set_certificate,
    _open_set_entry,
    _outside_span,
    _smoothness_entry,
    _twisted,
    check_instance,
    ucd_instance,
)

# name: (variables, generators, a rational point)
CURVES = {
    "elliptic": (("x", "y"), ["y^2 - x^3 - x"], (0, 0)),
    "circle": (("x", "y"), ["x^2 + y^2 - 1"], (Fraction(3, 5), Fraction(4, 5))),
    "parabola": (("x", "y"), ["y - x^2"], (2, 4)),
    "twisted_cubic": (("x", "y", "z"), ["y - x^2", "z - x^3"], (-1, 1, -1)),
}
ALGEBRAS = ("dual", "trunc3", "qxq", "dual_x_q", "q3")
# extra generators of broken twins of Y: over a graph X, V(r) is a
# hyperplane, a hyperplane, two hyperplanes, irreducible over Q only, empty
BROKEN = ("x_0", "x_1 - 1", "x_0*x_1", "x_0^2 + 1", "1")


def _instances(algebra, curve, broken=BROKEN[:1], xgens=None):
    """(label, instance) for intact Y and Y plus each of ``broken``,
    witness on and off; ``xgens`` writes X by other generators."""
    xvars, curve_gens, point = CURVES[curve]
    xgens = xgens or curve_gens
    base = BaseDStructure.trivial(algebra)
    x_ideal = Ideal(xvars, xgens)
    prolonged = prolong(base, x_ideal)
    yvars = prolonged.variables
    on = tuple(Fraction(c) * u for u in algebra.unit for c in point)
    off = (on[0] + 1,) + on[1:]
    for extra in (None,) + tuple(broken):
        gens = list(prolonged.prolonged_ideal.generators)
        if extra is not None:
            gens.append(parse_polynomial(extra, yvars))
        y = Ideal(yvars, gens)
        for label, witness in (("on", on), ("off", off)):
            name = f"{'intact' if extra is None else 'broken ' + extra}/{label}"
            yield name, ucd_instance(base, x_ideal, y, witness=witness)


def _groebner_path(inst):
    """The entries of the Groebner-basis helpers, called directly."""
    entries = [_containment_entry(inst)]
    entries.extend(
        _dominance_entry(inst, i, _twisted(inst, i))
        for i in range(len(inst.base.algebra.components))
    )
    entries.append(_smoothness_entry(inst, _at_witness(inst)))
    entries.append(_irreducibility_entry(inst, "X"))
    entries.append(_irreducibility_entry(inst, "Y"))
    entries.append(_open_set_entry(inst))
    return entries


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("algebra_name", ALGEBRAS)
def test_certificates_agree_with_the_groebner_path(algebra_name, curve, request):
    algebra = request.getfixturevalue(algebra_name)
    for label, inst in _instances(algebra, curve):
        report = check_instance(inst)
        fallback = [_containment_entry(inst)]
        fallback.extend(
            _dominance_entry(inst, i, _twisted(inst, i)) for i in range(len(algebra.components))
        )
        fallback.append(_smoothness_entry(inst, _at_witness(inst)))
        fallback.append(_irreducibility_entry(inst, "X"))
        fallback.append(_irreducibility_entry(inst, "Y"))
        fallback.append(_open_set_entry(inst))
        assert [(e.name, e.status) for e in report.entries] == [
            (e.name, e.status) for e in fallback
        ], label


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("algebra_name", ALGEBRAS)
def test_certificates_never_contradict_the_groebner_path(algebra_name, curve, request):
    # where the helpers decide, the statuses agree; where they do not, a
    # certificate may only verify
    algebra = request.getfixturevalue(algebra_name)
    for label, inst in _instances(algebra, curve, BROKEN[1:]):
        report = check_instance(inst)
        fallback = _groebner_path(inst)
        assert [e.name for e in report.entries] == [e.name for e in fallback]
        for got, helper in zip(report.entries, fallback):
            allowed = {helper.status}
            if helper.status in ("undetermined", "asserted"):
                allowed.add("verified")
            assert got.status in allowed, (label, got, helper)


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("algebra_name", ALGEBRAS)
def test_intact_prolongations_are_verified_by_certificates(algebra_name, curve, request):
    algebra = request.getfixturevalue(algebra_name)
    (_, inst), = [(l, i) for l, i in _instances(algebra, curve) if l == "intact/on"]
    at = _at_witness(inst)
    assert at is not None and at.smooth
    assert _outside_span(inst) == []
    assert _open_set_certificate(inst, at) is not None
    assert _irreducibility_certificate(inst, at) is not None
    # every X here is decided irreducible, the twisted cubic as a graph, so
    # no projection needs its elimination ideal
    dominance = [
        _dominance_certified(inst, i, at, _twisted(inst, i))
        for i in range(len(algebra.components))
    ]
    assert all(dominance)


@pytest.mark.parametrize("algebra_name", ("trunc3", "dual_x_q"))
def test_intact_twisted_cubic_is_verified_without_elimination(algebra_name, request, monkeypatch):
    # X is a graph, so every hypothesis has its certificate: no elimination
    # ideal, and no Groebner basis on the variables of Y
    algebra = request.getfixturevalue(algebra_name)
    (_, inst), = [(l, i) for l, i in _instances(algebra, "twisted_cubic") if l == "intact/on"]

    def no_elimination(self, keep_vars):
        raise AssertionError("elimination ideal computed")

    rings = []
    groebner = poly.groebner_basis_of

    def recorded(generators, variables, *args):
        rings.append(tuple(variables))
        return groebner(generators, variables, *args)

    monkeypatch.setattr(Ideal, "elimination_ideal", no_elimination)
    monkeypatch.setattr(poly, "groebner_basis_of", recorded)
    report = check_instance(inst)
    statuses = {e.name: (e.status, e.detail) for e in report.entries}
    assert report.verdict == "verified"
    assert statuses["X_irreducible"] == statuses["Y_irreducible"] == ("verified", "graph")
    dominance = [e.status for e in report.entries if e.name.startswith("dominance")]
    assert dominance == ["verified"] * len(algebra.components)
    assert rings and all(len(r) == len(CURVES["twisted_cubic"][0]) for r in rings)


def test_broken_twisted_cubic_is_refuted_in_the_free_coordinates(monkeypatch):
    # Y = tau X plus x_0 over Q[e]/(e^8): the reduction modulo tau X's graph
    # basis is (x_0) on the 8 free coordinates x_j, so no Groebner basis and
    # no elimination ideal is computed on the 24 variables of Y
    algebra = from_presentation(["e"], ["e^8"])
    xvars, xgens, point = CURVES["twisted_cubic"]
    base = BaseDStructure.trivial(algebra)
    x_ideal = Ideal(xvars, xgens)
    prolonged = prolong(base, x_ideal)
    yvars = prolonged.variables
    y = Ideal(yvars, list(prolonged.prolonged_ideal.generators) + [parse_polynomial("x_0", yvars)])
    witness = tuple(Fraction(c) * u for u in algebra.unit for c in point)
    inst = ucd_instance(base, x_ideal, y, witness=witness)

    rings = []
    groebner, eliminate = poly.groebner_basis_of, Ideal.elimination_ideal

    def recorded_groebner(generators, variables, *args):
        rings.append(tuple(variables))
        return groebner(generators, variables, *args)

    def recorded_elimination(self, keep_vars):
        rings.append(self.variables)
        return eliminate(self, keep_vars)

    monkeypatch.setattr(poly, "groebner_basis_of", recorded_groebner)
    monkeypatch.setattr(Ideal, "elimination_ideal", recorded_elimination)
    report = check_instance(inst)
    statuses = {e.name: (e.status, e.detail) for e in report.entries}
    assert report.verdict == "refuted"
    assert statuses["dominance_pi_0"] == (
        "refuted", "projection 0 is not dominant: elimination ideal contains x_0"
    )
    assert statuses["Y_irreducible"] == ("verified", "graph")
    assert rings and all(set(r) != set(yvars) for r in rings)


def test_certificates_agree_with_the_groebner_path_over_a_parameter(qxq):
    # sigma_1 shifts the parameter: t -> t + 1, so pi_1 lands in x^2 = t + 1
    base = BaseDStructure(qxq, ("t",), {"t": ("t", "t + 1")})
    x_ideal = Ideal(("t", "x"), ["x^2 - t"])
    prolonged = prolong(base, x_ideal)
    yvars = prolonged.variables
    on = (Fraction(9, 16), Fraction(3, 4), Fraction(5, 4))
    for extra in ([], [parse_polynomial("x_0 - 3/4", yvars)], [parse_polynomial("t", yvars)]):
        y = Ideal(yvars, list(prolonged.prolonged_ideal.generators) + extra)
        for witness in (on, (0, 0, 1), (1, 1, 1)):
            inst = ucd_instance(base, x_ideal, y, witness=witness)
            at = _at_witness(inst)
            fallback = [
                _containment_entry(inst),
                _dominance_entry(inst, 0, _twisted(inst, 0)),
                _dominance_entry(inst, 1, _twisted(inst, 1)),
                _smoothness_entry(inst, at),
                _irreducibility_entry(inst, "X"),
                _irreducibility_entry(inst, "Y"),
                _open_set_entry(inst),
            ]
            report = check_instance(inst)
            assert [(e.name, e.status) for e in report.entries] == [
                (e.name, e.status) for e in fallback
            ], (extra, witness)
            if not extra and witness == on:
                assert all(_dominance_certified(inst, i, at, _twisted(inst, i)) for i in (0, 1))


def _without_witness(instances):
    """(label, instance) for each ``_instances`` Y, with the witness dropped."""
    for label, inst in instances:
        if label.endswith("/on"):
            yield label[:-3], ucd_instance(inst.base, inst.x_ideal, inst.y_ideal)


@pytest.mark.parametrize("curve", ("circle", "elliptic"))
@pytest.mark.parametrize("algebra_name", ALGEBRAS + ("dual_x_q_x_q",))
def test_leading_monomials_certify_dominance_as_the_elimination_does(algebra_name, curve, request):
    # X is no graph and there is no witness, so each projection is either
    # dense by Y's leading monomials or answered by its elimination ideal
    if algebra_name == "dual_x_q_x_q":
        q = rational_field_algebra()
        algebra = product_algebra(from_presentation(["e"], ["e^2"]), q, q)
    else:
        algebra = request.getfixturevalue(algebra_name)
    certified = []
    for label, inst in _without_witness(_instances(algebra, curve, BROKEN)):
        report = check_instance(inst)
        for i in range(len(algebra.components)):
            eliminated = _dominance_entry(inst, i, _twisted(inst, i))
            assert report.entry(f"dominance_pi_{i}") == eliminated, (label, i)
            if _dense_projection(inst, i, _twisted(inst, i)):
                certified.append((label, i))
    # tau X's leads past block 0 lie in the higher blocks, so block 0 is dense
    assert ("intact", 0) in certified
    assert ("broken x_0", 0) not in certified and ("broken 1", 0) not in certified


def _point_instance(extra):
    """X the rational point x = 0, written as x^2 = 0 so that it is no graph,
    over Q[e]/(e^2); Y its prolongation plus ``extra``."""
    base = BaseDStructure.trivial(from_presentation(["e"], ["e^2"]))
    x_ideal = Ideal(("x",), ["x^2"])
    prolonged = prolong(base, x_ideal)
    gens = list(prolonged.prolonged_ideal.generators) + [extra]
    return ucd_instance(base, x_ideal, Ideal(prolonged.variables, gens))


def test_an_empty_y_is_not_dense_over_a_point():
    # X^sigma_0 has dimension 0, which the empty set of variables reaches;
    # but V(Y) is empty, so the projection is refuted by its elimination
    inst = _point_instance("x_0 - 5")
    assert inst.y_ideal.is_trivial()
    entry = check_instance(inst).entry("dominance_pi_0")
    assert (entry.status, entry.detail) == (
        "refuted", "projection 0 is not dominant: elimination ideal contains 1"
    )
    inst = _point_instance("x_1")
    assert _dense_projection(inst, 0, inst.x_ideal)
    assert check_instance(inst).entry("dominance_pi_0").status == "verified"


def test_a_y_outside_tau_x_is_never_certified_dense(dual, monkeypatch):
    # Y is the plane x_1 = y_1 = 0, whose projection to block 0 is dense in
    # the plane, not in the circle; Y is not inside tau X, so no certificate
    base = BaseDStructure.trivial(dual)
    x_ideal = Ideal(("x", "y"), ["x^2 + y^2 - 1"])
    yvars = prolong(base, x_ideal).variables
    inst = ucd_instance(base, x_ideal, Ideal(yvars, ["x_1", "y_1"]))
    consulted = []
    monkeypatch.setattr(ucd, "_dense_projection", lambda *args: consulted.append(args))
    report = check_instance(inst)
    assert report.entry("Y_subset_of_tauX").status == "refuted"
    assert report.entry("dominance_pi_0") == _dominance_entry(inst, 0, _twisted(inst, 0))
    assert report.entry("dominance_pi_0").status == "refuted"
    assert consulted == []


def _shift_instance(qxq, extra=(), witness=None):
    """X = (x^2 - t) over the base t -> (t, t + 1) on Q x Q, Y = tau X plus ``extra``."""
    base = BaseDStructure(qxq, ("t",), {"t": ("t", "t + 1")})
    x_ideal = Ideal(("t", "x"), ["x^2 - t"])
    prolonged = prolong(base, x_ideal)
    y = Ideal(prolonged.variables, list(prolonged.prolonged_ideal.generators) + list(extra))
    return ucd_instance(base, x_ideal, y, witness=witness)


def test_leading_monomials_certify_dominance_over_a_parameter(qxq, monkeypatch):
    # tau X = (x_0^2 - t, x_1^2 - t - 1): no block alone is independent
    # modulo the leads x_0^2 and x_1^2, but the parameter t is
    inst = _shift_instance(qxq)
    assert all(_dense_projection(inst, i, _twisted(inst, i)) for i in (0, 1))
    expected = [_dominance_entry(inst, i, _twisted(inst, i)) for i in (0, 1)]

    def no_elimination(self, keep_vars):
        raise AssertionError("elimination ideal computed")

    monkeypatch.setattr(Ideal, "elimination_ideal", no_elimination)
    report = check_instance(inst)
    assert [report.entry(f"dominance_pi_{i}") for i in (0, 1)] == expected
    assert [e.status for e in expected] == ["verified", "verified"]
    # t fixed: Y is finitely many points, and its projections are not dense
    inst = _shift_instance(qxq, ["t - 9/16"])
    assert not any(_dense_projection(inst, i, _twisted(inst, i)) for i in (0, 1))


def test_each_twisted_x_is_decided_once_per_check(qxq, monkeypatch):
    # X^sigma_1 = (x^2 - t - 1), a new ideal over the parameter; without a
    # witness only Y's leading monomials consult it, and with t fixed the
    # witness certificate fails at its rank before they do.  X^sigma_0 has
    # the generators of X, which X_irreducible decides as well.
    decided = []
    inner = poly._decide_irreducibility

    def counted(ideal):
        decided.append(ideal.generators)
        return inner(ideal)

    monkeypatch.setattr(poly, "_decide_irreducibility", counted)
    twisted = (parse_polynomial("x^2 - t - 1", ("t", "x")),)
    on = (Fraction(9, 16), Fraction(3, 4), Fraction(5, 4))
    for extra, witness in (((), None), ((), on), (["t - 9/16"], on)):
        decided.clear()
        check_instance(_shift_instance(qxq, extra, witness))
        assert decided.count(twisted) == 1, (extra, witness)

def _counted_prolong(monkeypatch):
    """Patch the prolong that ucd calls; returns its list of calls."""
    calls = []

    def counted(base, ideal):
        calls.append(ideal.generators)
        return prolong(base, ideal)

    monkeypatch.setattr(ucd, "prolong", counted)
    return calls


@pytest.mark.parametrize("curve", ("parabola", "twisted_cubic"))
@pytest.mark.parametrize("algebra_name", ALGEBRAS)
def test_a_graph_x_reduces_y_on_the_instances_own_prolongation(
    algebra_name, curve, request, monkeypatch
):
    # X written as its graph: the reduction's tau X is the instance's
    algebra = request.getfixturevalue(algebra_name)
    for label, inst in _instances(algebra, curve):
        calls = _counted_prolong(monkeypatch)
        check_instance(inst)
        assert calls == [], label


@pytest.mark.parametrize("algebra_name", ALGEBRAS)
def test_a_graph_x_written_otherwise_is_prolonged_once_more(algebra_name, request, monkeypatch):
    # 2*y - 2*x^2 is not the graph's y - x^2, so the graph is prolonged anew
    algebra = request.getfixturevalue(algebra_name)
    for label, inst in _instances(algebra, "parabola", xgens=["2*y - 2*x^2"]):
        calls = _counted_prolong(monkeypatch)
        report = check_instance(inst)
        assert len(calls) == 1 and calls[0] != inst.x_ideal.generators, label
        assert [(e.name, e.status) for e in report.entries] == [
            (e.name, e.status) for e in _groebner_path(inst)
        ], label


def _gradient_rank(inst, i, at):
    """The rank of d(pi_i) on ker J from the gradients of the parameters and
    of the images[x][0] at the witness, evaluated term by term."""
    variables = inst.y_ideal.variables
    projection = pi_hat(inst.prolonged, i)
    coords = [MultiPoly.variable(p, variables) for p in inst.base.params]
    coords.extend(projection.images[x][0] for x in inst.xvars)
    image = [
        [sum(g * k for g, k in zip(row, vec) if g) for vec in at.kernel]
        for _, row, _ in poly._int_gradients(coords, variables, inst.witness)
    ]
    return len(linalg.int_rref(image, full=False))


def _differential_ranks(instances):
    """{(label, i): rank of d(pi_i)} over the instances with a smooth
    witness, asserting that the coefficient rows give the gradient rank."""
    ranks = {}
    for label, inst in instances:
        at = _at_witness(inst)
        if at is None or not at.smooth:
            continue
        for i in range(len(inst.base.algebra.components)):
            rank = _differential_rank(inst, i, at)
            assert rank == _gradient_rank(inst, i, at), (label, i)
            ranks[label, i] = rank
    return ranks


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("algebra_name", ALGEBRAS)
def test_the_differential_of_pi_is_its_coefficient_rows(algebra_name, curve, request):
    algebra = request.getfixturevalue(algebra_name)
    ranks = _differential_ranks(_instances(algebra, curve))
    assert ranks[("intact/on", 0)] == 1


def test_the_differential_of_pi_over_a_parameter_is_its_coefficient_rows(qxq):
    # the base and the Y of the parameter test above, and the line of fixed
    # x_0 and x_1, along which only t moves: there only the parameter's row
    # sees the tangent direction
    base = BaseDStructure(qxq, ("t",), {"t": ("t", "t + 1")})
    x_ideal = Ideal(("t", "x"), ["x^2 - t"])
    prolonged = prolong(base, x_ideal)
    yvars = prolonged.variables
    tau = list(prolonged.prolonged_ideal.generators)
    on = (Fraction(9, 16), Fraction(3, 4), Fraction(5, 4))
    cases = {
        "tau X": tau, "x_0 fixed": tau + ["x_0 - 3/4"], "t = 0": tau + ["t"],
        "line": ["x_0 - 3/4", "x_1 - 5/4"],
    }
    instances = [
        ((name, witness), ucd_instance(base, x_ideal, Ideal(yvars, gens), witness=witness))
        for name, gens in cases.items()
        for witness in (on, (0, 0, 1), (1, 1, 1))
    ]
    ranks = _differential_ranks(instances)
    assert ranks[("tau X", on), 0] == ranks[("tau X", on), 1] == 1
    assert ranks[("line", on), 0] == ranks[("line", on), 1] == 1


NODE_DOCUMENT = """
algebra q = Q[t]/(t);

variety space { vars = [x, y, z]; }

ucd node {
  algebra = q;
  X = space;
  Y = (z_0*(x_0 - 5), z_0*(y_0^2 - (z_0 - 1)^2*z_0));
  witness = (5, 0, 1);
}
"""


def test_rank_equal_to_codimension_does_not_verify_a_node_on_a_smaller_component():
    # Y is the plane z = 0 and the nodal curve x = 5, y^2 = (z - 1)^2 z; the
    # witness is the node, where the Jacobian rank 1 equals the codimension
    # of the plane but the curve is singular
    lines = run("ucd check", parse(NODE_DOCUMENT)).lines
    assert (
        "  smooth_witness: undetermined (Jacobian rank 1 = codimension 1, but Y is not "
        "known to be equidimensional: a smaller component through the witness may be "
        "singular there)"
    ) in lines


def _node_instance(gens, witness):
    base = BaseDStructure.trivial(rational_field_algebra())
    x_ideal = Ideal(("x", "y", "z"), [])
    yvars = prolong(base, x_ideal).variables
    return ucd_instance(base, x_ideal, Ideal(yvars, gens), witness=witness)


def test_rank_equal_to_codimension_verifies_an_equidimensional_y(monkeypatch):
    cases = (
        # two generators in codimension 2
        (["x_0 - 5", "y_0^2 - z_0^3 - z_0"], (5, 0, 0)),
        # four generators, the first two of which generate
        (["x_0 - y_0", "y_0 - z_0", "x_0 - z_0", "(x_0 - y_0)^2"], (1, 1, 1)),
    )
    for gens, witness in cases:
        inst = _node_instance(gens, witness)
        entry = _smoothness_entry(inst, _at_witness(inst))
        assert (entry.status, entry.detail) == ("verified", "Jacobian rank 2 = codimension")
    # Y decided irreducible: every component through the witness is Y
    node = _node_instance(
        ["z_0*(x_0 - 5)", "z_0*(y_0^2 - (z_0 - 1)^2*z_0)"], (5, 0, 1)
    )
    at = _at_witness(node)
    assert _smoothness_entry(node, at).status == "undetermined"
    monkeypatch.setattr(
        ucd, "decide_irreducibility", lambda ideal: IrreducibilityResult("irreducible", "given")
    )
    assert _smoothness_entry(node, at).status == "verified"


def _reference_complete_intersection(ideal, point, codim):
    """(chosen, answer) of _complete_intersection's greedy choice, with one
    Fraction Jacobian of chosen + [g] and its rank per candidate g."""
    generators = [g for g in ideal.generators if not g.is_zero()]
    basis = ideal.groebner_basis()
    chosen = []
    for g in generators + list(basis):
        if len(chosen) == codim:
            break
        if linalg.rank(jacobian_at(chosen + [g], ideal.variables, point)) > len(chosen):
            chosen.append(g)
    if len(chosen) < codim:
        return chosen, False
    return chosen, all(g in chosen for g in generators) or (
        Ideal(ideal.variables, chosen, ideal.budget).groebner_basis() == basis
    )


_XYZ = ("x", "y", "z")
# the exponents of the monomials of degree at most 2 in x, y, z
_QUADRATIC = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]


@settings(max_examples=60, deadline=None)
@given(
    point=st.tuples(*[st.fractions(-2, 2, max_denominator=3)] * 3),
    seeds=st.lists(
        st.dictionaries(st.sampled_from(_QUADRATIC), st.integers(-3, 3), min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ),
    extras=st.lists(st.tuples(st.integers(0, 2), st.none() | st.integers(0, 2)), max_size=3),
    codim=st.integers(0, 3),
)
def test_complete_intersection_matches_the_fraction_jacobian_route(point, seeds, extras, codim):
    """Ideals that vanish at a rational point, with repeated, product and
    zero generators: the polynomials chosen and the answer are those of one
    Fraction Jacobian rank per candidate."""
    at = dict(zip(_XYZ, point))
    gens = []
    for terms in seeds:
        f = MultiPoly(_XYZ, {e: Fraction(c) for e, c in terms.items()})
        gens.append(f - f.evaluate(at))
    gens.extend(
        gens[i % len(gens)] if j is None else gens[i % len(gens)] * gens[j % len(gens)]
        for i, j in extras
    )
    ideal = Ideal(_XYZ, gens)
    expected_chosen, expected = _reference_complete_intersection(ideal, point, codim)
    # _complete_intersection adds one candidate's row to its echelon per
    # candidate it examines; the candidates whose row joins the echelon
    # are the ones it chooses
    grew, echelon_add = [], linalg.echelon_add

    def recording(echelon, vec, width):
        size = len(echelon)
        rest = echelon_add(echelon, vec, width)
        grew.append(len(echelon) > size)
        return rest

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "echelon_add", recording)
        answer = _complete_intersection(ideal, point, codim)
    candidates = [g for g in gens if not g.is_zero()] + list(ideal.groebner_basis())
    assert [g for g, new in zip(candidates, grew) if new] == expected_chosen
    assert answer is expected


def test_smoothness_fallback_reads_the_rank_at_the_witness(dual):
    # a repeated and a zero generator: the certificate fails, and the rank
    # over Y's nonzero generators is the rank over all of them
    base = BaseDStructure.trivial(dual)
    x_ideal = Ideal(("x", "y"), ["y^2 - x^3 - x"])
    prolonged = prolong(base, x_ideal)
    gens = list(prolonged.prolonged_ideal.generators)
    zero = parse_polynomial("0", prolonged.variables)
    y = Ideal(prolonged.variables, gens + [gens[0], zero])
    entries = []
    for witness in ((0, 0, 0, 0), (1, 0, 0, 0)):
        inst = ucd_instance(base, x_ideal, y, witness=witness)
        entries.append(check_instance(inst).entry("smooth_witness"))
    assert [(e.status, e.detail) for e in entries] == [
        ("verified", "Jacobian rank 2 = codimension"),
        ("refuted", "witness not on Y: point does not satisfy generator -x_0^3 + y_0^2 - x_0"),
    ]
