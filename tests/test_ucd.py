"""Instance checking and point search for the axiom-scheme hypotheses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfields.cli import parse, run
from dfields.dvariety import make_dvariety, rational_sharp_points, zero_section
from dfields.poly import Ideal, parse_polynomial
from dfields.prolongation import BaseDStructure
from dfields.ucd import (
    UcdError,
    check_difference_large_instance,
    check_instance,
    find_nabla_point,
    ucd_instance,
)


def P(text, variables=None):
    return parse_polynomial(text, variables)


@pytest.fixture
def trivial_dual(dual):
    return BaseDStructure.trivial(dual)


@pytest.fixture
def line():
    return Ideal(("x",), [])


def _quadratic_instance(base, line, **kwargs):
    y = Ideal(("x_0", "x_1"), ["x_1 - x_0^2"])
    return ucd_instance(base, line, y, **kwargs)


# ---------------------------------------------------------------------------
# hypothesis checking


def test_quadratic_flow_instance_verifies(trivial_dual, line):
    inst = _quadratic_instance(trivial_dual, line, witness=(0, 0))
    report = check_instance(inst)
    assert report.verdict == "verified"
    assert report.exit_code == 0
    assert report.entry("Y_subset_of_tauX").status == "verified"
    assert report.entry("dominance_pi_0").status == "verified"
    assert report.entry("smooth_witness").status == "verified"
    assert report.entry("X_irreducible").status == "verified"
    assert report.entry("Y_irreducible").status == "verified"
    assert report.entry("U_nonempty").status == "verified"


def test_broken_dominance_refuted_with_elimination_witness(trivial_dual, line):
    inst = ucd_instance(
        trivial_dual, line, Ideal(("x_0", "x_1"), ["x_0"]), witness=(0, 0)
    )
    report = check_instance(inst)
    assert report.verdict == "refuted"
    assert report.exit_code == 2
    entry = report.entry("dominance_pi_0")
    assert entry.status == "refuted"
    assert "x_0" in entry.detail


def test_full_prolongation_is_a_valid_instance(trivial_dual, line):
    inst = ucd_instance(trivial_dual, line, Ideal(("x_0", "x_1"), []), witness=(0, 0))
    assert check_instance(inst).verdict == "verified"


def test_containment_failure_names_the_component(trivial_dual):
    parabola = Ideal(("x", "y"), ["y - x^2"])
    # a Y that misses the level-1 constraint of the prolongation
    y = Ideal(
        ("x_0", "y_0", "x_1", "y_1"), ["y_0 - x_0^2"]
    )
    inst = ucd_instance(trivial_dual, parabola, y)
    report = check_instance(inst)
    entry = report.entry("Y_subset_of_tauX")
    assert entry.status == "refuted"
    assert "component 1" in entry.detail


def test_missing_witness_is_undetermined(trivial_dual, line):
    inst = _quadratic_instance(trivial_dual, line)
    report = check_instance(inst)
    assert report.entry("smooth_witness").status == "undetermined"
    assert report.verdict == "undetermined"
    assert report.exit_code == 3


def test_witness_off_variety_is_refuted(trivial_dual, line):
    inst = _quadratic_instance(trivial_dual, line, witness=(1, 2))
    assert check_instance(inst).entry("smooth_witness").status == "refuted"


def test_singular_witness_is_refuted(trivial_dual, line):
    y = Ideal(("x_0", "x_1"), ["x_1^2 - x_0^3"])
    inst = ucd_instance(trivial_dual, line, y, witness=(0, 0))
    entry = check_instance(inst).entry("smooth_witness")
    assert entry.status == "refuted"
    assert "rank 0" in entry.detail


def test_irreducibility_assertion_is_recorded_not_decided(trivial_dual):
    plane = Ideal(("x", "y", "z"), [])
    y_vars = ("x_0", "y_0", "z_0", "x_1", "y_1", "z_1")
    y = Ideal(y_vars, ["x_1^2 + y_1^2 + z_1^2 - 1", "x_1*y_1 - z_1^2"])
    inst = ucd_instance(trivial_dual, plane, y, assert_irreducible=("Y",))
    report = check_instance(inst)
    assert report.entry("Y_irreducible").status == "asserted"
    inst2 = ucd_instance(trivial_dual, plane, y)
    assert check_instance(inst2).entry("Y_irreducible").status == "undetermined"


def test_empty_open_set_is_refuted(trivial_dual, line):
    inst = _quadratic_instance(trivial_dual, line, witness=(0, 0), h="x_1 - x_0^2")
    entry = check_instance(inst).entry("U_nonempty")
    assert entry.status == "refuted"


def test_open_set_defined_by_nonvanishing_h(trivial_dual, line):
    inst = _quadratic_instance(trivial_dual, line, witness=(0, 0), h="x_0")
    assert check_instance(inst).entry("U_nonempty").status == "verified"


def test_verdict_stable_under_redundant_generators_example(trivial_dual, line):
    base_y = ["x_1 - x_0^2"]
    padded_y = ["x_1 - x_0^2", "x_0*x_1 - x_0^3", "2*x_1 - 2*x_0^2"]
    a = ucd_instance(trivial_dual, line, Ideal(("x_0", "x_1"), base_y), witness=(0, 0))
    b = ucd_instance(trivial_dual, line, Ideal(("x_0", "x_1"), padded_y), witness=(0, 0))
    assert check_instance(a).verdict == check_instance(b).verdict == "verified"


# (algebra fixture, X variables, X generators, Y generators, witness, h)
REDUNDANCY_BASES = [
    ("dual", ("x",), [], ["x_1 - x_0^2"], (0, 0), None),
    ("dual", ("x",), [], ["x_1 - x_0^2"], (0, 0), "x_0"),
    ("dual", ("x",), [], ["x_0"], (0, 0), None),
    ("dual", ("x",), [], ["x_1^2 - x_0^3"], (0, 0), None),
    ("dual", ("x",), [], ["x_1 - x_0^2"], None, None),
    ("dual", ("x", "y"), [], ["x_0", "y_0 - 1"], (0, 1, 0, 0), None),
    ("dual", ("x", "y"), ["y - x^2"], ["y_0 - x_0^2", "y_1 - 2*x_0*x_1"], (1, 1, 1, 2), None),
    ("dual", ("x", "y"), ["y - x^2"], ["y_0 - x_0^2", "y_1 - 2*x_0*x_1", "x_0"],
     (0, 0, 1, 0), None),
    ("qxq", ("x",), [], ["x_1 - x_0"], (0, 0), None),
    ("qxq", ("x",), [], ["x_1"], (0, 0), None),
    ("qxq", ("x", "y"), ["x^2 + y^2 - 1"], ["x_0^2 + y_0^2 - 1", "x_1^2 + y_1^2 - 1"],
     (1, 0, 0, 1), None),
]


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(REDUNDANCY_BASES),
    products=st.lists(
        st.tuples(st.integers(0, 3), st.none() | st.integers(0, 3)), min_size=1, max_size=2
    ),
)
def test_verdict_stable_under_redundant_generators(base, products, request):
    """Squaring a generator, or multiplying it by another, and adding the
    result leaves the ideal, and so every status, unchanged."""
    algebra, xvars, xgens, ygens, witness, h = base
    trivial = BaseDStructure.trivial(request.getfixturevalue(algebra))
    x_ideal = Ideal(xvars, xgens)
    yvars = tuple(f"{x}_{level}" for level in range(2) for x in xvars)
    gens = [P(g, yvars) for g in ygens]
    padded = gens + [
        gens[i % len(gens)] * gens[(i if j is None else j) % len(gens)]
        for i, j in products
    ]

    def statuses(generators):
        inst = ucd_instance(
            trivial, x_ideal, Ideal(yvars, generators), witness=witness, h=h
        )
        report = check_instance(inst)
        return report.verdict, [(e.name, e.status) for e in report.entries]

    assert statuses(padded) == statuses(gens)


def test_squared_generator_does_not_refute_smoothness(trivial_dual, line):
    # I(Y) is not radical, so a Jacobian rank below the codimension proves
    # nothing: the reduced variety is the smooth parabola
    y = Ideal(("x_0", "x_1"), ["(x_1 - x_0^2)^2"])
    report = check_instance(ucd_instance(trivial_dual, line, y, witness=(0, 0)))
    assert report.verdict == "undetermined"
    assert [(e.name, e.status, e.detail) for e in report.entries] == [
        ("Y_subset_of_tauX", "verified", ""),
        ("dominance_pi_0", "verified", ""),
        ("smooth_witness", "undetermined",
         "Jacobian rank 0 < codimension 1 at the witness, and I(Y) is not known "
         "to be radical"),
        ("X_irreducible", "verified", "zero-ideal"),
        ("Y_irreducible", "verified", "principal-factorisation"),
        ("U_nonempty", "verified", "U = Y"),
    ]


def test_dominance_is_not_refuted_by_a_non_radical_x(trivial_dual):
    # the elimination ideal holds y - x^2, which is not in ((y - x^2)^2)
    # but vanishes on the same variety; Y is the graph of
    # (x_0, x_1) -> (x_0^2, 2 x_0 x_1), so it is decided irreducible
    x = Ideal(("x", "y"), ["(y - x^2)^2"])
    y = Ideal(("x_0", "y_0", "x_1", "y_1"), ["y_0 - x_0^2", "y_1 - 2*x_0*x_1"])
    report = check_instance(ucd_instance(trivial_dual, x, y))
    assert report.verdict == "undetermined"
    assert [(e.name, e.status, e.detail) for e in report.entries] == [
        ("Y_subset_of_tauX", "verified", ""),
        ("dominance_pi_0", "verified", ""),
        ("smooth_witness", "undetermined", "no witness supplied"),
        ("X_irreducible", "verified", "principal-factorisation"),
        ("Y_irreducible", "verified", "graph"),
        ("U_nonempty", "verified", "U = Y"),
    ]


def test_graph_certificate_needs_every_generator_of_y_on_tau_x(trivial_dual):
    # X is the parabola, a graph, and Y lies in tau X; a generator outside
    # the span of tau X's but in its ideal keeps the graph verdict, and
    # x_1 (x_1 - 1), which cuts tau X into two pieces, loses it
    x = Ideal(("x", "y"), ["y - x^2"])
    tau = ["y_0 - x_0^2", "y_1 - 2*x_0*x_1"]
    for extra, status in (("x_0*y_1 - 2*x_0^2*x_1", "verified"), ("x_1^2 - x_1", "undetermined")):
        y = Ideal(("x_0", "y_0", "x_1", "y_1"), tau + [extra])
        report = check_instance(ucd_instance(trivial_dual, x, y))
        assert report.entry("Y_subset_of_tauX").status == "verified"
        assert report.entry("Y_irreducible").status == status, extra


def test_graph_reduction_needs_y_inside_tau_x(trivial_dual):
    # Y = V((y_0 - x_0^2)(y_0 + x_0^2)) is not inside tau X of the parabola;
    # its generator reduces to 0 modulo tau X's graph basis, which must not
    # make Y the graph over all of tau X's free coordinates
    x = Ideal(("x", "y"), ["y - x^2"])
    y = Ideal(("x_0", "y_0", "x_1", "y_1"), ["y_0^2 - x_0^4"])
    report = check_instance(ucd_instance(trivial_dual, x, y))
    assert report.entry("Y_subset_of_tauX").status == "refuted"
    assert report.entry("Y_irreducible").status == "refuted"


def test_h_in_the_radical_of_y_empties_u(trivial_dual, line):
    y = Ideal(("x_0", "x_1"), ["x_0^2", "x_1"])
    inst = ucd_instance(trivial_dual, line, y, witness=(0, 0), h="x_0")
    entry = check_instance(inst).entry("U_nonempty")
    assert (entry.status, entry.detail) == (
        "refuted", "h vanishes on all of Y, so U is empty"
    )


def test_inconsistent_variable_layout_rejected(trivial_dual, line):
    with pytest.raises(UcdError, match="inconsistent"):
        ucd_instance(trivial_dual, line, Ideal(("u", "v"), ["v - u^2"]))


def test_dominance_over_product_algebra(qxq, line):
    base = BaseDStructure.trivial(qxq)
    # the graph of the identity projects onto both factors
    inst = ucd_instance(base, line, Ideal(("x_0", "x_1"), ["x_1 - x_0"]), witness=(0, 0))
    report = check_instance(inst)
    assert report.entry("dominance_pi_0").status == "verified"
    assert report.entry("dominance_pi_1").status == "verified"
    # pinning the second block breaks dominance of the second projection only
    inst2 = ucd_instance(base, line, Ideal(("x_0", "x_1"), ["x_1"]), witness=(0, 0))
    report2 = check_instance(inst2)
    assert report2.entry("dominance_pi_0").status == "verified"
    assert report2.entry("dominance_pi_1").status == "refuted"


@pytest.mark.parametrize(
    "param, witness", [("t", "t - x_sigma1"), ("x_sigma1", "x_sigma1 - x_sigma12")]
)
def test_dominance_image_names_avoid_the_base_parameters(param, witness):
    # pi_1 pins x to 0 while x_0 = param: its image is the point x = 0 for
    # each parameter value, so pi_1 is not dominant whatever the parameter
    # is called, also when it is called like pi_1's image coordinate
    doc = parse(f"""
algebra D = Q[e]/(e^2 - e);
dring B {{ algebra = D; ring = Q[{param}]; d {param} = ({param}, 0); }}
variety X {{ vars = [x]; }}
ucd U {{ algebra = D; base = B; X = X; Y = (x_1, x_0 - {param}); }}
""")
    lines = run("ucd check", doc).lines
    assert (
        "  dominance_pi_1: refuted (projection 1 is not dominant: elimination ideal "
        f"contains {witness})"
    ) in lines


def test_a_residue_field_larger_than_q_leaves_dominance_undetermined():
    # Q[y]/(y^3 + y) is Q x Q(i): one local component has the residue
    # field Q(i), so its projection lands in no affine variety over Q
    doc = parse("""
algebra D = Q[y]/(y^3 + y);
variety X { vars = [x]; }
ucd U { algebra = D; X = X; Y = (x_1, x_2); witness = (0, 0, 0); }
""")
    lines = run("ucd check", doc).lines
    assert lines[0] == "ucd U: undetermined"
    assert "  dominance: undetermined (some local component has residue degree > 1)" in lines


def test_a_witness_only_on_a_smaller_component_leaves_smoothness_undetermined():
    # V(Y) is the line x_0 = 0 and the point (1, 0); the witness is that
    # point, where the Jacobian rank 2 exceeds the codimension 1 of Y
    doc = parse("""
algebra D = Q[e]/(e^2);
variety X { vars = [x]; }
ucd U {
  algebra = D;
  X = X;
  Y = (x_0^2 - x_0, x_0*x_1, x_0^2*x_1 - x_0*x_1);
  witness = (1, 0);
}
""")
    lines = run("ucd check", doc).lines
    assert (
        "  smooth_witness: undetermined (Jacobian rank 2 > codimension 1: the witness "
        "lies only on components of smaller dimension)"
    ) in lines


# ---------------------------------------------------------------------------
# point search


def test_scaling_flow_search_finds_origin(trivial_dual, line):
    inst = ucd_instance(trivial_dual, line, Ideal(("x_0", "x_1"), ["x_1 - x_0"]))
    result = find_nabla_point(inst)
    assert result.dimension == 0
    assert result.points == (((0,), (0, 0)),)
    assert result.found


def test_zero_section_circle_search_samples_points(trivial_dual):
    circle = Ideal(("x", "y"), ["x^2 + y^2 - 1"])
    y = Ideal(
        ("x_0", "y_0", "x_1", "y_1"),
        ["x_0^2 + y_0^2 - 1", "x_1", "y_1"],
    )
    inst = ucd_instance(trivial_dual, circle, y)
    result = find_nabla_point(inst)
    assert result.dimension == 1
    assert result.found
    assert ((1, 0), (1, 0, 0, 0)) in result.samples
    for a, nb in result.samples:
        coords = dict(zip(y.variables, nb))
        assert all(g.evaluate(coords) == 0 for g in y.generators)


def test_open_set_filter_reports_no_point(trivial_dual, line):
    inst = _quadratic_instance(trivial_dual, line, h="x_0")
    result = find_nabla_point(inst)
    assert not result.found
    assert "no rational point in U" in result.note


def test_found_points_respect_h(trivial_dual, line):
    # two sharp candidates, one killed by h
    y = Ideal(("x_0", "x_1"), ["x_1 - x_0^2 + x_0"])
    inst = ucd_instance(trivial_dual, line, y, h="x_0 - 1")
    result = find_nabla_point(inst)
    # locus: x^2 - x = 0 gives x in {0, 1}; h removes 1
    assert [a for a, _ in result.points] == [(0,)]
    for a, nb in result.points:
        coords = dict(zip(y.variables, nb))
        assert inst.h.evaluate(coords) != 0


def test_search_agrees_with_sharp_points_on_graph_instances(dual, trivial_dual):
    # when Y is the graph of a section, the search is the sharp-point set:
    # an empty locus, finite ones and a positive-dimensional one (where the
    # search samples eight points and the sharp points five)
    cases = ["1", "x", "2*x + 3", "x^2 - 1", "0"]
    line = Ideal(("x",), [])
    dims = []
    for flow in cases:
        section = {"x": (P("x", ("x",)), P(flow, ("x",)))}
        dv = make_dvariety(dual, line, section)
        graph_gen = P("x_1", ("x_0", "x_1")) - section["x"][1].substitute(
            {"x": P("x_0", ("x_0", "x_1"))}
        )
        inst = ucd_instance(trivial_dual, line, Ideal(("x_0", "x_1"), [graph_gen]))
        search = find_nabla_point(inst)
        sharp = rational_sharp_points(dv)
        assert search.dimension == sharp.dimension
        if sharp.is_empty or sharp.zero_dimensional:
            assert tuple(a for a, _ in search.points) == sharp.points
            assert search.samples == ()
        else:
            assert search.points == ()
            assert len(search.samples) == 8 and len(sharp.samples) == 5
            assert tuple(a for a, _ in search.samples[:5]) == sharp.samples
        dims.append(sharp.dimension)
    assert dims == [None, 0, 0, 0, 1]


def test_search_samples_a_locus_on_five_coordinates(dual, trivial_dual):
    # 11^5 grid points exceed the grid cap: the first ones are still tried
    coords = ("a", "b", "c", "d", "f")
    x = Ideal(coords, ["a - b"])
    y = Ideal(tuple(f"{v}_{k}" for k in (0, 1) for v in coords), ["a_0 - b_0", "a_1 - b_1"])
    search = find_nabla_point(ucd_instance(trivial_dual, x, y))
    assert search.dimension == 4 and search.found
    assert search.samples[0] == ((0,) * 5, (0,) * 10)
    sharp = rational_sharp_points(make_dvariety(dual, x, zero_section(dual, x)))
    assert sharp.dimension == 4
    assert len(sharp.samples) == 5 and sharp.samples[0] == (0,) * 5
    for point in sharp.samples:
        assert point[0] == point[1]


# ---------------------------------------------------------------------------
# difference-largeness point data


def test_identity_endomorphism_points(qxq):
    base = BaseDStructure.trivial(qxq)
    inst = ucd_instance(base, Ideal(("x",), []), Ideal(("x_0", "x_1"), []))
    report = check_difference_large_instance(inst, {1: {"x": "x"}}, [(3, 3)])
    assert all(e.passed for e in report)
    report2 = check_difference_large_instance(inst, {1: {"x": "x"}}, [(1, 2)])
    assert not all(e.passed for e in report2)


def test_shift_endomorphism_points(qxq):
    base = BaseDStructure.trivial(qxq)
    inst = ucd_instance(base, Ideal(("x",), []), Ideal(("x_0", "x_1"), []))
    report = check_difference_large_instance(inst, {1: {"x": "x + 1"}}, [(3, 4)])
    assert all(e.passed for e in report)
    assert len({e.point for e in report if e.passed}) == len({e.point for e in report}) == 1


def test_local_algebra_has_no_endomorphism_data(trivial_dual, line):
    inst = ucd_instance(trivial_dual, line, Ideal(("x_0", "x_1"), []))
    with pytest.raises(UcdError, match="local"):
        check_difference_large_instance(inst, {}, [])
