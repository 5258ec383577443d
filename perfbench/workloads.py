"""The three benchmark workloads: seeded items with known answers, and ladders.

Every item is built from the seed alone and carries the answer fixed at
build time, computed by ``oracle`` and never by dfields.  A workload's
``run`` is the timed call into dfields; ``answer`` turns its output into
plain data and ``check`` compares that with the known answer, both
untimed.  Each pass rebuilds every dfields object from text, because the
package caches Groebner bases, local decompositions and resolved algebras
on the objects it builds.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle as O


@dataclass
class Item:
    id: str
    kind: str
    data: dict
    expected: object  # the known answer, or a function of no arguments giving it


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # seed -> list of items
    run: Callable  # (item, api, context) -> raw output; the timed call
    answer: Callable  # (item, output, api) -> plain data
    check: Callable  # (item, answer) -> bool
    context: Callable = lambda api: None  # per-pass state, rebuilt from text
    ladder: tuple = ()  # rung parameters in order of growing cost
    rung_cap_s: float = 0.0  # cap of one rung's child process, in reference seconds
    rung: Callable = None  # parameter -> item


def _plain(item, out, api):
    return out


def parse_inputs(items, api):
    """Parse every input text once, so malformed inputs fail during set-up."""
    for item in items:
        d = item.data
        if "text" in d:
            api.cli.parse(d["text"])
            continue
        variables = tuple(d.get("vars", XY))
        texts = [d.get("f", "0"), d.get("g", "0")] + list(d.get("relations", d.get("ideal", [])))
        for comps in d.get("images", d.get("section", {})).values():
            texts.extend(comps)
        for text in texts:
            api.poly.parse_polynomial(text, variables)


# ---------------------------------------------------------------------------
# tau_family: ucd check on Y = tau X and a broken twin


CURVES = {
    # name: (variables, generators as {exp: coeff}, rational parametrisation)
    "elliptic": (("x", "y"), [{(0, 2): 1, (3, 0): -1, (1, 0): -1}], None),
    "circle": (("x", "y"), [{(2, 0): 1, (0, 2): 1, (0, 0): -1}], "circle"),
    "parabola": (("x", "y"), [{(0, 1): 1, (2, 0): -1}], "parabola"),
    "twisted_cubic": (
        ("x", "y", "z"),
        [{(0, 1, 0): 1, (2, 0, 0): -1}, {(0, 0, 1): 1, (3, 0, 0): -1}],
        "cubic",
    ),
}

# local factors of each coefficient algebra; () is a factor Q
TAU_ALGEBRAS = {
    "e2": [(2,)],
    "e3": [(3,)],
    "e4": [(4,)],
    "q2": [(), ()],
    "q3": [(), (), ()],
    "e2q2": [(2,), (), ()],
    "e3q": [(3,), ()],
    "ef": [(2, 2)],
}

# Witness points per curve and algebra.  Three copies of the fast instances
# put several items of like cost around the median and the 90th percentile,
# so neither jumps across a gap between items from run to run; the slowest
# instances get one, and the twisted cubic over Q[e]/(e^4), at about 4 s,
# none: alone it would be a third of wall_s and carry its noise.
TAU_WITNESSES = 3
_ONE_WITNESS = {("twisted_cubic", a) for a in ("e2q2", "e3q", "ef")} | {
    ("elliptic", a) for a in ("e4", "e3q", "ef")
}
_LEFT_OUT = {("twisted_cubic", "e4")}


def _curve_point(kind, t):
    if kind is None:  # y^2 = x^3 + x has the single affine rational point (0, 0)
        return (Fraction(0), Fraction(0))
    if kind == "circle":
        d = 1 + t * t
        return ((1 - t * t) / d, 2 * t / d)
    if kind == "parabola":
        return (t, t * t)
    return (t, t * t, t * t * t)


def tau_document(curve, factors, broken, t):
    """A .dr document holding Y = tau X (plus x_0 when broken), the
    canonical point over the rational point with parameter t as witness,
    and its expected verdict.  Y is the benchmark's own expansion of the
    curve over D, not the output of dfields' prolong."""
    names, gens, param = CURVES[curve]
    alg = O.SplitAlgebra(factors)
    nv = len(names)
    y_names = tuple(f"{v}_{lvl}" for lvl in range(alg.dim) for v in names)
    gens = [{e: Fraction(c) for e, c in g.items()} for g in gens]
    y_polys = [p for f in gens for p in alg.expand(f, nv) if p]
    if broken:
        y_polys.append(O.var(0, len(y_names)))
    point = _curve_point(param, t)
    witness = [point[v] * alg.unit[lvl] for lvl in range(alg.dim) for v in range(nv)]
    text = (
        alg.block_text("D")
        + f"variety X {{ vars = [{', '.join(names)}]; ideal = ("
        + ", ".join(O.to_text(g, names) for g in gens)
        + "); }\n"
        + "ucd inst {\n  algebra = D;\n  X = X;\n"
        + "  Y = (" + ",\n       ".join(O.to_text(p, y_names) for p in y_polys) + ");\n"
        + "  witness = (" + ", ".join(str(c) for c in witness) + ");\n"
        + "  assert_irreducible = [X, Y];\n}\n"
    )
    return text, ("refuted" if broken else "verified")


def build_tau_family(seed):
    rng = random.Random(seed)
    items = []
    for curve in CURVES:
        for alg_name, factors in TAU_ALGEBRAS.items():
            if (curve, alg_name) in _LEFT_OUT:
                continue
            copies = 1 if (curve, alg_name) in _ONE_WITNESS else TAU_WITNESSES
            for copy in range(copies):
                t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for broken in (False, True):
                    text, verdict = tau_document(curve, factors, broken, t)
                    twin = "broken" if broken else "intact"
                    items.append(Item(f"{curve}/{alg_name}/{twin}/{copy}", "ucd", {"text": text}, verdict))
    rng.shuffle(items)
    return items


def run_ucd(item, api, ctx):
    result = api.cli.run("ucd check", api.cli.parse(item.data["text"]))
    (entry,) = result.payload["results"]
    return (result.exit_code, entry["verdict"])


def check_ucd(item, answer):
    return answer == ({"verified": 0, "refuted": 2}[item.expected], item.expected)


def tau_rung(n):
    """The elliptic curve over Q[e]/(e^n), intact."""
    text, verdict = tau_document("elliptic", [(n,)], False, Fraction(0))
    return Item(f"elliptic/e{n}", "ucd", {"text": text}, verdict)


# ---------------------------------------------------------------------------
# algebra_ladder: algebra check and algebra decompose

# irreducible monic factors over Q by degree, as coefficient lists (low
# first): y - a, y^2 - d and y^3 - d, alike in cost within each degree
_IRREDUCIBLE = {
    1: [[-a, 1] for a in (-3, -2, -1, 0, 1, 2, 3)],
    2: [[-d, 0, 1] for d in (-1, -2, -3, 2, 3, 5, 6)],
    3: [[-d, 0, 0, 1] for d in (2, 3, 5, 6, 7)],
}

# Q[y]/(prod p_i^m_i): (degree of p_i, m_i) per factor.  Items cluster in
# cost by dimension; the mix puts the median item inside the dimension-4
# cluster, not at a gap between clusters where item_s_p50 would jump.
_SPLIT_SHAPES = [
    [(1, 1), (1, 1)], [(1, 2), (1, 1)], [(2, 1), (1, 1)], [(1, 1), (1, 1), (1, 1)],
    [(2, 1), (1, 2)], [(3, 1), (1, 1)], [(2, 2)], [(2, 1), (2, 1)],
    [(1, 2), (1, 2)], [(1, 3), (1, 1)], [(3, 1), (2, 1)], [(2, 1), (1, 1), (1, 1), (1, 1)],
] * 3 + [[(3, 1), (2, 1), (1, 1)], [(2, 2), (1, 2)], [(3, 2)], [(2, 1), (2, 1), (1, 2)]] + [
    [(1, 1), (1, 1)], [(1, 1), (1, 1), (1, 1)], [(2, 1), (1, 1)],
] * 4

# products given as multiplication tables: local factors as in oracle.SplitAlgebra
_TABLE_SHAPES = [
    [(), ()], [(), (), ()], [(2,), ()], [(2,), (), ()], [(3,), ()], [(2,), (2,)],
    [(2, 2), ()], [(4,), ()], [(3,), (), ()], [(), (), (), ()], [(2,), (2,), ()],
    [(3,), (2,)], [(2, 2), (), ()], [(4,), (2,)], [(3,), (3,)], [(2,), (), (), (), ()],
] * 2 + [[(4,), (2,), (), ()], [(3,), (3,), (2,), (), ()]]

_GENERATOR_NAMES = ("e", "t", "u", "w")


def build_algebra_ladder(seed):
    """Fixed shapes, so every seed asks for the same amount of work; the
    seed picks generator names, the irreducible factors and the item order.
    The tables keep their factor order, because the basis order changes how
    long the search for a primitive element takes."""
    rng = random.Random(seed)
    items = []

    def add(kind, text, expected):
        items.append(Item(f"{kind}/{len(items)}", "algebra", {"text": text}, sorted(expected)))

    for n in list(range(2, 6)) * 2 + [6, 7, 8]:
        e = rng.choice(_GENERATOR_NAMES)
        add(f"trunc{n}", f"algebra A = Q[{e}]/({e}^{n});\n", [(n, 1)])
    for a, b in [(2, 2)] * 4 + [(2, 3)] * 3 + [(3, 2)] * 3 + [(2, 4)]:
        e, f = rng.sample(_GENERATOR_NAMES, 2)
        add(f"bi{a}x{b}", f"algebra A = Q[{e}, {f}]/({e}^{a}, {f}^{b});\n", [(a * b, 1)])
    for shape in _SPLIT_SHAPES:
        chosen = {
            deg: rng.sample(_IRREDUCIBLE[deg], sum(1 for d, _ in shape if d == deg))
            for deg in {d for d, _ in shape}
        }
        product = O.const(1, 1)
        for deg, mult in shape:
            p = {(i,): Fraction(c) for i, c in enumerate(chosen[deg].pop()) if c}
            for _ in range(mult):
                product = O.mul(product, p)
        text = O.to_text(product, ("y",))
        dim = sum(d * m for d, m in shape)
        add(f"split{dim}", f"algebra A = Q[y]/({text});\n", [(d * m, d) for d, m in shape])
    for shape in _TABLE_SHAPES:
        alg = O.SplitAlgebra(shape)
        add(f"table{alg.dim}", alg.table_text("A"), alg.component_dims())
    rng.shuffle(items)
    return items


def run_algebra(item, api, ctx):
    doc = api.cli.parse(item.data["text"])
    checked = api.cli.run("algebra check", doc)
    decomposed = api.cli.run("algebra decompose", doc)
    (valid,) = [r["valid"] for r in checked.payload["results"]]
    (entry,) = decomposed.payload["results"]
    comps = sorted((c["dim"], c["residue_dim"]) for c in entry["components"])
    return (checked.exit_code, valid, decomposed.exit_code, comps)


def check_algebra(item, answer):
    return answer == (0, True, 0, item.expected)


def algebra_rung(n):
    return Item(f"trunc{n}", "algebra", {"text": f"algebra A = Q[e]/(e^{n});\n"}, [(n, 1)])


# ---------------------------------------------------------------------------
# operator_stream: operator images against closed-form oracles

XY = ("x", "y")
CIRCLE = {(2, 0): Fraction(1), (0, 2): Fraction(1), (0, 0): Fraction(-1)}
_CIRCLE_REST = {(0, 2): Fraction(-1), (0, 0): Fraction(1)}  # x^2 = 1 - y^2

OPERATOR_ALGEBRAS = (
    "algebra dual = Q[e]/(e^2);\n"
    "algebra twonil = Q[e1, e2]/(e1^2, e1*e2, e2^2);\n"
    "algebra trunc3 = Q[e]/(e^3);\n"
    "algebra trunc4 = Q[e]/(e^4);\n"
    "algebra q3 { basis = [u0, u1, u2]; mul u0*u0 = u0; mul u0*u1 = 0; mul u0*u2 = 0;\n"
    "  mul u1*u1 = u1; mul u1*u2 = 0; mul u2*u2 = u2; unit = u0 + u1 + u2; }\n"
    "algebra dual_x_q { basis = [u, e, v]; mul u*u = u; mul u*e = e; mul u*v = 0;\n"
    "  mul e*e = 0; mul e*v = 0; mul v*v = v; unit = u + v; }\n"
)
OPERATOR_ALGEBRA_NAMES = ("dual", "twonil", "trunc3", "trunc4", "q3", "dual_x_q")

OPERATOR_ITEMS = 1000
DVARIETY_SHARE = 0.05
OPERATORS = ("dual", "twonil", "q3", "dual_x_q", "trunc3", "rotation2", "rotation4")
DVARIETY_KINDS = ("euler", "plane", "parabola", "rotation")


def random_poly(rng, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0, 0]
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(2)] += 1
        terms = O.add(terms, {tuple(exp): Fraction(rng.randint(-4, 4))})
    return terms or {(0, 0): Fraction(1)}


def _small(rng):
    return random_poly(rng, max_degree=2, max_terms=2)


def _reduce_circle(p):
    return O.reduce_first_square(p, _CIRCLE_REST)


def rotation_images(order):
    """x -> x cos(e) - y sin(e), y -> x sin(e) + y cos(e), truncated at e^order."""
    x, y = O.var(0, 2), O.var(1, 2)
    cos = [Fraction(0)] * order
    sin = [Fraction(0)] * order
    fact = Fraction(1)
    for k in range(order):
        if k:
            fact *= k
        if k % 2 == 0:
            cos[k] = Fraction((-1) ** (k // 2)) / fact
        else:
            sin[k] = Fraction((-1) ** (k // 2)) / fact
    xs = [O.sub(O.scale(x, cos[k]), O.scale(y, sin[k])) for k in range(order)]
    ys = [O.add(O.scale(x, sin[k]), O.scale(y, cos[k])) for k in range(order)]
    return xs, ys


def _truncated_oracle(u, v):
    lin, sec = O.derivation(u), O.second_order(u, v)
    return lambda f: [f, lin(f), sec(f)]


def _operator_spec(name, rng):
    """(algebra, relations, images as component lists, oracle f -> comps)."""
    x, y = O.var(0, 2), O.var(1, 2)
    if name == "dual":
        d = [_small(rng), _small(rng)]
        der = O.derivation(d)
        return "dual", [], [[x, d[0]], [y, d[1]]], lambda f: [f, der(f)]
    if name == "twonil":
        d1, d2 = [_small(rng), _small(rng)], [_small(rng), _small(rng)]
        a, b = O.derivation(d1), O.derivation(d2)
        return "twonil", [], [[x, d1[0], d2[0]], [y, d1[1], d2[1]]], lambda f: [f, a(f), b(f)]
    if name == "q3":
        s1, s2 = [_small(rng), _small(rng)], [_small(rng), _small(rng)]
        return "q3", [], [[x, s1[0], s2[0]], [y, s1[1], s2[1]]], (
            lambda f: [f, O.substitute(f, s1, 2), O.substitute(f, s2, 2)]
        )
    if name == "dual_x_q":
        d, s = [_small(rng), _small(rng)], [_small(rng), _small(rng)]
        der = O.derivation(d)
        return "dual_x_q", [], [[x, d[0], s[0]], [y, d[1], s[1]]], (
            lambda f: [f, der(f), O.substitute(f, s, 2)]
        )
    if name == "trunc3":
        u, v = [_small(rng), _small(rng)], [_small(rng), _small(rng)]
        return "trunc3", [], [[x, u[0], v[0]], [y, u[1], v[1]]], _truncated_oracle(u, v)
    order = {"rotation2": 2, "rotation4": 4}[name]
    xs, ys = rotation_images(order)
    expand = O.series_substitution([xs, ys], order)
    alg = "dual" if order == 2 else "trunc4"
    return alg, [CIRCLE], [xs, ys], lambda f: [_reduce_circle(c) for c in expand(f)]


def _operator_item(item_id, alg, rels, images, oracle_, f, g):
    data = {
        "algebra": alg,
        "relations": [O.to_text(r, XY) for r in rels],
        "images": {v: tuple(O.to_text(c, XY) for c in comps) for v, comps in zip(XY, images)},
        "f": O.to_text(f, XY),
        "g": O.to_text(g, XY),
    }
    if rels:  # the operator lives on Q[x, y]/(circle): compare normal forms
        f = _reduce_circle(f)
    return Item(item_id, "operator", data, lambda: oracle_(f))


def _dvariety_item(idx, kind, rng):
    """A small D-variety over the dual numbers with a known sharp-point answer."""
    a, b = rng.randint(-5, 5), rng.randint(-5, 5)
    if kind == "euler":
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        data = {"vars": ["x"], "ideal": [], "section": {"x": ("x", f"{c}*x")}}
        expected = ("points", [(Fraction(0),)])
    elif kind == "plane":
        data = {"vars": ["x", "y"], "ideal": [],
                "section": {"x": ("x", f"x - ({a})"), "y": ("y", f"y - ({b})")}}
        expected = ("points", [(Fraction(a), Fraction(b))])
    elif kind == "parabola":
        data = {"vars": ["x", "y"], "ideal": ["y - x^2"],
                "section": {"x": ("x", f"x - ({a})"), "y": ("y", f"2*x^2 - 2*({a})*x")}}
        expected = ("points", [(Fraction(a), Fraction(a * a))])
    else:
        data = {"vars": ["x", "y"], "ideal": ["x^2 + y^2 - 1"],
                "section": {"x": ("x", "-y"), "y": ("y", "x")}}
        expected = ("empty", [])
    return Item(f"dvariety-{kind}/{idx}", "dvariety", data, expected)


def build_operator_stream(seed):
    """The mix of item kinds is the same for every seed, so that every seed
    asks for about the same work; the seed picks their order, polynomials
    and points."""
    rng = random.Random(seed)
    n_dvariety = round(OPERATOR_ITEMS * DVARIETY_SHARE)
    kinds = [DVARIETY_KINDS[i % len(DVARIETY_KINDS)] for i in range(n_dvariety)]
    kinds += [OPERATORS[i % len(OPERATORS)] for i in range(OPERATOR_ITEMS - n_dvariety)]
    rng.shuffle(kinds)
    items = []
    for idx, kind in enumerate(kinds):
        if kind in DVARIETY_KINDS:
            items.append(_dvariety_item(idx, kind, rng))
            continue
        spec = _operator_spec(kind, rng)
        items.append(_operator_item(f"{kind}/{idx}", *spec, random_poly(rng), random_poly(rng)))
    return items


def operator_context(api):
    """The coefficient algebras, resolved from text by a fresh resolver."""
    resolver = api.cli.Resolver(api.cli.parse(OPERATOR_ALGEBRAS))
    return {name: resolver.algebra(name) for name in OPERATOR_ALGEBRA_NAMES}


def run_operator_stream(item, api, algebras):
    d = item.data
    if item.kind == "dvariety":
        ideal = api.poly.Ideal(tuple(d["vars"]), d["ideal"])
        dv = api.dvariety.make_dvariety(algebras["dual"], ideal, d["section"])
        return api.dvariety.rational_sharp_points(dv)
    op = api.dring.make_doperator(
        algebras[d["algebra"]], api.poly.Ideal(XY, d["relations"]), d["images"]
    )
    image = op.apply(d["f"])
    return (image.comps, api.dring.product_rule_check(op, d["f"], d["g"]))


def answer_operator_stream(item, out, api):
    if item.kind == "dvariety":
        if out.is_empty:
            return ("empty", [])
        kind = "points" if out.zero_dimensional else "positive"
        return (kind, sorted(tuple(p) for p in out.points or ()))
    comps, rule = out
    return ([api.poly.format_poly(c) for c in comps], rule)


def check_operator_stream(item, answer):
    if item.kind == "dvariety":
        return answer == item.expected
    comps, rule = answer
    return rule is True and [O.from_text(t, XY) for t in comps] == item.expected()


def operator_rung(degree):
    """The second-order operator over Q[e]/(e^3) on f = (x + y + 1)^degree
    and g = (x - 2y + 3)^degree."""
    x, y = O.var(0, 2), O.var(1, 2)
    u, v = [y, O.const(1, 2)], [x, {}]
    f = g = O.const(1, 2)
    for _ in range(degree):
        f = O.mul(f, O.add(O.add(x, y), O.const(1, 2)))
        g = O.mul(g, O.add(O.sub(x, O.scale(y, 2)), O.const(3, 2)))
    images = [[x, u[0], v[0]], [y, u[1], v[1]]]
    return _operator_item(f"trunc3/degree{degree}", "trunc3", [], images, _truncated_oracle(u, v), f, g)


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        # Groebner bases, elimination and membership in poly
        Workload(
            "tau_family", build_tau_family, run_ucd, _plain, check_ucd,
            ladder=(2, 3, 4, 5, 6), rung_cap_s=2.5, rung=tau_rung,
        ),
        # dense linear algebra in algebra and linalg, almost no Groebner work
        Workload(
            "algebra_ladder", build_algebra_ladder, run_algebra, _plain, check_algebra,
            ladder=(4, 8, 12, 16, 20), rung_cap_s=5.5, rung=algebra_rung,
        ),
        # many small operator images, products and normal forms in dring and poly
        Workload(
            "operator_stream", build_operator_stream, run_operator_stream,
            answer_operator_stream, check_operator_stream, context=operator_context,
            ladder=(4, 8, 16, 32), rung_cap_s=1.25, rung=operator_rung,
        ),
    )
}
