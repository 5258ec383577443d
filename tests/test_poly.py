"""Polynomial arithmetic, Groebner machinery, and the ideal toolkit."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dfields.poly import (
    GREVLEX,
    LEX,
    BudgetExceededError,
    EmptyVarietyError,
    GroebnerBudget,
    Ideal,
    MonomialOrder,
    MultiPoly,
    NotOnVarietyError,
    PolyParseError,
    decide_irreducibility,
    elimination_ideal,
    factor_univariate,
    format_poly,
    groebner_basis_of,
    ideal_membership,
    is_smooth_point,
    jacobian_at,
    jacobian_rank_at,
    krull_dimension,
    normal_form,
    parse_polynomial,
    radical_membership,
    univariate_coeffs,
    univariate_poly,
    IrreducibilityResult,
    _sympy_from_multipoly,
    is_squarefree,
    _parse_cached,
    as_poly,
)
from dfields import cli, poly
from dfields.algebra import from_presentation, solve_zero_dim
from dfields.dring import DRingError, make_doperator
from dfields.prolongation import BaseDStructure, prolong

from conftest import random_poly


def P(text, variables=None):
    return parse_polynomial(text, variables)


# ---------------------------------------------------------------------------
# arithmetic


def test_product_difference_of_squares():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    assert (x + y) * (x - y) == P("x^2 - y^2")


def test_partial_derivative():
    assert P("y - x^2", ("x", "y")).partial_derivative("x") == P("-2*x")


def test_substitution_expands_binomial():
    f = P("x^2", ("x",))
    assert f.substitute({"x": P("x0 + x1")}) == P("x0^2 + 2*x0*x1 + x1^2")


def test_substitution_is_ring_hom_on_samples(rng):
    sub = {"x": P("y - 1", ("x", "y")), "y": P("x*y", ("x", "y"))}
    for _ in range(20):
        f = random_poly(rng, ("x", "y"))
        g = random_poly(rng, ("x", "y"))
        assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)
        assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)


def test_pow_and_scale():
    x = MultiPoly.variable("x")
    assert x ** 0 == MultiPoly.one()
    assert (x + 1) ** 3 == P("x^3 + 3*x^2 + 3*x + 1")
    assert (x + 1).scale(Fraction(1, 2)) == P("1/2*x + 1/2")


def test_variable_union_alignment():
    f = P("x", ("x",)) + P("y", ("y",))
    assert f == P("x + y")
    assert f.used_variables() == {"x", "y"}


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 5))
def test_constant_arithmetic_matches_fractions(a, b, n):
    fa = MultiPoly.constant(a)
    fb = MultiPoly.constant(b)
    assert (fa + fb).constant_value() == a + b
    assert (fa * fb).constant_value() == a * b
    assert (fa ** n).constant_value() == Fraction(a) ** n


_XYZ = ("x", "y", "z")
# tuples that hold x, y and z in some order, some with an unused w
_TUPLES = st.one_of(st.permutations(_XYZ), st.permutations(_XYZ + ("w",))).map(tuple)
_EQ_COEFFS = st.sampled_from([1, -2, Fraction(1, 2), Fraction(-3, 4)])
_XYZ_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), _EQ_COEFFS, max_size=3
).map(lambda t: MultiPoly(_XYZ, t))


@st.composite
def _equality_operands(draw):
    """A polynomial on some tuple, and a polynomial on some tuple, an int or
    a Fraction: often the same value, often zero."""
    a = draw(_XYZ_POLYS)
    b = draw(st.one_of(st.just(a), _XYZ_POLYS, st.just(MultiPoly.zero(_XYZ))))
    a, b = a.on_variables(draw(_TUPLES)), b.on_variables(draw(_TUPLES))
    if b.is_constant() and draw(st.booleans()):
        value = b.constant_value()
        b = value.numerator if value.denominator == 1 and draw(st.booleans()) else value
    return a, b


@settings(max_examples=200, deadline=None)
@given(_equality_operands())
def test_equality_matches_canonical_forms(operands):
    a, b = operands
    other = b if isinstance(b, MultiPoly) else MultiPoly.constant(b)
    expected = a.canonical() == other.canonical()
    assert (a == b) is expected
    assert (b == a) is expected
    if expected:
        assert hash(a) == hash(other)


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolyParseError):
        P("2x")


def test_parse_rational_coefficients():
    assert P("3/2*x - 1/3") == MultiPoly.variable("x").scale(Fraction(3, 2)) - Fraction(1, 3)


def test_parse_error_carries_position():
    with pytest.raises(PolyParseError) as err:
        P("x + $")
    assert err.value.line == 1
    assert err.value.column == 5


@pytest.mark.parametrize("text, column", [("x^\u00b2", 3), ("\u00b2*x", 1), ("x + 2\u00b3", 6)])
def test_non_decimal_digits_are_unexpected_characters(text, column):
    # '²' and '³' are digits to str.isdigit but not to int()
    with pytest.raises(PolyParseError, match="unexpected character") as err:
        P(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_parse_unknown_variable_rejected():
    with pytest.raises(PolyParseError):
        P("x + z", ("x", "y"))


def test_format_round_trip(rng):
    for _ in range(25):
        f = random_poly(rng, ("x", "y", "z"))
        assert P(format_poly(f), ("x", "y", "z")) == f


def test_format_sorts_by_active_order():
    f = P("x + y^2", ("x", "y"))
    assert format_poly(f, GREVLEX) == "y^2 + x"
    assert format_poly(f, LEX) == "x + y^2"


# ---------------------------------------------------------------------------
# the parser against the MultiPoly-per-atom reference


class _ReferenceToken(str):
    """A token of the character-loop tokenizer: its text as a string, as the
    statement reads of ``cli._Cursor`` take tokens, carrying its kind, line
    and column."""

    def __new__(cls, kind, text, line, column):
        tok = super().__new__(cls, text)
        tok.kind, tok.line, tok.column = kind, line, column
        return tok

    @property
    def text(self):
        return str(self)


def _reference_tokenize(text):
    """The character-loop tokenizer the regex tokenizer replaced."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(_ReferenceToken("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_ReferenceToken("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^(),/;={}[]":
            tokens.append(_ReferenceToken(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_ReferenceToken("EOF", "", line, col))
    return tokens


class _ReferenceParser:
    """The parser that built a MultiPoly for every atom and merged variable
    tuples at every operator; a node lives on its names in order of first
    appearance."""

    def __init__(self, tokens, pos, variables=None):
        self.tokens = tokens
        self.pos = pos
        self.variables = None if variables is None else tuple(variables)
        self.seen = []

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise PolyParseError(message, tok.line, tok.column)

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            node = node * self.parse_factor()
        nxt = self.peek()
        if nxt.kind in ("NAME", "INT", "("):
            self.error(f"missing '*' before {nxt.text!r}", nxt)
        return node

    def parse_factor(self):
        if self.peek().kind in ("-", "+"):
            sign = self.take().kind
            node = self.parse_factor()
            return -node if sign == "-" else node
        node = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.take()
            tok = self.peek()
            if tok.kind != "INT":
                self.error("exponent must be a nonnegative integer", caret)
            self.take()
            node = node ** int(tok.text)
        return node

    def parse_atom(self):
        tok = self.take()
        if tok.kind == "INT":
            num = int(tok.text)
            if self.peek().kind == "/":
                self.take()
                den = self.peek()
                if den.kind != "INT":
                    self.error("expected integer denominator", den)
                self.take()
                if int(den.text) == 0:
                    self.error("zero denominator", den)
                return MultiPoly.constant(Fraction(num, int(den.text)))
            return MultiPoly.constant(num)
        if tok.kind == "NAME":
            if self.variables is not None and tok.text not in self.variables:
                self.error(f"unknown variable {tok.text!r}", tok)
            if tok.text not in self.seen:
                self.seen.append(tok.text)
            return MultiPoly.variable(tok.text)
        if tok.kind == "(":
            node = self.parse_expr()
            closing = self.take()
            if closing.kind != ")":
                self.error("expected ')'", closing)
            return node
        self.error(f"unexpected token {tok.text!r}", tok)


def _reference_parse(text, variables=None):
    parser = _ReferenceParser(_reference_tokenize(text), 0, variables)
    poly = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "EOF":
        parser.error(f"unexpected trailing {tail.text!r}", tail)
    return poly.on_variables(tuple(parser.seen if variables is None else variables))


class _ReferenceCursor(_ReferenceParser, cli._Cursor):
    """``cli._Cursor`` with the reference parser under its statement reads:
    an expression lives on the union of its nodes' variables, and a table
    entry's terms come from that polynomial put on the basis."""

    def __init__(self, text, tokens, budget=None):
        _ReferenceParser.__init__(self, tokens, 0)
        self.algebras = {}
        self.budget = budget

    def error(self, message, at=None):
        # the statement reads name a token by its index
        if not isinstance(at, _ReferenceToken):
            at = self.tokens[self.pos if at is None else at]
        _ReferenceParser.error(self, message, at)

    def expr(self, variables):
        self.variables = tuple(variables)
        return self.parse_expr()

    def terms_on(self, variables):
        return self.expr(variables).on_variables(tuple(variables)).terms


def _outcome(parse, *args):
    """What a parse gives: ("poly", variables, terms) or ("error", message,
    line, column)."""
    try:
        poly = parse(*args)
    except PolyParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    assert all(type(c) is Fraction and c != 0 for c in poly.terms.values())
    return ("poly", poly.variables, poly.terms)


def _document_leaves(node):
    """Every leaf of a parsed document's blocks in field order: each
    polynomial as (variables, terms), and each name, table coordinate and
    witness coordinate as itself."""
    if isinstance(node, MultiPoly):
        return [(node.variables, node.terms)]
    if dataclasses.is_dataclass(node):
        node = [getattr(node, f.name) for f in dataclasses.fields(node)]
    elif isinstance(node, dict):
        node = list(node.values())
    elif not isinstance(node, (tuple, list)):
        return [node]
    return [p for child in node for p in _document_leaves(child)]


def _parse_document(text, reference):
    if not reference:
        return cli.parse(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_Cursor", _ReferenceCursor)
        mp.setattr(cli, "tokenize", _reference_tokenize)
        return cli.parse(text)


def _document_outcome(text, reference):
    try:
        doc = _parse_document(text, reference)
    except PolyParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("doc", _document_leaves(doc.blocks))


_NAMES = ("x", "y", "z", "t_1")
# blanks, newlines and comments between tokens
_GAPS = st.sampled_from(["", " ", "  ", "\t", "\n", " \r\n ", "  # note\n"])
_CONSTANTS = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda f: f"{f[0]}/{f[1]}"),
)
_LEAVES = st.sampled_from(_NAMES) | _CONSTANTS


def _extend(leaves, children):
    binary = st.tuples(children, _GAPS, st.sampled_from("+-*"), _GAPS, children).map("".join)
    paren = st.tuples(_GAPS, children, _GAPS).map(lambda t: "(" + "".join(t) + ")")
    unary = st.tuples(st.sampled_from("-+"), _GAPS, children).map("".join)
    power = st.tuples(paren | leaves, _GAPS, st.integers(0, 3)).map(
        lambda t: f"{t[0]}{t[1]}^{t[2]}"
    )
    return binary | paren | unary | power


def _expressions(leaves):
    tree = st.recursive(leaves, lambda children: _extend(leaves, children), max_leaves=10)
    return st.tuples(_GAPS, tree, _GAPS).map("".join)


_EXPRESSIONS = _expressions(_LEAVES)
_DECLARED = st.sampled_from([None, _NAMES, ("t_1", "z", "y", "x"), ("y", "x")])


@settings(max_examples=300, deadline=None)
@given(_EXPRESSIONS, _DECLARED)
@example("(x - x)*y + 0*z", None)
@example("x^0 + 1/2*y^0", ("y", "x"))
@example("x^2^3", None)
@example("-x^2^3", None)
@example("2*-(x)^2^2", ("x", "y"))
def test_parser_matches_reference(text, variables):
    # equal variables, equal term dicts and Fraction coefficients, or the
    # same error at the same place
    assert _outcome(parse_polynomial, text, variables) == _outcome(
        _reference_parse, text, variables
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.permutations(_NAMES), min_size=1, max_size=2),
    st.lists(_EXPRESSIONS, min_size=1, max_size=4),
)
def test_document_polynomials_match_reference(declared, exprs):
    # Document equality is blind to a polynomial's variable order, so the
    # variable tuples are compared one by one
    text = "\n".join(
        f"variety v{i} {{ vars = [{', '.join(names)}]; ideal = ({', '.join(exprs)}); }}"
        for i, names in enumerate(declared)
    )
    assert _document_outcome(text, False) == _document_outcome(text, True)


# a linear combination of the names of a basis, with fraction coefficients,
# and sometimes a scaled parenthesised one
def _linear(basis):
    term = st.tuples(st.sampled_from(["", "-", "+"]), _CONSTANTS, _GAPS, st.sampled_from(basis))
    combination = st.lists(term, max_size=3).map(
        lambda ts: " + ".join(f"{s}{c}*{g}{b}" for s, c, g, b in ts) or "0"
    )
    return combination | st.tuples(_CONSTANTS, combination).map(lambda t: f"{t[0]}*({t[1]})")


@st.composite
def _table_algebra(draw):
    """A table algebra on two or three basis names, its unit and products in
    any order after the basis, each a random linear combination; sometimes
    one is not linear or names a name outside the basis, in its value or as
    its product."""
    basis = draw(st.permutations(("u", "v", "w")))[: draw(st.integers(2, 3))]
    products = [f"{a}*{b}" for i, a in enumerate(basis) for b in basis[i:]]
    entries = [f"unit = {draw(_linear(basis))};"]
    entries += [f"mul {p} = {draw(_linear(basis))};" for p in products]
    entries = draw(st.permutations(entries))
    fault = draw(st.sampled_from([None, "w*w - u", "1", "u^2", "z", "mul z*u = u;"]))
    if fault is not None:
        at = draw(st.integers(0, len(entries) - 1))
        head = entries[at].split("=")[0]
        entries[at] = fault if fault.startswith("mul") else f"{head}= {fault};"
    gaps = draw(st.lists(_GAPS, min_size=len(entries), max_size=len(entries)))
    body = "".join(f"{g}{e}" for g, e in zip(gaps, entries))
    return f"algebra T {{ basis = [{', '.join(basis)}];{body} }}"


@settings(max_examples=80, deadline=None)
@given(_table_algebra())
def test_table_algebras_match_reference(text):
    assert _document_outcome(text, False) == _document_outcome(text, True)


@settings(max_examples=60, deadline=None)
@given(
    st.permutations(_NAMES).flatmap(lambda names: st.integers(1, 4).map(lambda k: names[:k])),
    st.lists(_EXPRESSIONS, max_size=3),
)
def test_presented_algebras_match_reference(names, relations):
    quotient = f"/({', '.join(relations)})" if relations else ""
    text = f"algebra A = Q[{', '.join(names)}]{quotient};"
    assert _document_outcome(text, False) == _document_outcome(text, True)


# the prolongation coordinates of X = V(y - x^2) over Q[e]/(e^2), and one
# name outside them
_Y_LEAVES = st.sampled_from(("x_0", "y_0", "x_1", "y_1", "z")) | _CONSTANTS


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_expressions(_Y_LEAVES), min_size=1, max_size=3),
    st.lists(_expressions(_CONSTANTS), min_size=1, max_size=4),
    _expressions(_Y_LEAVES),
)
def test_ucd_blocks_match_reference(y_generators, witness, h):
    text = (
        "algebra D = Q[e]/(e^2);\nvariety X { vars = [x, y]; ideal = (y - x^2); }\n"
        f"ucd u {{ algebra = D; X = X; Y = ({', '.join(y_generators)});\n"
        f"  witness = ({', '.join(witness)}); h = {h}; }}"
    )
    assert _document_outcome(text, False) == _document_outcome(text, True)


def test_fixture_polynomials_match_reference():
    for name in cli.fixture_names():
        text = cli.fixture_text(name)
        assert _document_outcome(text, False) == _document_outcome(text, True), name


def test_expression_lives_on_its_names_in_order_of_appearance():
    doc = cli.parse("variety v { vars = [x, y]; ideal = (y^2 - x^3 - x); }")
    assert doc.blocks[0].generators[0].variables == ("y", "x")
    assert P("y^2 - x^3 - x").variables == ("y", "x")
    assert P("y^2 - x^3 - x", ("x", "y")).variables == ("x", "y")


# each error keeps the message, line and column of the reference parser
_MALFORMED = [
    ("x y", None, "missing '*' before 'y'", 1, 3),
    ("2 x", None, "missing '*' before 'x'", 1, 3),
    ("x^", None, "exponent must be a nonnegative integer", 1, 2),
    ("x^-1", None, "exponent must be a nonnegative integer", 1, 2),
    ("1/0", None, "zero denominator", 1, 3),
    ("1/x", None, "expected integer denominator", 1, 3),
    ("1/", None, "expected integer denominator", 1, 3),
    ("(x", None, "expected ')'", 1, 3),
    ("x +", None, "unexpected token ''", 1, 4),
    ("* x", None, "unexpected token '*'", 1, 1),
    ("x)", None, "unexpected trailing ')'", 1, 2),
    ("x^2^3", None, "unexpected trailing '^'", 1, 4),
    ("x^²", None, "unexpected character '²'", 1, 3),
    ("²x", None, "unexpected character '²'", 1, 1),
    ("x\u000b", None, "unexpected character '\\x0b'", 1, 2),
    ("x + z", ("x", "y"), "unknown variable 'z'", 1, 5),
    ("x² + 1", ("x", "y"), "unknown variable 'x²'", 1, 1),
    ("x $", None, "unexpected character '$'", 1, 3),
    ("", None, "unexpected token ''", 1, 1),
    ("  # only a comment", None, "unexpected token ''", 1, 3),
    ("x # c\n y", None, "missing '*' before 'y'", 2, 2),
    ("x\n  + (y\n\t*", None, "unexpected token ''", 3, 3),
    ("x\r\n+ $", None, "unexpected character '$'", 2, 3),
    ("x +\n\n# c\n", None, "unexpected token ''", 4, 1),
    # a sign covers a whole factor, so the factor takes no second exponent
    ("-x^2^3", None, "unexpected trailing '^'", 1, 5),
    ("+x^2^3", None, "unexpected trailing '^'", 1, 5),
    ("2*-x^2^2", None, "unexpected trailing '^'", 1, 7),
    ("-(x)^2^2", None, "unexpected trailing '^'", 1, 7),
    # the end of input is where a comment on the last line starts
    ("x +  # tail", None, "unexpected token ''", 1, 6),
    ("x +  # tail\n", None, "unexpected token ''", 2, 1),
    ("x\r\n+ y\r\n*  # c", None, "unexpected token ''", 3, 4),
    ("x\r\n+ y\r\n*  # c\r\n", None, "unexpected token ''", 4, 1),
    # a tab is one column
    ("x\t$", None, "unexpected character '$'", 1, 3),
    ("x\t\ty", None, "missing '*' before 'y'", 1, 4),
    ("x +\n  # only a comment\n\t$", None, "unexpected character '$'", 3, 2),
]
# a table whose first nine products are well formed, for an error in the
# tenth; the tenth product's line is line 13
_NINE_PRODUCTS = (
    "algebra T {\n  basis = [a, b, c, d];\n  unit = a;\n"
    + "".join(f"  mul {p} = {v};\n" for p, v in [
        ("a*a", "a"), ("a*b", "b"), ("a*c", "c"), ("a*d", "d"), ("b*b", "0"),
        ("b*c", "0"), ("b*d", "0"), ("c*c", "0"), ("c*d", "0"),
    ])
)
_MALFORMED_DOCUMENTS = [
    (
        "variety v {\n\tvars = [x, y];\n\tideal = (x^2 + z);\n}\n",
        "unknown variable 'z'", 3, 17,
    ),
    (
        "# header\r\nvariety v {\r\n  vars = [x, y];  # coords\r\n  ideal = (x^2 +* y);\r\n}\r\n",
        "unexpected token '*'", 4, 17,
    ),
    (
        "algebra A = Q[e]/(e^2);\n\tvariety v {\n\t\tvars = [x];  # one\r\n\t\tideal = (x^2 2);\n}",
        "missing '*' before '2'", 4, 16,
    ),
    ("algebra A = Q[e]/(e^2 + f);", "unknown variable 'f'", 1, 25),
    (
        "variety v {\r\n\tvars = [x, y];\r\n\tideal = (x*y, (x + 1)^²);\r\n}",
        "unexpected character '²'", 3, 24,
    ),
    ("variety v {\n\tvars = [x];\n\tideal = (x^);\n}", "exponent must be a nonnegative integer", 3, 12),
    ("variety v { vars = [x]; ideal = (x - 1/0); }", "zero denominator", 1, 40),
    ("variety v {\n vars = [x];\n ideal = (x # open\n", "expected ')', found 'end of input'", 4, 1),
    (
        "algebra A {\r\n\tbasis = [one, e];\r\n\tunit = one;\r\n\tmul one*e = e $;\r\n}",
        "unexpected character '$'", 4, 16,
    ),
    ("variety v { vars = [x]; ideal = (-x^2^3); }", "expected ')', found '^'", 1, 38),
    (
        _NINE_PRODUCTS + "  mul d*d = d*d;\n}",
        "algebra table entries must be linear combinations of basis names", 13, 3,
    ),
    (_NINE_PRODUCTS + "  mul d*d = 1/0;\n}", "zero denominator", 13, 15),
    (_NINE_PRODUCTS + "  mul d*d = e;\n}", "unknown variable 'e'", 13, 13),
    (_NINE_PRODUCTS + "  mul d*e = d;\n}", "unknown basis name 'e'", 13, 9),
]


def _assert_error(exc, message, line, column):
    assert str(exc) == f"{message} (line {line}, column {column})"
    assert (exc.line, exc.column) == (line, column)


@pytest.mark.parametrize("text, variables, message, line, column", _MALFORMED)
def test_parse_error_positions_are_pinned(text, variables, message, line, column):
    for declared in (variables, variables or ("x", "y")):
        with pytest.raises(PolyParseError) as err:
            P(text, declared)
        _assert_error(err.value, message, line, column)


@pytest.mark.parametrize("text, message, line, column", _MALFORMED_DOCUMENTS)
def test_document_error_positions_are_pinned(text, message, line, column):
    with pytest.raises(PolyParseError) as err:
        cli.parse(text)
    _assert_error(err.value, message, line, column)


# ---------------------------------------------------------------------------
# the parse cache of as_poly


def test_parse_cache_is_bounded():
    assert 0 < _parse_cached.cache_info().maxsize <= 256


def test_cached_text_lives_on_each_variable_tuple():
    first = as_poly("x*y - 1/2", ("x", "y"))
    second = as_poly("x*y - 1/2", ("y", "x", "z"))
    assert first.variables == ("x", "y") and second.variables == ("y", "x", "z")
    assert first == second
    assert as_poly("x*y - 1/2", ["x", "y"]) == first
    assert as_poly("x*y - 1/2", ["x", "y"]).variables == ("x", "y")
    assert as_poly("x*y - 1/2").variables == ("x", "y")


@pytest.mark.parametrize("text, variables, message, line, column", _MALFORMED)
def test_repeated_malformed_text_raises_the_same_error(text, variables, message, line, column):
    for declared in (variables, list(variables or ("x", "y")), variables):
        with pytest.raises(PolyParseError) as err:
            as_poly(text, declared)
        _assert_error(err.value, message, line, column)


def test_repeated_stray_name_keeps_the_operator_error(dual):
    op = make_doperator(dual, Ideal(("x",), []), {"x": ("x", "1")})
    for _ in range(2):
        with pytest.raises(PolyParseError) as err:
            op.apply("x + z")
        _assert_error(err.value, "unknown variable 'z'", 1, 5)
        with pytest.raises(DRingError) as err:
            op.apply(as_poly("x + z"))
        assert str(err.value) == "unknown variable 'z'"


# ---------------------------------------------------------------------------
# monomial orders


def _ref_key(order):
    """The tests' reference order, as a sort key on exponents with bigger
    key = bigger monomial: lex is the exponent itself, grevlex the pair
    (degree, negated reversed exponent), and a block order the pair of its
    blocks' grevlex keys."""

    def grevlex(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    if order.kind == "lex":
        return lambda exp: exp
    if order.kind == "grevlex":
        return grevlex
    return lambda exp: (grevlex(exp[:order.block]), grevlex(exp[order.block:]))


def test_grevlex_vs_lex_disagree_on_classic_pair():
    # x^2 beats y under grevlex (degree first) but also under lex; use the
    # pair where they differ: x*z vs y^2 with x > y > z
    a = (1, 0, 1)
    b = (0, 2, 0)
    assert _ref_key(GREVLEX)(b) > _ref_key(GREVLEX)(a)  # same degree, reverse-lex tie-break
    assert _ref_key(LEX)(a) > _ref_key(LEX)(b)
    assert GREVLEX.neg_key(b) < GREVLEX.neg_key(a)
    assert LEX.neg_key(a) < LEX.neg_key(b)


def test_block_order_eliminates_first_block():
    order = MonomialOrder("block", block=1)
    assert _ref_key(order)((1, 0, 0)) > _ref_key(order)((0, 5, 5))
    assert order.neg_key((1, 0, 0)) < order.neg_key((0, 5, 5))


ORDERS = (GREVLEX, LEX, MonomialOrder("block", 1), MonomialOrder("block", 2))
_EXPS = st.tuples(*[st.integers(0, 3)] * 3)


@given(st.sampled_from(ORDERS), _EXPS, _EXPS)
def test_flat_keys_sort_like_nested_keys(order, a, b):
    """The order's one flat key, smallest on the biggest monomial, sorts
    like the nested reference key, biggest on the biggest monomial."""
    flat = (order.neg_key(b) > order.neg_key(a)) - (order.neg_key(b) < order.neg_key(a))
    ref = _ref_key(order)
    assert flat == (ref(a) > ref(b)) - (ref(a) < ref(b))


# ---------------------------------------------------------------------------
# Groebner bases


def test_groebner_two_variables_plain():
    basis = Ideal(("x", "y"), ["x", "y"]).groebner_basis()
    assert [format_poly(g) for g in basis] == ["x", "y"]


def test_groebner_of_unit_ideal():
    basis = Ideal(("x",), ["3"]).groebner_basis()
    assert [format_poly(g) for g in basis] == ["1"]


def test_groebner_deterministic():
    a = Ideal(("x", "y", "z"), ["y - x^2", "y^2 - z"]).groebner_basis()
    b = Ideal(("x", "y", "z"), ["y - x^2", "y^2 - z"]).groebner_basis()
    assert a == b


def test_elimination_classic_quartic():
    ideal = Ideal(("x", "y", "z"), ["y - x^2", "y^2 - z"])
    elim = elimination_ideal(ideal, ("x", "z"))
    assert [format_poly(g) for g in elim.generators] == ["x^4 - z"]


def test_elimination_dominant_projection_gives_zero_ideal():
    elim = elimination_ideal(Ideal(("x", "y"), ["y - x^2"]), ("x",))
    assert not elim.generators


def test_elimination_keep_everything_is_identity():
    ideal = Ideal(("x",), ["x - 1"])
    elim = elimination_ideal(ideal, ("x",))
    assert all(elim.contains(g) for g in ideal.generators)
    assert all(ideal.contains(g) for g in elim.generators)


def test_membership_examples():
    assert ideal_membership("x^2", Ideal(("x",), ["x"]))
    assert not ideal_membership("x", Ideal(("x",), ["x^2"]))
    assert radical_membership("x", Ideal(("x",), ["x^2"]))
    assert ideal_membership("y - x^2", Ideal(("x", "y", "z"), ["y - x^2", "y^2 - z"]))


def test_radical_contains_tries_the_ideal_before_rabinowitsch(monkeypatch):
    # f in I takes one normal form on I's basis: no basis is computed on the
    # ring with the Rabinowitsch variable
    ideal = Ideal(("x", "y"), ["x^2 - y", "y^3"])
    ideal.groebner_basis()
    rings, original = [], poly.groebner_basis_of

    def counting(generators, variables, *args):
        rings.append(len(variables))
        return original(generators, variables, *args)

    monkeypatch.setattr(poly, "groebner_basis_of", counting)
    assert ideal.radical_contains("x^2 - y") and ideal.radical_contains("0")
    assert rings == []
    # x^6 is in I, x is not: only the radical holds x
    assert ideal.radical_contains("x") and not ideal.contains("x")
    assert rings == [3]


def test_krull_dimension_examples():
    assert krull_dimension(Ideal(("x", "y", "z"), [])) == 3
    assert krull_dimension(Ideal(("x", "y"), ["y - x^2"])) == 1
    assert krull_dimension(Ideal(("x", "y"), ["x", "y"])) == 0
    with pytest.raises(EmptyVarietyError):
        krull_dimension(Ideal(("x",), ["1"]))


def _exhaustive_dimension(n, supports):
    """The subset walk the pruned search replaced: every subset of each size,
    the largest size first, until one contains no support."""
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            if all(not s <= frozenset(subset) for s in supports):
                return size
    return 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any), max_size=10
        )
    )
)
def test_pruned_independent_set_matches_the_exhaustive_walk(leading_monomials):
    n = len(leading_monomials[0]) if leading_monomials else 3
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in leading_monomials]
    mask = poly._independent_set(n, [sum(1 << i for i in s) for s in supports])
    chosen = {i for i in range(n) if mask >> i & 1}
    assert not any(s <= chosen for s in supports)
    assert len(chosen) == _exhaustive_dimension(n, supports)


def test_independent_set_names_a_largest_independent_set():
    # the grevlex leading monomials x^2, x*y, y^2 of the twisted cubic leave z
    cubic = Ideal(("x", "y", "z"), ["y - x^2", "z - x^3"])
    assert cubic.independent_set() == ("z",)
    assert Ideal(("x", "y", "z"), []).independent_set() == ("x", "y", "z")
    assert Ideal(("x", "y"), ["x", "y"]).independent_set() == ()
    with pytest.raises(EmptyVarietyError):
        Ideal(("x",), ["1"]).independent_set()


def test_an_ideal_searches_its_independent_set_once(monkeypatch):
    # the search recurses through the module name, so only the calls with no
    # partial mask, the top-level searches, are counted
    searches, search = [], poly._independent_set

    def counted(n, supports, *partial):
        if not partial:
            searches.append(n)
        return search(n, supports, *partial)

    monkeypatch.setattr(poly, "_independent_set", counted)
    cubic = Ideal(("x", "y", "z"), ["y - x^2", "z - x^3"])
    assert [cubic.krull_dimension() for _ in range(3)] == [1, 1, 1]
    assert searches == [3]
    # an empty variety keeps nothing: it raises on every call
    empty = Ideal(("x", "y"), ["x", "x - 1"])
    for _ in range(2):
        with pytest.raises(EmptyVarietyError):
            empty.krull_dimension()
    assert searches == [3]


def test_budget_exceeded_is_explicit():
    tiny = GroebnerBudget(max_degree=2)
    ideal = Ideal(("x", "y"), ["y^2 - x^3"], budget=tiny)
    with pytest.raises(BudgetExceededError):
        ideal.groebner_basis()


def test_basis_size_cap_is_explicit(monkeypatch):
    assert poly.MAX_BASIS == 2000
    monkeypatch.setattr(poly, "MAX_BASIS", 2)
    ideal = Ideal(("x", "y", "z"), ["x - 1", "y - 2", "z - 3"])
    with pytest.raises(BudgetExceededError) as err:
        ideal.groebner_basis()
    assert str(err.value) == "budget exhausted: basis size exceeds cap 2"


# ---------------------------------------------------------------------------
# heap division against the plain max-scan division


def _reference_normal_form(f, basis, order=GREVLEX, budget=None):
    """Full division that scans the working terms for the largest one at
    every step, dividing by the first basis element that applies."""
    budget = budget or GroebnerBudget()
    info = [(g, max(g.terms, key=_ref_key(order))) for g in basis]
    work = dict(f.terms)
    remainder = {}
    while work:
        lead = max(work, key=_ref_key(order))
        if sum(lead) > budget.max_degree:
            raise BudgetExceededError(
                f"budget exhausted: degree {sum(lead)} exceeds cap {budget.max_degree}"
            )
        c = work.pop(lead)
        for g, glm in info:
            if all(x <= y for x, y in zip(glm, lead)):
                factor = c / g.terms[glm]
                shift = tuple(x - y for x, y in zip(lead, glm))
                for m, gc in g.terms.items():
                    if m == glm:
                        continue
                    exp = tuple(e + s for e, s in zip(m, shift))
                    work[exp] = work.get(exp, Fraction(0)) - factor * gc
                    if work[exp] == 0:
                        del work[exp]
                break
        else:
            remainder[lead] = c
    return remainder


_VARS = ("x", "y", "z")
_POLYS = st.dictionaries(_EXPS, st.integers(-2, 2), max_size=5).map(
    lambda terms: MultiPoly(_VARS, terms)
)
# coefficients with denominators and signs, so that leading coefficients
# are rarely 1 and the pseudo-division has to scale
_RATIONALS = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 1, 2, 3, 5))
)
_NONZERO_POLYS = _POLYS.filter(lambda p: not p.is_zero())
_DIVISION_ORDERS = st.sampled_from((GREVLEX, LEX, MonomialOrder("block", 1)))


@given(
    _DIVISION_ORDERS,
    st.lists(_NONZERO_POLYS, min_size=1, max_size=3),
    st.lists(_POLYS, max_size=3),
    _POLYS,
    st.dictionaries(_EXPS, _RATIONALS, max_size=3).map(lambda t: MultiPoly(_VARS, t)),
)
def test_heap_division_matches_max_scan_reference(order, basis, multipliers, extra, fractional):
    # f = sum m_i * g_i + extra + fractional: reducing it cancels terms along
    # the way, and the fractional part gives f denominators
    f = extra + fractional
    for m, g in zip(multipliers, basis):
        f = f + m * g
    remainder = normal_form(f, basis, order)
    assert remainder.terms == _reference_normal_form(f, basis, order)
    assert remainder.variables == f.variables


def test_heap_division_skips_cancelled_terms():
    f = P("x - y^5 + z", _VARS)
    basis = [P("x - y^5", _VARS)]
    tight = GroebnerBudget(max_degree=3)
    # y^5 enters the heap, then cancels before it would lead
    assert normal_form(f, basis, LEX, tight) == P("z", _VARS)
    assert normal_form(f, basis, LEX, tight).terms == _reference_normal_form(
        f, basis, LEX, tight
    )


def test_heap_division_checks_degree_budget_on_each_lead():
    f = P("x^2 + z", _VARS)
    basis = [P("x^2 - y^5", _VARS)]
    tight = GroebnerBudget(max_degree=3)
    with pytest.raises(BudgetExceededError):
        normal_form(f, basis, LEX, tight)
    with pytest.raises(BudgetExceededError):
        _reference_normal_form(f, basis, LEX, tight)
    assert normal_form(f, basis, LEX) == P("y^5 + z", _VARS)


def test_division_checks_degree_budget_on_terms_not_reduced():
    with pytest.raises(BudgetExceededError):
        normal_form(P("y^5", _VARS), [P("x", _VARS)], LEX, GroebnerBudget(max_degree=3))


# ---------------------------------------------------------------------------
# cached leading data and the trusted constructor


def test_leading_exponent_is_cached_per_order():
    p = P("z^4 + x*z^2 + x*y", _VARS)
    block = MonomialOrder("block", 1)
    expected = {GREVLEX: (0, 0, 4), LEX: (1, 1, 0), block: (1, 0, 2)}
    for _ in range(2):
        for order, lead in expected.items():
            assert p.leading_exponent(order) == lead
            assert p.leading_exponent(order) == max(p.terms, key=_ref_key(order))
    with pytest.raises(ValueError):
        MultiPoly.zero(_VARS).leading_exponent(LEX)


def _assert_clean(p):
    assert p.terms == MultiPoly(p.variables, p.terms).terms
    for exp, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert len(exp) == len(p.variables)
        assert all(type(e) is int and e >= 0 for e in exp)


@given(_DIVISION_ORDERS, _POLYS, _POLYS, st.integers(-3, 3))
def test_trusted_results_are_clean(order, p, q, c):
    results = [p + q, p - q, p - p, p + (-p), p * q, p.scale(c), p.scale(Fraction(c, 2))]
    if not q.is_zero():
        results.append(normal_form(p, [q], order))
    for r in results:
        _assert_clean(r)


def _random_ideal(rng, nvars=3, ngens=3):
    variables = ("x", "y", "z")[:nvars]
    gens = [random_poly(rng, variables) for _ in range(rng.randint(1, ngens))]
    return Ideal(variables, [g for g in gens if not g.is_zero()] or ["x"])


def test_generators_reduce_to_zero_against_basis(rng):
    for _ in range(20):
        ideal = _random_ideal(rng)
        basis = list(ideal.groebner_basis())
        for g in ideal.generators:
            assert normal_form(g, basis).is_zero()


def test_cross_order_membership(rng):
    # every grevlex basis element is in the lex basis's ideal and back
    for _ in range(10):
        ideal = _random_ideal(rng)
        grev = list(ideal.groebner_basis(GREVLEX))
        lex = list(ideal.groebner_basis(LEX))
        for g in grev:
            assert normal_form(g, lex, LEX).is_zero()
        for g in lex:
            assert normal_form(g, grev, GREVLEX).is_zero()


def _sympy_groebner_set(gens, variables):
    import sympy

    symbols = sympy.symbols(" ".join(variables))
    if len(variables) == 1:
        symbols = (symbols,)
    exprs = []
    for g in gens:
        e = sympy.Integer(0)
        for exp, c in g.terms.items():
            mono = sympy.Integer(1)
            for v, p in zip(symbols, exp):
                mono *= v ** p
            e += sympy.Rational(c.numerator, c.denominator) * mono
        exprs.append(e)
    basis = sympy.groebner(exprs, *symbols, order="grevlex")
    out = set()
    for expr in basis.exprs:
        poly = sympy.Poly(expr, *symbols)
        terms = {}
        for exp, c in poly.terms():
            q = sympy.Rational(c)
            terms[tuple(int(x) for x in exp)] = Fraction(int(q.p), int(q.q))
        out.add(frozenset(MultiPoly(variables, terms).monic().terms.items()))
    return out


def test_reduced_basis_matches_independent_implementation(rng):
    # byte-identical reduced bases against a second, unrelated engine
    for _ in range(15):
        ideal = _random_ideal(rng)
        mine = {frozenset(g.terms.items()) for g in ideal.groebner_basis()}
        assert mine == _sympy_groebner_set(ideal.generators, ideal.variables)


# ---------------------------------------------------------------------------
# the integer Buchberger loop against the Fraction loop it replaced


def _reference_gm_update(G, pairs, h, order):
    """Gebauer-Moeller pair update: basis entries are (polynomial, leading
    exponent), a pair is (sort key of the lcm, lcm, entry, entry)."""

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def coprime(a, b):
        return not any(x * y for x, y in zip(a, b))

    lmh = h[1]
    candidates = [(g, lcm(lmh, g[1])) for g in G]
    kept = []
    for i, (g1, t1) in enumerate(candidates):
        if coprime(lmh, g1[1]) or not (
            any(divides(t2, t1) for _, t2 in candidates[i + 1:])
            or any(divides(t2, t1) for _, t2 in kept)
        ):
            kept.append((g1, t1))
    new_pairs = [(_ref_key(order)(t), t, h, g) for g, t in kept if not coprime(lmh, g[1])]
    surviving = [
        pair for pair in pairs
        if not divides(lmh, pair[1])
        or lcm(lmh, pair[2][1]) == pair[1]
        or lcm(lmh, pair[3][1]) == pair[1]
    ]
    surviving.extend(new_pairs)
    new_G = [g for g in G if not divides(lmh, g[1])]
    new_G.append(h)
    return new_G, surviving


def s_polynomial(f, g, order=GREVLEX):
    """The S-polynomial of f and g with both leading terms made monic."""
    lf = f.leading_exponent(order)
    lg = g.leading_exponent(order)
    lcm = tuple(max(x, y) for x, y in zip(lf, lg))

    def monic_times(p, lead):
        shift = tuple(x - y for x, y in zip(lcm, lead))
        lc = p.terms[lead]
        terms = {tuple(map(sum, zip(m, shift))): c / lc for m, c in p.terms.items()}
        return MultiPoly(p.variables, terms)

    return monic_times(f, lf) - monic_times(g, lg)


def _reference_groebner_basis(generators, variables, order, budget):
    """Buchberger on Fraction coefficients: monic S-polynomials, exact
    normal forms, and an interreduction that restarts after every change."""

    def reduce(f, basis):
        return MultiPoly(f.variables, _reference_normal_form(f, basis, order, budget))

    queue = [g.on_variables(variables) for g in generators if not g.is_zero()]
    if not queue:
        return ()
    G, pairs = [], []
    while queue or pairs:
        if queue:
            cand = queue.pop(0)
        else:
            keys = [pair[0] for pair in pairs]
            _, _, (f, _), (g, _) = pairs.pop(keys.index(min(keys)))
            cand = s_polynomial(f, g, order)
        reduced = reduce(cand, [g for g, _ in G]) if G else cand
        if reduced.is_zero():
            continue
        reduced = reduced.monic(order)
        if reduced.total_degree() > budget.max_degree:
            raise BudgetExceededError(
                f"budget exhausted: degree {reduced.total_degree()} exceeds cap "
                f"{budget.max_degree}"
            )
        G, pairs = _reference_gm_update(
            G, pairs, (reduced, reduced.leading_exponent(order)), order
        )
        if len(G) > poly.MAX_BASIS:
            raise BudgetExceededError(
                f"budget exhausted: basis size exceeds cap {poly.MAX_BASIS}"
            )
    minimal = []
    for g, lm in sorted(G, key=lambda entry: _ref_key(order)(entry[1])):
        if not any(all(x <= y for x, y in zip(m.leading_exponent(order), lm)) for m in minimal):
            minimal.append(g)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(minimal):
            others = minimal[:i] + minimal[i + 1:]
            r = reduce(g, others).monic(order) if others else g
            if r.terms != g.terms:
                minimal[i] = r
                changed = True
                break
    minimal.sort(key=lambda p: _ref_key(order)(p.leading_exponent(order)), reverse=True)
    return tuple(minimal)


_GB_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), _RATIONALS, min_size=1, max_size=4
).map(lambda terms: MultiPoly(_VARS, terms))
_GB_ORDERS = st.sampled_from(
    (GREVLEX, LEX, MonomialOrder("block", 1), MonomialOrder("block", 2))
)


def _basis_or_error(compute, *args):
    try:
        return compute(*args)
    except BudgetExceededError as exc:
        return str(exc)


# negative, non-unit leading coefficients and denominators; lex pushes the
# degree past a cap that grevlex stays under
_SCALED_PAIR = [P("-3*x*y + 2/5*z^2 - 1", _VARS), P("4*x^2 - 7/3*y*z + z", _VARS)]


@settings(max_examples=80, deadline=None)
@given(_GB_ORDERS, st.lists(_GB_POLYS, min_size=1, max_size=3), st.integers(3, 8))
@example(GREVLEX, _SCALED_PAIR, 8)
@example(LEX, _SCALED_PAIR, 4)
@example(MonomialOrder("block", 1), _SCALED_PAIR, 8)
def test_integer_engine_matches_fraction_reference(order, gens, cap):
    budget = GroebnerBudget(max_degree=cap)
    mine = _basis_or_error(groebner_basis_of, gens, _VARS, order, budget)
    reference = _basis_or_error(_reference_groebner_basis, gens, _VARS, order, budget)
    if isinstance(reference, str):
        assert mine == reference
        return
    assert isinstance(mine, tuple)
    assert [(g.variables, g.terms) for g in mine] == [
        (g.variables, g.terms) for g in reference
    ]
    for g in mine:
        assert all(type(c) is Fraction for c in g.terms.values())
        assert g.leading_coefficient(order) == 1


def test_cyclic_four_system():
    gens = [
        "a + b + c + d",
        "a*b + b*c + c*d + d*a",
        "a*b*c + b*c*d + c*d*a + d*a*b",
        "a*b*c*d - 1",
    ]
    ideal = Ideal(("a", "b", "c", "d"), gens)
    basis = ideal.groebner_basis()
    assert len(basis) == 7
    mine = {frozenset(g.terms.items()) for g in basis}
    assert mine == _sympy_groebner_set(ideal.generators, ideal.variables)


def test_elimination_result_is_contained_and_keeps_pure_generators(rng):
    for _ in range(10):
        variables = ("x", "y", "z")
        gens = [random_poly(rng, variables) for _ in range(2)]
        pure = random_poly(rng, ("x", "z")).on_variables(variables)
        ideal = Ideal(variables, [g for g in gens + [pure] if not g.is_zero()] or ["x"])
        elim = ideal.elimination_ideal(("x", "z"))
        for g in elim.generators:
            assert ideal.contains(g.on_variables(variables))
        if not pure.is_zero():
            assert elim.contains(pure.on_variables(("x", "z")))


# ---------------------------------------------------------------------------
# Jacobians and smoothness


def test_smooth_parabola_origin():
    ideal = Ideal(("x", "y"), ["y - x^2"])
    assert jacobian_rank_at(ideal.generators, ideal.variables, (0, 0)) == 1
    assert is_smooth_point(ideal, (0, 0))


def test_cuspidal_cubic():
    ideal = Ideal(("x", "y"), ["y^2 - x^3"])
    assert jacobian_rank_at(ideal.generators, ideal.variables, (0, 0)) == 0
    assert not is_smooth_point(ideal, (0, 0))
    assert jacobian_rank_at(ideal.generators, ideal.variables, (1, 1)) == 1
    assert is_smooth_point(ideal, (1, 1))


_RATIONAL_COORDS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * 3),
            st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
            max_size=5,
        ),
        min_size=1,
        max_size=3,
    ),
    st.tuples(*[_RATIONAL_COORDS] * 3),
)
def test_int_gradients_match_the_fraction_derivatives(term_dicts, point):
    variables = ("x", "y", "z")
    polys = [MultiPoly(variables, terms) for terms in term_dicts]
    at = dict(zip(variables, point))
    for f, (value, row, den) in zip(polys, poly._int_gradients(polys, variables, point)):
        assert den > 0 and (value == 0) == (f.evaluate(at) == 0)
        assert value * f.evaluate(at) >= 0
        assert [Fraction(c, den) for c in row] == [
            f.partial_derivative(v).evaluate(at) for v in variables
        ]
    # jacobian_at is exact on the polynomials' common zeros
    shifted = [f - f.evaluate(at) for f in polys]
    assert jacobian_at(shifted, variables, at) == [
        [f.partial_derivative(v).evaluate(at) for v in variables] for f in shifted
    ]


def test_jacobian_requires_point_on_variety():
    ideal = Ideal(("x", "y"), ["y - x^2"])
    with pytest.raises(NotOnVarietyError):
        jacobian_rank_at(ideal.generators, ideal.variables, (1, 3))


def _bareiss_rank(matrix):
    """Fraction-free Gaussian elimination (Bareiss), as an independent rank."""
    m = [[Fraction(c) for c in row] for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = Fraction(1)
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, rows):
            for c in range(col + 1, cols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) / prev
            m[r][col] = Fraction(0)
        prev = m[rank][col]
        rank += 1
        if rank == rows:
            break
    return rank


def test_jacobian_rank_matches_bareiss(rng):
    for _ in range(10):
        variables = ("x", "y", "z")
        gens = []
        for _ in range(2):
            f = random_poly(rng, variables)
            f = f - MultiPoly.constant(f.evaluate({v: 0 for v in variables}), variables)
            gens.append(f)
        gens = [g for g in gens if not g.is_zero()] or [P("x", variables)]
        point = (0, 0, 0)
        rank = jacobian_rank_at(gens, variables, point)
        rows = [
            [g.partial_derivative(v).evaluate({w: 0 for w in variables}) for v in variables]
            for g in gens
        ]
        assert rank == _bareiss_rank(rows)


# ---------------------------------------------------------------------------
# factorisation and solving


def test_factor_difference_of_squares():
    unit, factors = factor_univariate(P("x^2 - 1"))
    assert unit == 1
    assert [(format_poly(f), m) for f, m in factors] == [("x - 1", 1), ("x + 1", 1)]


def test_factor_irreducible_quadratic():
    _, factors = factor_univariate(P("x^2 + 1"))
    assert [(format_poly(f), m) for f, m in factors] == [("x^2 + 1", 1)]


def test_factor_tracks_units_and_multiplicity():
    unit, factors = factor_univariate(P("4*x^2 - 4*x + 1"))
    assert [(format_poly(f), m) for f, m in factors] == [("x - 1/2", 2)]
    assert unit == 4


def test_factor_univariate_rejects_a_polynomial_in_another_variable():
    # the named variable must be the only one in use; a constant passes
    xy = ("x", "y")
    for f, var in [(P("x*y", xy), "x"), (P("x + y", xy), None), (P("y", xy), "x")]:
        with pytest.raises(ValueError, match="polynomial is not univariate"):
            factor_univariate(f, var)
    with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
        factor_univariate(P("0", xy), "x")
    assert factor_univariate(P("3", xy), "x") == (3, [])


def _sympy_factor_univariate(f, var):
    """The oracle: factor_univariate's answer on a nonzero polynomial in
    ``var``, all by sympy."""
    import sympy

    const, factors = _sympy_from_multipoly(f, [var]).factor_list()
    const = sympy.Rational(const)
    unit = Fraction(int(const.p), int(const.q))
    out = []
    for fac, mult in factors:
        terms = {}
        for exp, c in fac.terms():
            q = sympy.Rational(c)
            terms[tuple(int(e) for e in exp)] = Fraction(int(q.p), int(q.q))
        g = MultiPoly((var,), terms)
        lc = g.leading_coefficient(LEX)
        unit *= lc**mult
        out.append((g.scale(Fraction(1) / lc), int(mult)))
    out.sort(key=lambda pair: (pair[0].total_degree(), sorted(pair[0].terms.items())))
    return unit, out


def _no_sympy(*args):
    raise AssertionError("sympy was called")


_RATIONALS = st.fractions(-5, 5, max_denominator=6)


@st.composite
def _low_degree(draw):
    """Coefficients, low first, of a polynomial of degree at most 2 with a
    rational leading coefficient: a constant, a linear polynomial, a
    product of two linear factors (a double root when they agree), or any
    quadratic, most of which are irreducible."""
    lead = draw(_RATIONALS.filter(bool))
    kind = draw(st.sampled_from(("constant", "linear", "split", "double", "any")))
    if kind == "constant":
        return [lead]
    if kind == "linear":
        return [-lead * draw(_RATIONALS), lead]
    if kind == "any":
        return [draw(_RATIONALS), draw(_RATIONALS), lead]
    r = draw(_RATIONALS)
    s = r if kind == "double" else draw(_RATIONALS)
    return [lead * r * s, -lead * (r + s), lead]


@settings(max_examples=150, deadline=None)
@given(_low_degree())
@example([Fraction(-2), Fraction(0), Fraction(1)])  # irreducible: x^2 - 2
@example([Fraction(3, 4), Fraction(-3), Fraction(3)])  # 3 (x - 1/2)^2
@example([Fraction(1), Fraction(-3), Fraction(2)])  # 2 (x - 1) (x - 1/2)
def test_low_degree_factorisation_matches_sympy(coeffs):
    f = univariate_poly(coeffs, "t")
    assert factor_univariate(f, "t") == _sympy_factor_univariate(f, "t")
    if len(coeffs) > 1:
        assert factor_univariate(f) == _sympy_factor_univariate(f, "t")


@st.composite
def _factored(draw):
    """Coefficients, low first, of a product of degree 3 to 9: a rational
    nonzero lead times random linear (possibly t itself), quadratic and
    cubic factors with rational coefficients and multiplicities 1 to 3."""
    f = univariate_poly([draw(_RATIONALS.filter(bool))], "t")
    degree = draw(st.integers(3, 9))
    while f.total_degree() < degree:
        left = degree - max(f.total_degree(), 0)
        d = draw(st.integers(1, min(3, left)))
        mult = draw(st.integers(1, min(3, left // d)))
        if d == 1 and draw(st.booleans()):
            factor = [0, 1]
        else:
            factor = [draw(_RATIONALS) for _ in range(d)] + [draw(_RATIONALS.filter(bool))]
        f = f * univariate_poly(factor, "t") ** mult
    return univariate_coeffs(f, "t")


@settings(max_examples=200, deadline=None)
@given(_factored())
def test_factorisation_matches_sympy(coeffs):
    f = univariate_poly(coeffs, "t")
    assert factor_univariate(f) == _sympy_factor_univariate(f, "t")


@st.composite
def _zassenhaus_inputs(draw):
    """Coefficients, low first, of an int product of degree 4 to 16: random
    factors of degree 1 to 4 with multiplicities 1 to 3, about half of them
    with a constant term past 10^6, some with a lead past 10^6."""
    small, big = st.integers(-9, 9), st.integers(10**6, 10**7) | st.integers(-(10**7), -(10**6))
    f = univariate_poly([draw(st.sampled_from((1, -1, 2, -3)))], "t")
    degree = draw(st.integers(4, 16))
    while f.total_degree() < degree:
        left = degree - max(f.total_degree(), 0)
        d = draw(st.integers(1, min(4, left)))
        mult = draw(st.integers(1, min(3, left // d)))
        factor = [draw(big if draw(st.booleans()) else small)]
        factor += [draw(small) for _ in range(d - 1)]
        factor.append(draw(big if draw(st.integers(0, 5)) == 0 else st.integers(1, 4)))
        f = f * univariate_poly(factor, "t") ** mult
    return univariate_coeffs(f, "t")


@settings(max_examples=120, deadline=None)
@given(_zassenhaus_inputs())
@example([Fraction(c) for c in (1, 0, 0, 0, 1)])  # x^4 + 1 splits mod every prime
@example([Fraction(c) for c in (-1,) + (0,) * 11 + (1,)])  # x^12 - 1
def test_zassenhaus_matches_sympy(coeffs):
    f = univariate_poly(coeffs, "t")
    expected = _sympy_factor_univariate(f, "t")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "_sympy_from_multipoly", _no_sympy)
        assert factor_univariate(f) == expected
        assert is_squarefree(f) == all(mult == 1 for _, mult in expected[1])


def _is_irreducible(coeffs):
    import sympy

    return sympy.Poly(coeffs[::-1], sympy.Symbol("t")).is_irreducible


# irreducible int polynomials of degree 1 to 4, low degree first, with a
# positive lead, monic or not (3t - 2, 2t^2 - 3)
_IRREDUCIBLE_INTS = (
    st.integers(1, 4)
    .flatmap(lambda d: st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    .flatmap(lambda low: st.integers(1, 3).map(lambda lead: low + [lead]))
    .filter(lambda g: math.gcd(*g) == 1 and _is_irreducible(g))
)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_IRREDUCIBLE_INTS, min_size=1, max_size=4, unique_by=tuple).filter(
        lambda fs: sum(len(g) - 1 for g in fs) <= 8
    ),
    st.sampled_from((1, -1, 2, -6)),
)
def test_int_factor_core_matches_sympy(factors, unit):
    # a squarefree product of distinct irreducibles, times a unit: the
    # minimal polynomials the local decomposition factors
    import sympy

    product = [unit]
    for g in factors:
        product = _poly_mul(product, g)
    _, expected = sympy.Poly(product[::-1], sympy.Symbol("t")).factor_list()
    expected = [([int(c) for c in g.all_coeffs()[::-1]], int(m)) for g, m in expected]
    expected.sort(key=lambda gm: (len(gm[0]), [
        (i, Fraction(c, gm[0][-1])) for i, c in enumerate(gm[0]) if c]))
    assert poly._factor_ints(product) == expected
    assert sorted(g for g, _ in expected) == sorted(factors)


# the eight degree 4 and 5 remainders that one algebra_ladder pass factors,
# x^5 - 2*x^3 - 3*x^2 + 6 twice: quadratics times quadratics or cubics
_LADDER_REMAINDERS = [
    ("x^4 - 9", [2, 2]),
    ("x^5 - 2*x^3 - 3*x^2 + 6", [2, 3]),
    ("x^4 - 2*x^2 - 3", [2, 2]),
    ("x^5 - 5*x^3 - 5*x^2 + 25", [2, 3]),
    ("x^4 - 9*x^2 + 18", [2, 2]),
    ("x^5 + 2*x^3 - 7*x^2 - 14", [2, 3]),
    ("x^4 - 2*x^2 - 15", [2, 2]),
]


@pytest.mark.parametrize(
    "text,sympy_degrees",
    [
        # constant term past the root search limit: Zassenhaus finds the
        # linear factor too
        ("(x - 1)*(x^2 + 2000003)", [1, 2]),
        # no rational root, degree 4: Yun's decomposition finds the square
        ("(x^2 + 1)^2", [2]),
        # no rational root, degree 3: irreducible
        ("x^3 - 2", [3]),
        # three rational roots peeled, an irreducible cubic left
        ("(2*x - 1)*(x + 3)*x*(x^3 + x + 1)", [1, 1, 1, 3]),
        # irreducible, but splits mod every prime: recombination rules out
        # every subset
        ("x^4 + 1", [4]),
        # the Swinnerton-Dyer polynomial of 2, 3 and 5: irreducible, with
        # linear or quadratic factors mod every prime
        ("x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576", [8]),
        # cyclotomic factors of degree 1, 2 and 4
        ("x^12 - 1", [1, 1, 2, 2, 2, 4]),
    ]
    + _LADDER_REMAINDERS,
)
def test_factorisation_pinned_cases(monkeypatch, text, sympy_degrees):
    # the oracle's factors have the pinned degrees, and factor_univariate
    # finds them without a sympy call
    f = P(text)
    expected = _sympy_factor_univariate(f, "x")
    assert [g.total_degree() for g, _ in expected[1]] == sympy_degrees
    monkeypatch.setattr(poly, "_sympy_from_multipoly", _no_sympy)
    assert factor_univariate(f) == expected


def _sympy_principal(f):
    """decide_irreducibility's answer on the principal ideal (f), f neither
    constant nor linear, with f always factored by sympy."""
    _, factors = _sympy_from_multipoly(f, sorted(f.used_variables())).factor_list()
    count = sum(1 for g, _ in factors if g.total_degree() > 0)
    if count == 1:
        return IrreducibilityResult("irreducible", "principal-factorisation")
    return IrreducibilityResult(
        "reducible", "principal-factorisation", f"{count} distinct irreducible factors"
    )


_XY_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), min_size=1, max_size=4
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_XY_TERMS, min_size=1, max_size=2))
def test_principal_irreducibility_matches_sympy(factors):
    f = P("1", ("x", "y"))
    for terms in factors:
        f = f * MultiPoly(("x", "y"), terms)
    assume(f.total_degree() >= 2)
    assert decide_irreducibility(Ideal(("x", "y"), [f])) == _sympy_principal(f)


@pytest.mark.parametrize(
    "text,variables,status,certified",
    [
        # a non-constant top coefficient in both variables
        ("x*y - 1", ("x", "y"), "irreducible", False),
        ("x*y^2 + y + x", ("x", "y"), "irreducible", False),
        # square discriminants
        ("y^2 - x^2", ("x", "y"), "reducible", False),
        ("(y - x^2)*(y + 1)", ("x", "y"), "reducible", False),
        # discriminants that are not squares: odd degree, and even degree
        # with a square leading coefficient
        ("y^2 - x^2*(x + 1)", ("x", "y"), "irreducible", True),
        ("y^2 - x^4 - 1", ("x", "y"), "irreducible", True),
        # degree 1 in y over a constant
        ("y - x^2", ("x", "y"), "irreducible", True),
        # one-variable principal ideals
        ("x^2 - 2", ("x",), "irreducible", True),
        ("x^2 - 2", ("x", "y"), "irreducible", True),
        # not certified, but in one variable: factored without sympy
        ("x^3 - x", ("x", "y"), "reducible", False),
    ],
)
def test_principal_irreducibility_pinned_cases(monkeypatch, text, variables, status, certified):
    f = P(text, variables)
    expected = _sympy_principal(f)
    converted = []

    def recording(g, gens):
        converted.append(g)
        return _sympy_from_multipoly(g, gens)

    monkeypatch.setattr(poly, "_sympy_from_multipoly", recording)
    result = decide_irreducibility(Ideal(variables, [f]))
    assert result == expected
    assert result.status == status
    # sympy factors only plane curves in two variables that no certificate
    # decides
    two_variables = len(f.used_variables()) == 2
    assert converted == ([f.monic()] if two_variables and not certified else [])


def test_solve_zero_dim_two_points():
    result = solve_zero_dim(Ideal(("x", "y"), ["x^2 - 1", "y - x"]))
    assert result.points == ((-1, -1), (1, 1))
    assert not result.has_nonrational


def test_solve_zero_dim_flags_irrational():
    result = solve_zero_dim(Ideal(("x",), ["x^2 - 2"]))
    assert result.points == ()
    assert result.has_nonrational


def test_solve_rejects_positive_dimension():
    with pytest.raises(ValueError):
        solve_zero_dim(Ideal(("x", "y"), ["y - x^2"]))


def test_solve_trivial_ideal_has_no_points():
    assert solve_zero_dim(Ideal(("x",), ["1"])).points == ()


def test_solve_points_satisfy_generators_and_bound(rng):
    for _ in range(8):
        u = random_poly(rng, ("x",), max_degree=3)
        v = random_poly(rng, ("y",), max_degree=3)
        if u.is_zero() or u.is_constant():
            u = P("x^2 - 1")
        if v.is_zero() or v.is_constant():
            v = P("y^2 - y")
        ideal = Ideal(("x", "y"), [u.on_variables(("x", "y")), v.on_variables(("x", "y"))])
        if ideal.is_trivial():
            continue
        result = solve_zero_dim(ideal)
        for point in result.points:
            coords = dict(zip(ideal.variables, point))
            assert all(g.evaluate(coords) == 0 for g in ideal.generators)
        assert len(result.points) <= u.total_degree() * v.total_degree()


def _reference_lex_solve(ideal):
    """The lex triangular solver the package used before the algebra
    engine: the eliminant of the last variable, its rational roots, and
    back substitution, with a flag for any irrational root on the way."""
    nonrational = False

    def recurse(variables, gens):
        nonlocal nonrational
        if any(not g.used_variables() and not g.is_zero() for g in gens):
            return []
        gens = [g for g in gens if g.used_variables()]
        if not variables:
            return [()]
        basis = groebner_basis_of(gens, variables, LEX)
        if len(basis) == 1 and basis[0].is_constant():
            return []
        last = variables[-1]
        univariate = next(g for g in basis if g.used_variables() <= {last})
        roots = []
        for g, _ in factor_univariate(univariate, last)[1]:
            if g.total_degree() == 1:
                c = univariate_coeffs(g, last)
                roots.append(-c[0] / c[1])
            else:
                nonrational = True
        solutions = []
        for r in sorted(roots):
            substituted = [g.substitute({last: r}).on_variables(variables[:-1]) for g in basis]
            solutions.extend(p + (r,) for p in recurse(variables[:-1], substituted))
        return solutions

    points = recurse(ideal.variables, list(ideal.generators))
    return tuple(sorted(points)), nonrational


_X_FACTORS = ("x", "x - 1", "x + 2", "2*x - 1", "x^2 - 2", "x^2 + 1")
_Y_FACTORS = ("y", "y + 1", "y - x", "y - x^2", "y^2 - x", "y^2 - 3")


def _product(texts, multiplicities):
    f = P("1", ("x", "y"))
    for text, m in zip(texts, multiplicities):
        f = f * P(text, ("x", "y")) ** m
    return f


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(_X_FACTORS), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(_Y_FACTORS), min_size=1, max_size=2, unique=True),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
    st.sampled_from((0, 1, -1)),
    st.booleans(),
)
def test_solve_zero_dim_matches_lex_reference(xs, ys, mults, shear, redundant):
    # u(x), v(x, y) monic in y: zero-dimensional; repeated factors make the
    # ideal non-radical, x^2 - 2, x^2 + 1, y^2 - 3 and y^2 - x irrational
    u, v = _product(xs, mults), _product(ys, mults)
    assume(u.degree_in("x") * v.degree_in("y") <= 12)
    gens = [u, v] + ([u * P("y", ("x", "y")) + v] if redundant else [])
    if shear:
        sheared = P(f"x + {shear}*y", ("x", "y"))
        gens = [g.substitute({"x": sheared, "y": P("y")}).on_variables(("x", "y")) for g in gens]
    ideal = Ideal(("x", "y"), gens)
    result = solve_zero_dim(ideal)
    assert (result.points, result.has_nonrational) == _reference_lex_solve(ideal)


# ---------------------------------------------------------------------------
# irreducibility (supported cases only)


@pytest.mark.parametrize(
    "gens,variables,status",
    [
        ([], ("x", "y"), "irreducible"),  # affine plane
        (["x + y - 1"], ("x", "y"), "irreducible"),  # linear
        (["y - x^2"], ("x", "y"), "irreducible"),  # principal
        (["x^2 - 1"], ("x",), "reducible"),
        (["x^2 + 1"], ("x",), "irreducible"),  # zero-dim, no rational point
        (["x^2 - 2", "y - x"], ("x", "y"), "irreducible"),  # conjugate pair
        (["x^2 - 1", "y - x"], ("x", "y"), "reducible"),
        (["1"], ("x",), "empty"),
    ],
)
def test_irreducibility_supported_cases(gens, variables, status):
    assert decide_irreducibility(Ideal(variables, gens)).status == status


_IRREDUCIBLE = ("x", "x - 1", "x + 2", "x^2 + 1", "x^2 - 2", "x^3 - 2", "x^2 + x + 1")


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(_IRREDUCIBLE), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
    st.integers(-2, 2),
)
def test_zero_dim_irreducibility_counts_factors(factors, mults, shift):
    # Q[x, y]/(f(x), y - x - shift) is Q[x]/(f): one local component per
    # distinct irreducible factor of f, whatever the multiplicities
    f = _product(factors, mults)
    assume(2 <= f.total_degree() <= 8)
    result = decide_irreducibility(Ideal(("x", "y"), [f, P(f"y - x - {shift}", ("x", "y"))]))
    assert result.method == "zero-dimensional"
    if len(factors) == 1:
        assert result.status == "irreducible"
    else:
        assert (result.status, result.detail) == ("reducible", f"{len(factors)} components")


def test_graph_case_does_not_depend_on_the_presentation():
    # the twisted cubic as a graph over x, as the reduced grevlex basis, and
    # with redundant generators
    presentations = [
        ["y - x^2", "z - x^3"],
        ["y - x^2", "z - x*y"],
        ["x^2 - y", "x*y - z", "y^2 - x*z"],
        ["y - x^2", "z - x^3", "(y - x^2)*(z + 1)", "x*(z - x*y)", "2*z - 2*x^3"],
    ]
    for gens in presentations:
        ideal = Ideal(("x", "y", "z"), gens)
        result = decide_irreducibility(ideal)
        assert (result.status, result.method) == ("irreducible", "graph"), gens
        assert ideal.graph == {"y": P("x^2", ideal.variables), "z": P("x^3", ideal.variables)}
    # the prolongation of the elliptic curve over Q[e]/(e^3) is no graph,
    # and trying costs no budget error
    base = BaseDStructure.trivial(from_presentation(["e"], ["e^3"]))
    tau = prolong(base, Ideal(("x", "y"), ["y^2 - x^3 - x"])).prolonged_ideal
    result = decide_irreducibility(tau)
    assert (result.status, result.method) == ("undetermined", "unsupported-case")
    assert tau.graph is None
    # x and z each occur alone in z - x, but V is the two lines y = 0 and
    # y = x on the plane z = x: the block basis leads with y^2, so no graph
    lines = Ideal(("x", "y", "z"), ["z - x", "y^2 - x*y"])
    assert lines.graph is None
    assert decide_irreducibility(lines).status == "undetermined"


def test_graph_case_when_every_variable_is_a_candidate():
    # every variable occurs alone in one term of a reduced basis element, so
    # the block of all candidates is the whole ring and leads with y_1^2;
    # one candidate per element finds the graph over y_1
    ideal = Ideal(("x_0", "x_1", "y_0", "y_1"), ["y_0 - x_0^2", "y_1 - 2*x_0*x_1", "x_1 - 1"])
    result = decide_irreducibility(ideal)
    assert (result.status, result.method) == ("irreducible", "graph")
    assert ideal.graph == {
        "x_0": P("1/2*y_1", ideal.variables),
        "x_1": P("1", ideal.variables),
        "y_0": P("1/4*y_1^2", ideal.variables),
    }


def test_graph_case_past_the_budget_is_undetermined():
    # the rational normal quartic by its 2x2 minors: the grevlex basis fits
    # degree 3, the block basis needs w - x^4, so the graph search gives up
    # and decide_irreducibility answers as it would without the graph case
    gens = ["x^2 - y", "x*y - z", "y^2 - x*z", "x*z - w", "y*z - x*w", "z^2 - y*w"]
    ideal = Ideal(("x", "y", "z", "w"), gens, GroebnerBudget(max_degree=3))
    result = decide_irreducibility(ideal)
    assert (result.status, result.method) == ("undetermined", "unsupported-case")
    assert ideal.graph is None
    roomy = Ideal(("x", "y", "z", "w"), gens, GroebnerBudget(max_degree=4))
    assert decide_irreducibility(roomy).method == "graph"


def test_irreducibility_undetermined_outside_supported_cases():
    # two non-linear generators in three variables, positive-dimensional
    ideal = Ideal(("x", "y", "z"), ["x^2 + y^2 + z^2 - 1", "x*y - z^2"])
    assert decide_irreducibility(ideal).status == "undetermined"
