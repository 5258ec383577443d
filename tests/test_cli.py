"""The input language, canonical printing, and command dispatch."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dfields.cli import (
    AlgebraBlock,
    Document,
    DringBlock,
    UcdBlock,
    fixture_names,
    fixture_text,
    main,
    parse,
    print_document,
    run,
    run_fixture_corpus,
)
import dfields
from dfields.poly import BudgetExceededError, GroebnerBudget, PolyParseError

PARABOLA = """
algebra dual = Q[e]/(e^2);

dring parabola {
  algebra = dual;
  ring = Q[x, y]/(y - x^2);
  d x = (x, 1);
  d y = (y, 2*x);
}
"""

UCD_PAIR = """
algebra dual = Q[e]/(e^2);
variety line { vars = [x]; }
ucd quadratic {
  algebra = dual;
  X = line;
  Y = (x_1 - x_0^2);
  witness = (0, 0);
  d x = (x, x^2);
}
ucd broken {
  algebra = dual;
  X = line;
  Y = (x_0);
  witness = (0, 0);
}
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_parabola_document():
    doc = parse(PARABOLA)
    assert len(doc.blocks) == 2
    algebra, dring = doc.blocks
    assert isinstance(algebra, AlgebraBlock)
    assert algebra.presentation[0] == ("e",)
    assert isinstance(dring, DringBlock)
    assert dring.variables == ("x", "y")
    assert [v for v, _ in dring.images] == ["x", "y"]


def test_parse_table_algebra_and_ucd():
    doc = parse(UCD_PAIR)
    ucd = doc.lookup("quadratic")
    assert isinstance(ucd, UcdBlock)
    assert ucd.witness == (0, 0)
    assert ucd.d_images[0][0] == "x"


def test_missing_comma_is_a_syntax_error_with_position():
    bad = "algebra dual = Q[e]/(e^2);\ndring d1 { algebra = dual; ring = Q[x]; d x = (x 1); }\n"
    with pytest.raises(PolyParseError) as err:
        parse(bad)
    assert err.value.line == 2
    assert "missing '*'" in str(err.value) or "expected" in str(err.value)


def test_unresolved_reference_reported():
    with pytest.raises(PolyParseError, match="unresolved reference 'nope'"):
        parse("dring d1 { algebra = nope; ring = Q[x]; d x = (x, 1); }")


def test_duplicate_names_rejected():
    with pytest.raises(PolyParseError, match="duplicate"):
        parse("algebra a = Q[e]/(e^2);\nalgebra a = Q[e]/(e^3);")


def test_wrong_reference_type_reported():
    text = "algebra a = Q[e]/(e^2);\nvariety v { vars = [x]; }\n" \
           "dring d1 { algebra = v; ring = Q[x]; d x = (x, 1); }"
    with pytest.raises(PolyParseError, match="not a AlgebraBlock"):
        parse(text)


def test_unknown_variable_in_payload_is_an_error():
    text = "algebra a = Q[e]/(e^2);\ndring d1 { algebra = a; ring = Q[x]; d x = (x, z); }"
    with pytest.raises(PolyParseError, match="unknown variable 'z'"):
        parse(text)


@pytest.mark.parametrize(
    "products, message, column",
    [
        ("mul u*u = u; mul u*v = 0; mul v*v = v; mul v*v = 0;",
         r"duplicate product v\*v", 72),
        ("mul u*u = u; mul u*v = 0; mul v*u = 0; mul v*v = v;",
         r"duplicate product v\*u \(same as u\*v\)", 59),
    ],
)
def test_duplicate_product_is_a_parse_error(products, message, column):
    text = f"algebra a {{ basis = [u, v]; {products} unit = u + v; }}"
    with pytest.raises(PolyParseError, match=message) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (1, column)


_REPEATED_ITEMS = {
    "dring": "algebra dual = Q[e]/(e^2); "
             "dring f { algebra = dual; ring = Q[x]; d x = (x, 1); d x = (x, 2); }",
    "dvariety": "algebra dual = Q[e]/(e^2); variety l { vars = [x]; } "
                "dvariety f { algebra = dual; variety = l; s x = (x, 1); s x = (x, 2); }",
    "ucd": "algebra dual = Q[e]/(e^2); variety l { vars = [x]; } "
           "ucd f { algebra = dual; X = l; Y = (x_1); d x = (x, 1); d x = (x, 2); }",
    "descend": "algebra dual = Q[e]/(e^2); descend f { algebra = dual; "
               "minpoly a = a^2 + 1; d a = (a, 0); vars = [x]; s x = (x, 0); s x = (x, 1); }",
}


@pytest.mark.parametrize("kind", sorted(_REPEATED_ITEMS))
def test_repeated_image_is_a_parse_error(kind):
    text = _REPEATED_ITEMS[kind]
    item = "s x" if kind in ("dvariety", "descend") else "d x"
    with pytest.raises(PolyParseError, match=f"duplicate item '{item}'") as err:
        parse(text)
    # the error points at the variable of the second item
    assert (err.value.line, err.value.column) == (1, text.rindex(item) + 3)


_REPEATED_SINGLE_ITEMS = [
    ("algebra", "basis", "algebra a { basis = [u]; basis = [u]; mul u*u = u; unit = u; }"),
    ("algebra", "unit", "algebra a { basis = [u]; mul u*u = u; unit = u; unit = u; }"),
    ("variety", "vars", "variety l { vars = [x]; vars = [x]; }"),
    ("variety", "ideal", "variety l { vars = [x]; ideal = (x); ideal = (x - 1); }"),
    ("dring", "algebra", "algebra dual = Q[e]/(e^2); "
                         "dring f { algebra = dual; algebra = dual; ring = Q[x]; d x = (x, 1); }"),
    ("dring", "ring", "algebra dual = Q[e]/(e^2); "
                      "dring f { algebra = dual; ring = Q[x]; ring = Q[x]; d x = (x, 1); }"),
    ("dvariety", "algebra", "algebra dual = Q[e]/(e^2); variety l { vars = [x]; } "
                            "dvariety f { algebra = dual; algebra = dual; variety = l; }"),
    ("dvariety", "variety", "algebra dual = Q[e]/(e^2); variety l { vars = [x]; } "
                            "dvariety f { algebra = dual; variety = l; variety = l; }"),
]
_UCD_HEAD = "algebra dual = Q[e]/(e^2); variety l { vars = [x]; } ucd f { algebra = dual; X = l; "
_REPEATED_SINGLE_ITEMS += [
    ("ucd", "algebra", _UCD_HEAD + "algebra = dual; Y = (x_1); }"),
    ("ucd", "base", "algebra dual = Q[e]/(e^2); variety l { vars = [x]; } "
                    "dring b { algebra = dual; ring = Q[t]; d t = (t, 1); } "
                    "ucd f { algebra = dual; base = b; base = b; X = l; Y = (x_1); }"),
    ("ucd", "X", _UCD_HEAD + "X = l; Y = (x_1); }"),
    ("ucd", "Y", _UCD_HEAD + "Y = (x_1); Y = (x_0); }"),
    ("ucd", "witness", _UCD_HEAD + "Y = (x_1); witness = (0, 0); witness = (1, 0); }"),
    ("ucd", "h", _UCD_HEAD + "Y = (x_1); h = x_0; h = 1; }"),
    ("ucd", "assert_irreducible",
     _UCD_HEAD + "Y = (x_1); assert_irreducible = [X]; assert_irreducible = [Y]; }"),
]
_DESCEND_HEAD = "algebra dual = Q[e]/(e^2); descend f { algebra = dual; minpoly a = a^2 + 1; "
_REPEATED_SINGLE_ITEMS += [
    ("descend", "algebra", _DESCEND_HEAD + "algebra = dual; d a = (a, 0); vars = [x]; }"),
    ("descend", "minpoly", _DESCEND_HEAD + "minpoly a = a^2 - 2; d a = (a, 0); vars = [x]; }"),
    ("descend", "d a", _DESCEND_HEAD + "d a = (a, 0); d a = (a, 1); vars = [x]; }"),
    ("descend", "vars", _DESCEND_HEAD + "d a = (a, 0); vars = [x]; vars = [x]; }"),
    ("descend", "ideal",
     _DESCEND_HEAD + "d a = (a, 0); vars = [x]; ideal = (x - a); ideal = (x + a); }"),
]


@pytest.mark.parametrize(
    "item, text",
    [(item, text) for _, item, text in _REPEATED_SINGLE_ITEMS],
    ids=[f"{kind}-{item}" for kind, item, _ in _REPEATED_SINGLE_ITEMS],
)
def test_repeated_single_item_is_a_parse_error(item, text):
    with pytest.raises(PolyParseError, match=f"duplicate item '{item}'") as err:
        parse(text)
    # the error points at the second key (at the variable for 'd a')
    column = text.rindex(item + " ") + 1 + (2 if item == "d a" else 0)
    assert (err.value.line, err.value.column) == (1, column)


_DUAL = "algebra dual = Q[e]/(e^2);\n"
_LINE = "variety l { vars = [x]; }\n"
_BASE = "dring b { algebra = dual; ring = Q[t]; d t = (t, 1); }\n"
_NEXT = "\n\nvariety next { vars = [y]; }"  # a block after the faulty one

# (document, message, line, column) of one parse error each
_PARSE_ERRORS = {
    # an item that needs another comes after it
    "mul-before-basis": (
        "algebra a { mul u*u = u; }",
        "basis must be declared before mul entries", 1, 13),
    "unit-before-basis": (
        "algebra a { unit = u; }", "basis must be declared before the unit", 1, 13),
    "ideal-before-vars": (
        "variety v { ideal = (x); }", "vars must be declared before the ideal", 1, 13),
    "d-before-ring": (
        _DUAL + "dring r { algebra = dual; d x = (x, 1); }",
        "ring must be declared before operator images", 2, 27),
    "s-before-variety": (
        _DUAL + "dvariety f { algebra = dual; s x = (x, 1); }",
        "variety must be declared before the section", 2, 30),
    "Y-before-X": (
        _DUAL + _LINE + "ucd f { algebra = dual; Y = (x_1); }",
        "algebra and X must come before Y", 3, 25),
    "Y-before-algebra": (
        _DUAL + _LINE + "ucd f { X = l; Y = (x_1); }", "algebra and X must come before Y", 3, 16),
    "witness-before-Y": (
        _DUAL + _LINE + "ucd f { algebra = dual; witness = (0, 0); }",
        "algebra and X must be declared before this item", 3, 25),
    "h-before-Y": (
        _DUAL + _LINE + "ucd f { algebra = dual; h = x_0; }",
        "algebra and X must be declared before this item", 3, 25),
    "base-after-Y": (
        _DUAL + _LINE + _BASE + "ucd f { algebra = dual; X = l; Y = (x_1 - x_0); base = b; }",
        "base must come before Y", 4, 49),
    "base-after-witness": (
        _DUAL + _LINE + _BASE
        + "ucd f { algebra = dual; X = l; Y = (x_1 - x_0); witness = (0, 0); base = b; }",
        "base must come before Y", 4, 67),
    "ucd-d-before-X": (
        _DUAL + _LINE + "ucd f { algebra = dual; d x = (x, 1); }",
        "X must be declared before candidate images", 3, 25),
    "descend-d-before-minpoly": (
        _DUAL + "descend f { algebra = dual; d a = (a, 0); }",
        "minpoly must come before the image of alpha", 2, 29),
    "descend-ideal-before-vars": (
        _DUAL + "descend f { algebra = dual; minpoly a = a^2 + 1; ideal = (a); }",
        "vars and minpoly must come before the ideal", 2, 50),
    "descend-s-before-vars": (
        _DUAL + "descend f { algebra = dual; minpoly a = a^2 + 1; s x = (x, 0); }",
        "vars and minpoly must come before the section", 2, 50),
    # images of names that are not coordinates
    "dring-d-z": (
        _DUAL + "dring r { algebra = dual; ring = Q[x]; d z = (z, 1); }",
        "'z' is not a ring variable", 2, 42),
    "dvariety-s-z": (
        _DUAL + _LINE + "dvariety f { algebra = dual; variety = l; s z = (z, 1); }",
        "'z' is not a coordinate", 3, 45),
    "ucd-d-z": (
        _DUAL + _LINE + "ucd f { algebra = dual; X = l; Y = (x_1); d z = (z, 1); }",
        "'z' is not an X coordinate", 3, 45),
    "descend-s-z": (
        _DUAL + "descend f { algebra = dual; minpoly a = a^2 + 1; vars = [x]; s z = (z, 0); }",
        "'z' is not a coordinate", 2, 64),
    "descend-d-b": (
        _DUAL + "descend f { algebra = dual; minpoly a = a^2 + 1; d b = (b, 0); }",
        "descend blocks only give an image for 'a'", 2, 52),
    # unknown items and keys that are not names
    "algebra-foo": (
        "algebra a { basis = [u]; foo = 1; }", "unknown algebra item 'foo'", 1, 26),
    "variety-foo": (
        "variety v { vars = [x]; foo = 1; }", "unknown variety item 'foo'", 1, 25),
    "dring-foo": (
        _DUAL + "dring r { algebra = dual; foo = 1; }", "unknown dring item 'foo'", 2, 27),
    "dvariety-foo": (
        _DUAL + "dvariety f { foo = 1; }", "unknown dvariety item 'foo'", 2, 14),
    "ucd-foo": (_DUAL + "ucd f { foo = 1; }", "unknown ucd item 'foo'", 2, 9),
    "descend-foo": (_DUAL + "descend f { foo = 1; }", "unknown descend item 'foo'", 2, 13),
    "algebra-key": (
        "algebra a { 1 = 2; }", "expected 'an algebra item', found '1'", 1, 13),
    "variety-key": (
        "variety v { 1 = 2; }", "expected 'a variety item', found '1'", 1, 13),
    "dring-key": ("dring r { ( }", "expected 'a dring item', found '('", 1, 11),
    "dvariety-key": ("dvariety f { ; }", "expected 'a dvariety item', found ';'", 1, 14),
    "ucd-key": ("ucd f { 2; }", "expected 'a ucd item', found '2'", 1, 9),
    "descend-key": ("descend f { = }", "expected 'a descend item', found '='", 1, 13),
    "unclosed-block": (
        "variety v { vars = [x]; ", "expected 'a variety item', found 'end of input'", 1, 25),
    "missing-semicolon": (
        "variety v { vars = [x]; ideal = (x) }", "expected ';', found '}'", 1, 37),
    # item payloads
    "assert-irreducible-Z": (
        _DUAL + _LINE
        + "ucd f { algebra = dual; X = l; Y = (x_1); assert_irreducible = [X, Z]; }",
        "assert_irreducible entries must be X or Y", 3, 43),
    "algebra-over-R": ("algebra a = R[e]/(e^2);", "presentations start with 'Q'", 1, 13),
    "ring-over-P": (
        _DUAL + "dring r { algebra = dual; ring = P[x]; }",
        "presentations start with 'Q'", 2, 34),
    "unknown-basis-name": (
        "algebra a { basis = [u]; mul u*w = u; }", "unknown basis name 'w'", 1, 32),
    "reference-to-wrong-kind": (
        _DUAL + "dvariety f { algebra = dual; variety = dual; }",
        "'dual' is a AlgebraBlock, not a VarietyBlock", 2, 40),
    "reference-not-a-name": (
        _DUAL + "dvariety f { algebra = dual; variety = 3; }",
        "expected 'NAME', found '3'", 2, 40),
    # block-level errors point at the block's name
    "algebra-needs": (
        "algebra a { basis = [u]; mul u*u = u; }" + _NEXT,
        "algebra 'a' needs a basis and a unit", 1, 9),
    "algebra-missing-product": (
        "algebra a { basis = [u, v]; mul u*u = u; unit = u; }" + _NEXT,
        "algebra 'a' is missing the product u*v", 1, 9),
    "variety-needs": ("variety v { }" + _NEXT, "variety 'v' needs vars", 1, 9),
    "dring-needs": (
        _DUAL + "dring r { algebra = dual; }" + _NEXT,
        "dring 'r' needs an algebra and a ring", 2, 7),
    "dvariety-needs": (
        _DUAL + _LINE + "dvariety f { algebra = dual; }" + _NEXT,
        "dvariety 'f' needs an algebra and a variety", 3, 10),
    "ucd-needs": (
        _DUAL + _LINE + "ucd f { algebra = dual; X = l; }" + _NEXT,
        "ucd 'f' needs an algebra, X, and Y", 3, 5),
    "descend-needs": (
        _DUAL + "descend f { algebra = dual; minpoly a = a^2 + 1; vars = [x]; }" + _NEXT,
        "descend 'f' needs algebra, minpoly, d a, vars", 2, 9),
    "descend-needs-at-end": (
        _DUAL + "descend f { algebra = dual; vars = [x]; }",
        "descend 'f' needs algebra, minpoly, d alpha, vars", 2, 9),
    # names in a list are distinct
    "vars-x-x": ("variety v { vars = [x, x]; }", "duplicate name 'x'", 1, 24),
    "basis-u-u": (
        "algebra a { basis = [u, u]; mul u*u = u; unit = u; }", "duplicate name 'u'", 1, 25),
    "ring-x-x": (
        _DUAL + "dring r { algebra = dual; ring = Q[x, x]; }", "duplicate name 'x'", 2, 39),
    "presentation-e-e": ("algebra a = Q[e, e]/(e^2);", "duplicate name 'e'", 1, 18),
    "assert-irreducible-X-X": (
        _DUAL + _LINE
        + "ucd f { algebra = dual; X = l; Y = (x_1); assert_irreducible = [X, X]; }",
        "duplicate name 'X'", 3, 68),
    "descend-vars-x-y-x": (
        _DUAL + "descend f { algebra = dual; minpoly a = a^2 + 1; d a = (a, 0); "
        "vars = [x, y, x]; }",
        "duplicate name 'x'", 2, 78),
}


@pytest.mark.parametrize(
    "text, message, line, column",
    list(_PARSE_ERRORS.values()),
    ids=list(_PARSE_ERRORS),
)
def test_parse_error_text_and_position(text, message, line, column):
    with pytest.raises(PolyParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def test_presented_algebra_is_built_once_per_document(monkeypatch):
    import dfields.cli

    calls = []
    original = dfields.cli.from_presentation

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dfields.cli, "from_presentation", counting)
    doc = parse(fixture_text("ode_quadratic.dr"))
    assert len(calls) == 1
    assert run("ucd check", doc).exit_code == 0
    assert len(calls) == 1
    # a second document builds its own algebra
    parse(fixture_text("ode_quadratic.dr"))
    assert len(calls) == 2


PRESENTED_AND_TABLE = """
algebra pres = Q[x, y]/(x^2 - 1, y^2);
algebra tab { basis = [u, v]; mul u*u = u; mul u*v = 0; mul v*v = v; unit = u + v; }
"""


def test_commands_on_one_document_build_and_check_each_algebra_once(monkeypatch):
    import dfields.algebra

    built, checked = [], []
    quotient, axioms = dfields.algebra._quotient_algebra, dfields.algebra._axiom_report

    def building(ideal):
        built.append(ideal.generators)
        return quotient(ideal)

    def checking(algebra):
        checked.append(algebra.basis_names)
        return axioms(algebra)

    monkeypatch.setattr(dfields.algebra, "_quotient_algebra", building)
    monkeypatch.setattr(dfields.algebra, "_axiom_report", checking)
    commands = ("algebra check", "algebra decompose")
    doc = parse(PRESENTED_AND_TABLE)
    shared = [run(command, doc) for command in commands]
    assert len(built) == 1
    assert sorted(checked) == [("1", "x", "y", "x*y"), ("u", "v")]
    fresh = [run(command, parse(PRESENTED_AND_TABLE)) for command in commands]
    assert [r.payload for r in shared] == [r.payload for r in fresh]
    assert [(r.exit_code, r.lines) for r in shared] == [(r.exit_code, r.lines) for r in fresh]
    assert len(built) == 3


def test_algebra_reuse_is_keyed_by_budget():
    capped = GroebnerBudget(max_degree=3)
    error = "budget exhausted: degree 5 exceeds cap 3"
    for budgets in ((None, capped), (capped, None)):
        doc = parse("algebra A = Q[e]/(e^5);\n")
        for budget in budgets:
            result = run("algebra decompose", doc, budget=budget)
            if budget is None:
                assert result.exit_code == 0
                assert result.lines[0].startswith("algebra A: 1 local component(s)")
            else:
                assert result.exit_code == 1
                assert result.payload["results"] == [{"name": "A", "error": error}]
                assert result.errors == [f"algebra A: {error}"]


# ---------------------------------------------------------------------------
# canonical printing


def test_parse_print_round_trip_on_inline_documents():
    for text in (PARABOLA, UCD_PAIR):
        doc = parse(text)
        assert parse(print_document(doc)) == doc


EVERY_ITEM = """
algebra dual = Q[e]/(e^2);
dring par { algebra = dual; ring = Q[t]; d t = (t, 1); }
variety plane { vars = [x, y]; }
ucd full {
  X = plane; algebra = dual; base = par; d y = (y, x);
  Y = (x_1 - t*x_0, y_1); assert_irreducible = [Y, X];
  h = x_0 + t^2*y_0; witness = (0, 1, 2, 3/2, 4); d x = (x, 1/2);
}
descend two { vars = [x, y]; algebra = dual; minpoly b = b^2 - 2; s y = (y, b);
  d b = (b, 0); ideal = (x - b*y, 0); s x = (x, x); }
"""

EVERY_ITEM_PRINTED = """\
algebra dual = Q[e]/(e^2);

dring par {
  algebra = dual;
  ring = Q[t];
  d t = (t, 1);
}

variety plane {
  vars = [x, y];
}

ucd full {
  algebra = dual;
  base = par;
  X = plane;
  Y = (-t*x_0 + x_1, y_1);
  witness = (0, 1, 2, 3/2, 4);
  h = t^2*y_0 + x_0;
  assert_irreducible = [Y, X];
  d y = (y, x);
  d x = (x, 1/2);
}

descend two {
  algebra = dual;
  minpoly b = b^2 - 2;
  d b = (b, 0);
  vars = [x, y];
  ideal = (-b*y + x);
  s y = (y, b);
  s x = (x, x);
}
"""


def test_print_document_puts_items_in_canonical_order():
    # items in any order print in one order; images keep theirs, zero
    # generators are dropped
    doc = parse(EVERY_ITEM)
    assert print_document(doc) == EVERY_ITEM_PRINTED
    assert parse(EVERY_ITEM_PRINTED) == doc


def test_algebra_serialises_back_into_the_language(dual_x_q):
    n = dual_x_q.dim
    basis = tuple(b if b.isidentifier() else f"b{i}" for i, b in enumerate(dual_x_q.basis_names))
    table = tuple(
        ((i, j), tuple(dual_x_q.struct_consts[i][j])) for i in range(n) for j in range(i, n)
    )
    block = AlgebraBlock("mix", None, basis, table, tuple(dual_x_q.unit))
    doc = Document((block,))
    reparsed = parse(print_document(doc))
    assert reparsed == doc
    result = run("algebra decompose", reparsed)
    assert "2 local component(s)" in result.text()


def test_print_parse_print_is_idempotent_on_fixture_corpus():
    for name in fixture_names():
        text = fixture_text(name)
        doc = parse(text)
        printed = print_document(doc)
        assert parse(printed) == doc
        assert print_document(parse(printed)) == printed


# ---------------------------------------------------------------------------
# commands


def test_dring_verify_reports_valid_structure():
    result = run("dring verify", parse(PARABOLA))
    assert result.exit_code == 0
    assert "valid D-ring structure" in result.text()


def test_dring_verify_flags_bad_structure():
    text = PARABOLA.replace("(y, 2*x)", "(y, 1)")
    result = run("dring verify", parse(text))
    assert result.exit_code == 2
    assert "INVALID" in result.text()


def test_prolong_prints_components():
    result = run("prolong", parse(PARABOLA))
    assert result.exit_code == 0
    assert "-2*x_0*x_1 + y_1" in result.text()
    payload = result.payload["results"][0]
    assert payload["generators"][0]["components"] == [
        "-x_0^2 + y_0",
        "-2*x_0*x_1 + y_1",
    ]


def test_algebra_decompose_lists_components():
    text = ("algebra qq { basis = [u, v]; mul u*u = u; mul u*v = 0;"
            " mul v*v = v; unit = u + v; }")
    result = run("algebra decompose", parse(text))
    assert result.exit_code == 0
    assert "2 local component(s)" in result.text()
    assert result.payload["results"][0]["pi_index"] == 0


def test_ucd_exit_codes():
    doc = parse(UCD_PAIR)
    assert run("ucd check", doc, name="quadratic").exit_code == 0
    assert run("ucd check", doc, name="broken").exit_code == 2
    assert run("ucd check", doc).exit_code == 2  # worst of the two
    search = run("ucd search", doc, name="quadratic")
    assert search.exit_code == 0
    assert "found a = (0)" in search.text()


def test_dvariety_sharp_output():
    text = """algebra dual = Q[e]/(e^2);
variety line { vars = [x]; }
dvariety euler { algebra = dual; variety = line; s x = (x, x); }
"""
    result = run("dvariety sharp", parse(text))
    assert result.exit_code == 0
    assert "sharp points {(0)}" in result.text()
    assert result.payload["results"][0]["locus"] == ["x"]
    assert result.payload["results"][0]["dimension"] == 0


@pytest.mark.parametrize("section", ["(x)", "(x, x, 1)"])
def test_dvariety_check_rejects_wrong_section_length(tmp_path, capsys, section):
    path = tmp_path / "euler.dr"
    path.write_text(
        "algebra dual = Q[e]/(e^2);\nvariety line { vars = [x]; }\n"
        f"dvariety euler {{ algebra = dual; variety = line; s x = {section}; }}\n"
    )
    code = main(["dvariety", "check", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "dvariety euler: INVALID (section of 'x' needs 2 components)" in out


def test_descend_command_reports_correspondence():
    text = """algebra dual = Q[e]/(e^2);
descend gauss { algebra = dual; minpoly a = a^2 + 1; d a = (a, 0);
  vars = [x]; ideal = (x - a); s x = (x, 0); }
"""
    result = run("dvariety descend", parse(text))
    assert result.exit_code == 0
    entry = result.payload["results"][0]
    assert sorted(entry["descended_ideal"]) == ["x_0", "x_1 - 1"]
    assert entry["sharp_correspondence"][0]["sharp"] is True


def test_unknown_block_name_is_an_error():
    doc = parse(PARABOLA)
    from dfields.ucd import UcdError

    with pytest.raises(UcdError, match="no dring block named"):
        run("dring verify", doc, name="missing")


# ---------------------------------------------------------------------------
# entry point


def test_main_runs_file(tmp_path, capsys):
    path = tmp_path / "parabola.dr"
    path.write_text(PARABOLA)
    code = main(["dring", "verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "valid D-ring structure" in out


def test_main_json_output(tmp_path, capsys):
    path = tmp_path / "parabola.dr"
    path.write_text(PARABOLA)
    code = main(["--json", "prolong", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["generators"][0]["f"] == "-x_0^2 + y_0".replace("_0", "")


def test_main_reports_parse_errors_as_input_errors(tmp_path, capsys):
    path = tmp_path / "bad.dr"
    path.write_text("algebra a = Q[e]/(e^2;\n")
    code = main(["algebra", "check", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_main_reports_superscript_exponent_as_input_error(tmp_path, capsys):
    path = tmp_path / "sup.dr"
    path.write_text("algebra D = Q[e]/(e^\u00b2);\n", encoding="utf-8")
    code = main(["algebra", "check", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "unexpected character '\u00b2' (line 1, column 21)" in err


def test_main_budget_flag(tmp_path, capsys):
    path = tmp_path / "hard.dr"
    path.write_text(
        "algebra dual = Q[e]/(e^2);\n"
        "dring curve { algebra = dual; ring = Q[x, y]/(y^2 - x^3);"
        " d x = (x, 2*y); d y = (y, 3*x^2); }\n"
    )
    assert main(["dring", "verify", str(path)]) == 0
    code = main(["--budget", "2", "dring", "verify", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "budget exhausted" in err


def test_main_rejects_a_budget_below_one(capsys):
    # 0 is no cap, so it must not fall back to the default cap of 40, and a
    # negative cap would fail every block
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["--budget", value, "--fixtures"])
        assert exc.value.code == 2
        assert "argument --budget: must be at least 1" in capsys.readouterr().err


def test_main_budget_flag_reaches_presented_algebras(tmp_path, capsys):
    # e^60 is past the default degree cap of 40, within a cap of 400
    path = tmp_path / "deep.dr"
    path.write_text("algebra A = Q[e]/(e^60);\n")
    assert main(["algebra", "decompose", str(path)]) == 1
    assert "degree 60 exceeds cap 40" in capsys.readouterr().err
    assert main(["--budget", "400", "algebra", "decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 local component(s)" in out and "dim 60" in out


def test_parse_builds_presented_algebras_under_the_budget():
    # a ucd block needs the algebra's dimension while it is parsed
    text = (
        "algebra A = Q[e]/(e^45);\n"
        "variety X { vars = [x]; ideal = (x); }\n"
        "ucd inst { algebra = A; X = X; Y = (x_0); }\n"
    )
    with pytest.raises(BudgetExceededError, match="degree 45 exceeds cap 40"):
        parse(text)
    budget = GroebnerBudget(max_degree=400)
    assert parse(text, budget).algebras["A", budget].dim == 45


def test_ucd_base_over_another_algebra_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "base.dr"
    path.write_text(
        "algebra dual = Q[e]/(e^2);\n"
        "algebra split { basis = [u, v]; mul u*u = u; mul u*v = 0; mul v*v = v;"
        " unit = u + v; }\n"
        "dring par { algebra = split; ring = Q[t]; d t = (t, t); }\n"
        "variety line { vars = [x]; }\n"
        "ucd c { algebra = dual; base = par; X = line; Y = (x_1 - x_0^2);"
        " witness = (0, 0, 0); }\n"
    )
    code = main(["ucd", "check", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "'split'" in err and "'dual'" in err


@pytest.mark.parametrize("command", ["check", "search"])
def test_ucd_rejects_image_with_wrong_component_count(tmp_path, capsys, command):
    path = tmp_path / "ode.dr"
    path.write_text(
        fixture_text("ode_quadratic.dr").replace("d x = (x, x^2);", "d x = (x, x^2, 1);")
    )
    code = main(["ucd", command, str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: image of 'x' has 3 components; dim(D) is 2" in err


@pytest.mark.parametrize("command", ["check", "search"])
def test_ucd_rejects_images_that_leave_out_a_coordinate(tmp_path, capsys, command):
    path = tmp_path / "plane.dr"
    path.write_text(
        "algebra dual = Q[e]/(e^2);\n"
        "variety plane { vars = [x, y]; }\n"
        "ucd p { algebra = dual; X = plane; Y = (x_1 - x_0^2, y_1 - y_0);\n"
        "  d x = (x, x^2); }\n"
    )
    code = main(["ucd", command, str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: no image given for variable 'y'" in err


def test_fixture_corpus_runs_clean_and_fast():
    start = time.perf_counter()
    ok, lines = run_fixture_corpus()
    elapsed = time.perf_counter() - start
    assert ok, "\n".join(lines)
    assert elapsed < 60
    assert any("parabola.dr" in line for line in lines)


def test_python_dash_m_runs_the_cli():
    src = str(Path(dfields.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "dfields", "--fixtures"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "parabola.dr" in proc.stdout


# ---------------------------------------------------------------------------
# zero-dimensional loci with several components, pinned byte for byte

SPREAD_SHARP = """
algebra dual = Q[e]/(e^2);
variety plane { vars = [x, y]; }
dvariety spread {
  algebra = dual;
  variety = plane;
  s x = (x, x^2*(x^2 - 1)*(x^2 - 2));
  s y = (y, y - x);
}
"""

SPREAD_SHARP_JSON = """\
{
  "command": "dvariety sharp",
  "results": [
    {
      "dimension": 0,
      "locus": [
        "x^6 - 3*x^4 + 2*x^2",
        "-x + y"
      ],
      "name": "spread",
      "nonrational": true,
      "points": [
        [
          "-1",
          "-1"
        ],
        [
          "0",
          "0"
        ],
        [
          "1",
          "1"
        ]
      ],
      "samples": []
    }
  ]
}
"""

SPREAD_SEARCH = """
algebra dual = Q[e]/(e^2);
variety line { vars = [x]; }
variety plane { vars = [x, y]; }
ucd spread {
  algebra = dual;
  X = plane;
  Y = (x_1 - (x_0^2 - 1)*(x_0^2 - 2)*x_0^2, y_1 - y_0 + x_0);
  witness = (1, 1, 0, 0);
}
ucd surd {
  algebra = dual;
  X = line;
  Y = (x_1 - (x_0^2 - 2)^2);
  witness = (0, 4);
}
"""

SPREAD_SEARCH_JSON = """\
{
  "command": "ucd search",
  "results": [
    {
      "dimension": 0,
      "found": true,
      "locus": [
        "-x^6 + 3*x^4 - 2*x^2",
        "x - y"
      ],
      "name": "spread",
      "note": "",
      "points": [
        {
          "a": [
            "-1",
            "-1"
          ],
          "nabla": [
            "-1",
            "-1",
            "0",
            "0"
          ]
        },
        {
          "a": [
            "0",
            "0"
          ],
          "nabla": [
            "0",
            "0",
            "0",
            "0"
          ]
        },
        {
          "a": [
            "1",
            "1"
          ],
          "nabla": [
            "1",
            "1",
            "0",
            "0"
          ]
        }
      ],
      "samples": []
    },
    {
      "dimension": 0,
      "found": false,
      "locus": [
        "-x^4 + 4*x^2 - 4"
      ],
      "name": "surd",
      "note": "no rational point in U found; non-rational locus points exist",
      "points": [],
      "samples": []
    }
  ]
}
"""


@pytest.mark.parametrize(
    "command, document, expected, exit_code",
    [
        # rational points (-1, -1), (1, 1), a double point at the origin
        # and the conjugate pair x = y = +-sqrt(2)
        ("dvariety sharp", SPREAD_SHARP, SPREAD_SHARP_JSON, 0),
        # the same locus as a nabla locus, and a locus with only a
        # conjugate pair of double points
        ("ucd search", SPREAD_SEARCH, SPREAD_SEARCH_JSON, 3),
    ],
)
def test_zero_dimensional_loci_json_pinned(
    tmp_path, capsys, command, document, expected, exit_code
):
    path = tmp_path / "spread.dr"
    path.write_text(document)
    code = main(["--json", *command.split(), str(path)])
    assert capsys.readouterr().out == expected
    assert code == exit_code
