"""Input language, command dispatch, and reporting.

The text format is block-based; statements end with ';' and '#' starts a
comment.  Blocks must be defined before they are referenced.  The items of a
block come in any order, each after the items it needs; the names in a list
are distinct.

    algebra dual = Q[e]/(e^2);
    algebra qq { basis = [u, v]; mul u*u = u; mul u*v = 0; mul v*v = v;
                 unit = u + v; }
    variety parabola { vars = [x, y]; ideal = (y - x^2); }
    dring flow { algebra = dual; ring = Q[x, y]/(y - x^2);
                 d x = (x, 1); d y = (y, 2*x); }
    dvariety dv { algebra = dual; variety = parabola;
                  s x = (x, 1); s y = (y, 2*x); }
    ucd ode { algebra = dual; X = parabola; Y = (x_1 - x_0^2, ...);
              witness = (0, 0); h = x_0; assert_irreducible = [X, Y];
              d x = (x, 1); }
    descend gauss { algebra = dual; minpoly a = a^2 + 1; d a = (a, 0);
                    vars = [x]; ideal = (x - a); s x = (x, 0); }

Commands: ``algebra check|decompose``, ``dring verify``, ``prolong``,
``dvariety check|sharp|descend``, ``ucd check|search``; ``--fixtures``
runs the shipped fixture corpus.
Exit codes: 0 verified/found, 1 input error, 2 refuted, 3 undetermined.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .algebra import (
    AlgebraError,
    FiniteDimAlgebra,
    check_algebra,
    check_assumption_res_field_k,
    from_presentation,
    local_decompose,
)
from .dring import DRingError, check_images, make_doperator
from .dvariety import (
    DVarietyError,
    make_dvariety,
    rational_sharp_points,
    weil_descent,
)
from .poly import (
    GREVLEX,
    LEX,
    BudgetExceededError,
    GroebnerBudget,
    Ideal,
    MultiPoly,
    PolyParseError,
    _ExprParser,
    _is_name,
    _poly_of_terms,
    format_poly,
    tokenize,
)
from .prolongation import BaseDStructure, ProlongationError, prolong, prolonged_variables
from .ucd import UcdError, check_instance, find_nabla_point, ucd_instance


# ---------------------------------------------------------------------------
# document model


@dataclass(frozen=True)
class AlgebraBlock:
    name: str
    presentation: tuple | None  # (vars, relations) when written as Q[..]/(..)
    basis: tuple | None = None
    table: tuple | None = None  # entries ((i, j), coords)
    unit: tuple | None = None


@dataclass(frozen=True)
class VarietyBlock:
    name: str
    variables: tuple
    generators: tuple


@dataclass(frozen=True)
class DringBlock:
    name: str
    algebra: str
    variables: tuple
    relations: tuple
    images: tuple  # pairs (var, components)


@dataclass(frozen=True)
class DVarietyBlock:
    name: str
    algebra: str
    variety: str
    section: tuple  # pairs (var, components)


@dataclass(frozen=True)
class UcdBlock:
    name: str
    algebra: str
    base: str | None
    x_ref: str
    y_generators: tuple
    witness: tuple | None
    h: MultiPoly | None
    assert_irreducible: tuple
    d_images: tuple  # optional search candidate, pairs (var, components)


@dataclass(frozen=True)
class DescendBlock:
    name: str
    algebra: str
    alpha: str
    minpoly: MultiPoly
    alpha_images: tuple
    variables: tuple
    generators: tuple
    section: tuple


def _lookup(blocks, name):
    """The block called ``name``, or None."""
    return next((b for b in blocks if b.name == name), None)


@dataclass(frozen=True)
class Document:
    blocks: tuple
    # resolved algebras by (block name, budget built under; None is the
    # default GroebnerBudget()), filled while parsing and by every Resolver:
    # all runs on one parsed document under one budget share them
    algebras: dict = field(default_factory=dict, compare=False, repr=False)

    def of_type(self, cls):
        return [b for b in self.blocks if isinstance(b, cls)]

    def lookup(self, name):
        return _lookup(self.blocks, name)


# ---------------------------------------------------------------------------
# parser


class _Cursor(_ExprParser):
    """The statement-level reads of the document parser on the string tokens
    of ``text``, with the presented algebras built so far (by block name),
    under ``budget``.  As in the expression parser, an error names its token
    by index: the index of a token just taken is ``pos - 1``."""

    def __init__(self, text, tokens, budget=None):
        super().__init__(text, tokens)
        self.algebras = {}
        self.budget = budget

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, symbol):
        """Takes the next token, which must be ``symbol``."""
        tok = self.take()
        if tok != symbol:
            self.error(f"expected {symbol!r}, found {tok or 'end of input'!r}", self.pos - 1)
        return tok

    def name(self, what="NAME"):
        """Takes the next token, which must be a name; an error says what the
        name was ``what`` for."""
        tok = self.take()
        if not _is_name(tok):
            self.error(f"expected {what!r}, found {tok or 'end of input'!r}", self.pos - 1)
        return tok

    def expr(self, variables):
        """The expression at the cursor as a polynomial on its names in order
        of first appearance; a name outside ``variables`` is an error."""
        variables = tuple(variables)
        terms = self.terms_on(variables)
        names = tuple(self.seen)
        return _poly_of_terms(names, terms, [self.index[v] for v in names])

    def poly_tuple(self, variables):
        self.expect("(")
        items = [self.expr(variables)]
        while self.peek() == ",":
            self.take()
            items.append(self.expr(variables))
        self.expect(")")
        return tuple(items)

    def items(self, what, keys, repeatable=()):
        """Reads a block body ``{ item; .. }``: yields the key of each item
        with its token index and reads the ';' once the caller has read the
        rest of it.  A key that is not a name is an error reported as
        ``expected <what>`` (say 'a dring item'); so is a key outside
        ``keys``, and a second occurrence of a key not in ``repeatable``."""
        self.expect("{")
        seen = set()
        while self.peek() != "}":
            key = self.name(what)
            at = self.pos - 1
            if key in seen:
                self.error(f"duplicate item {key!r}", at)
            if key not in keys:
                self.error(f"unknown {what.split(' ', 1)[1]} {key!r}", at)
            if key not in repeatable:
                seen.add(key)
            yield key, at
            self.expect(";")
        self.take()

    def ref(self, doc_blocks, cls):
        """Reads ``= NAME``: the earlier block it names, which must be a
        ``cls``."""
        self.expect("=")
        tok = self.name()
        block = _lookup(doc_blocks, tok)
        if block is None:
            self.error(f"unresolved reference {tok!r}", self.pos - 1)
        if not isinstance(block, cls):
            self.error(f"{tok!r} is a {type(block).__name__}, not a {cls.__name__}", self.pos - 1)
        return block

    def image(self, key, images, allowed, variables, what):
        """Reads ``var = (..)`` after the item's ``key`` and appends (var,
        components) to ``images``; a var outside ``allowed`` "is not
        <what>", and a second image of one var is an error."""
        var = self.name()
        if var not in allowed:
            self.error(f"{var!r} is not {what}", self.pos - 1)
        if any(v == var for v, _ in images):
            self.error(f"duplicate item '{key} {var}'", self.pos - 1)
        self.expect("=")
        images.append((var, self.poly_tuple(variables)))

    def name_list(self):
        """``[a, b, ..]``: distinct names."""
        self.expect("[")
        names = []
        if _is_name(self.peek()):
            names.append(self.take())
            while self.peek() == ",":
                self.take()
                tok = self.name()
                if tok in names:
                    self.error(f"duplicate name {tok!r}", self.pos - 1)
                names.append(tok)
        self.expect("]")
        return tuple(names)


def _presentation(cursor):
    """Q [ vars ] ( / ( relations ) )?"""
    if cursor.name("'Q'") != "Q":
        cursor.error("presentations start with 'Q'", cursor.pos - 1)
    names = cursor.name_list()
    relations = ()
    if cursor.peek() == "/":
        cursor.take()
        relations = cursor.poly_tuple(names)
    return names, relations


def _check_coords(cursor, terms, dim, at):
    """The coordinate tuple of a table entry's term dict on a basis of
    ``dim`` names; an entry that is not linear is an error at token
    ``at``."""
    coords = [Fraction(0)] * dim
    for exp, c in terms.items():
        if sum(exp) != 1:
            cursor.error("algebra table entries must be linear combinations of basis names", at)
        coords[exp.index(1)] += c
    return tuple(coords)


# Each block parser reads the block after its name ``name``, token ``at``,
# and reports a block-level fault (a missing item) at that token.


def _parse_algebra(cursor, name, at, doc_blocks):
    if cursor.peek() == "=":
        cursor.take()
        variables, relations = _presentation(cursor)
        cursor.expect(";")
        return AlgebraBlock(name, (variables, relations))
    basis = None
    table = {}  # (i, j) with i <= j -> (coords, the product as written)
    unit = None
    for key, key_at in cursor.items("an algebra item", ("basis", "mul", "unit"), ("mul",)):
        if key == "basis":
            cursor.expect("=")
            basis = cursor.name_list()
        elif key == "mul":
            if basis is None:
                cursor.error("basis must be declared before mul entries", key_at)
            left = cursor.name()
            left_at = cursor.pos - 1
            if left not in basis:
                cursor.error(f"unknown basis name {left!r}", left_at)
            cursor.expect("*")
            right = cursor.name()
            if right not in basis:
                cursor.error(f"unknown basis name {right!r}", cursor.pos - 1)
            cursor.expect("=")
            value = cursor.terms_on(basis)
            i, j = sorted((basis.index(left), basis.index(right)))
            written = f"{left}*{right}"
            if (i, j) in table:
                first = table[i, j][1]
                same = "" if first == written else f" (same as {first})"
                cursor.error(f"duplicate product {written}{same}", left_at)
            table[i, j] = (_check_coords(cursor, value, len(basis), key_at), written)
        elif key == "unit":
            if basis is None:
                cursor.error("basis must be declared before the unit", key_at)
            cursor.expect("=")
            unit = _check_coords(cursor, cursor.terms_on(basis), len(basis), key_at)
    if basis is None or unit is None:
        cursor.error(f"algebra {name!r} needs a basis and a unit", at)
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            if (i, j) not in table:
                cursor.error(f"algebra {name!r} is missing the product {basis[i]}*{basis[j]}", at)
    entries = tuple((pair, coords) for pair, (coords, _) in sorted(table.items()))
    return AlgebraBlock(name, None, basis, entries, unit)


def _parse_variety(cursor, name, at, doc_blocks):
    variables = None
    generators = ()
    for key, key_at in cursor.items("a variety item", ("vars", "ideal")):
        if key == "vars":
            cursor.expect("=")
            variables = cursor.name_list()
        elif key == "ideal":
            if variables is None:
                cursor.error("vars must be declared before the ideal", key_at)
            cursor.expect("=")
            generators = cursor.poly_tuple(variables)
    if variables is None:
        cursor.error(f"variety {name!r} needs vars", at)
    generators = tuple(g for g in generators if not g.is_zero())
    return VarietyBlock(name, variables, generators)


def _parse_dring(cursor, name, at, doc_blocks):
    algebra = None
    variables = None
    relations = ()
    images = []
    for key, key_at in cursor.items("a dring item", ("algebra", "ring", "d"), ("d",)):
        if key == "algebra":
            algebra = cursor.ref(doc_blocks, AlgebraBlock).name
        elif key == "ring":
            cursor.expect("=")
            variables, relations = _presentation(cursor)
        elif key == "d":
            if variables is None:
                cursor.error("ring must be declared before operator images", key_at)
            cursor.image(key, images, variables, variables, "a ring variable")
    if algebra is None or variables is None:
        cursor.error(f"dring {name!r} needs an algebra and a ring", at)
    return DringBlock(name, algebra, variables, relations, tuple(images))


def _parse_dvariety(cursor, name, at, doc_blocks):
    algebra = None
    variety = None
    section = []
    for key, key_at in cursor.items("a dvariety item", ("algebra", "variety", "s"), ("s",)):
        if key == "algebra":
            algebra = cursor.ref(doc_blocks, AlgebraBlock).name
        elif key == "variety":
            variety = cursor.ref(doc_blocks, VarietyBlock)
        elif key == "s":
            if variety is None:
                cursor.error("variety must be declared before the section", key_at)
            cursor.image(key, section, variety.variables, variety.variables, "a coordinate")
    if algebra is None or variety is None:
        cursor.error(f"dvariety {name!r} needs an algebra and a variety", at)
    return DVarietyBlock(name, algebra, variety.name, tuple(section))


_UCD_KEYS = ("algebra", "base", "X", "Y", "witness", "h", "assert_irreducible", "d")


def _parse_ucd(cursor, name, at, doc_blocks):
    algebra = None
    base = None
    x_block = None
    y_generators = None
    witness = None
    h = None
    assertions = ()
    d_images = []
    y_vars = None
    for key, key_at in cursor.items("a ucd item", _UCD_KEYS, ("d",)):
        if key in ("witness", "h") and y_vars is None:
            cursor.error("algebra and X must be declared before this item", key_at)
        if key == "algebra":
            algebra = cursor.ref(doc_blocks, AlgebraBlock)
        elif key == "base":
            if y_vars is not None:
                cursor.error("base must come before Y", key_at)
            base = cursor.ref(doc_blocks, DringBlock)
        elif key == "X":
            x_block = cursor.ref(doc_blocks, VarietyBlock)
        elif key == "Y":
            if algebra is None or x_block is None:
                cursor.error("algebra and X must come before Y", key_at)
            y_vars = prolonged_variables(
                base.variables if base else (), x_block.variables,
                _algebra_dim(algebra, cursor),
            )
            cursor.expect("=")
            y_generators = cursor.poly_tuple(y_vars)
        elif key == "witness":
            cursor.expect("=")
            witness = tuple(c.constant_value() for c in cursor.poly_tuple(()))
        elif key == "h":
            cursor.expect("=")
            h = cursor.expr(y_vars)
        elif key == "assert_irreducible":
            cursor.expect("=")
            assertions = cursor.name_list()
            if not set(assertions) <= {"X", "Y"}:
                cursor.error("assert_irreducible entries must be X or Y", key_at)
        elif key == "d":
            if x_block is None:
                cursor.error("X must be declared before candidate images", key_at)
            cursor.image(key, d_images, x_block.variables, x_block.variables, "an X coordinate")
    if algebra is None or x_block is None or y_generators is None:
        cursor.error(f"ucd {name!r} needs an algebra, X, and Y", at)
    return UcdBlock(
        name, algebra.name, base.name if base else None, x_block.name, y_generators,
        witness, h, assertions, tuple(d_images),
    )


_DESCEND_KEYS = ("algebra", "minpoly", "d", "vars", "ideal", "s")


def _parse_descend(cursor, name, at, doc_blocks):
    algebra = None
    alpha = None
    minpoly = None
    alpha_images = None
    variables = None
    generators = ()
    section = []
    for key, key_at in cursor.items("a descend item", _DESCEND_KEYS, ("d", "s")):
        if key == "algebra":
            algebra = cursor.ref(doc_blocks, AlgebraBlock).name
        elif key == "minpoly":
            alpha = cursor.name()
            cursor.expect("=")
            minpoly = cursor.expr((alpha,))
        elif key == "d":
            if alpha is None:
                cursor.error("minpoly must come before the image of alpha", key_at)
            var = cursor.name()
            if var != alpha:
                cursor.error(f"descend blocks only give an image for {alpha!r}", cursor.pos - 1)
            if alpha_images is not None:
                cursor.error(f"duplicate item 'd {alpha}'", cursor.pos - 1)
            cursor.expect("=")
            alpha_images = cursor.poly_tuple((alpha,))
        elif key == "vars":
            cursor.expect("=")
            variables = cursor.name_list()
        elif key == "ideal":
            if variables is None or alpha is None:
                cursor.error("vars and minpoly must come before the ideal", key_at)
            cursor.expect("=")
            generators = cursor.poly_tuple((alpha,) + variables)
        elif key == "s":
            if variables is None or alpha is None:
                cursor.error("vars and minpoly must come before the section", key_at)
            cursor.image(key, section, variables, (alpha,) + variables, "a coordinate")
    if algebra is None or minpoly is None or alpha_images is None or variables is None:
        cursor.error(
            f"descend {name!r} needs algebra, minpoly, d {alpha or 'alpha'}, vars", at
        )
    generators = tuple(g for g in generators if not g.is_zero())
    return DescendBlock(
        name, algebra, alpha, minpoly, alpha_images, variables, generators,
        tuple(section),
    )


def _algebra_dim(block, cursor):
    """The dimension of an algebra block, resolved under the cursor's budget
    into ``cursor.algebras``, which become the document's algebras."""
    return Resolver(Document((block,), cursor.algebras), cursor.budget).algebra(block.name).dim


_BLOCK_PARSERS = {
    "algebra": _parse_algebra,
    "variety": _parse_variety,
    "dring": _parse_dring,
    "dvariety": _parse_dvariety,
    "ucd": _parse_ucd,
    "descend": _parse_descend,
}


def parse(text, budget=None):
    """Parse DSL text into a Document.  Errors carry line and column.  An
    algebra that a ucd block needs while parsing is resolved under
    ``budget`` and kept in the document's algebras for the runs on it."""
    cursor = _Cursor(text, tokenize(text), budget)
    blocks = []
    while cursor.peek():
        kind = cursor.name("a block keyword")
        if kind not in _BLOCK_PARSERS:
            cursor.error(f"unknown block keyword {kind!r}", cursor.pos - 1)
        name = cursor.name("a block name")
        at = cursor.pos - 1
        if _lookup(blocks, name) is not None:
            cursor.error(f"duplicate block name {name!r}", at)
        blocks.append(_BLOCK_PARSERS[kind](cursor, name, at, blocks))
    return Document(tuple(blocks), cursor.algebras)


# ---------------------------------------------------------------------------
# canonical printing


def _print_tuple(polys, order):
    return "(" + ", ".join(format_poly(p, order) for p in polys) + ")"


def _print_names(names):
    return f"[{', '.join(names)}]"


def _print_presentation(variables, relations, order):
    text = "Q" + _print_names(variables)
    return f"{text}/{_print_tuple(relations, order)}" if relations else text


def _print_block(keyword, name, items):
    """A block in brace form: one line ``key = value;`` for each (key,
    value) pair in ``items`` whose value is not empty."""
    lines = [f"{keyword} {name} {{"]
    lines += [f"  {key} = {value};" for key, value in items if value]
    return "\n".join(lines + ["}"])


def _print_images(key, images, order):
    return [(f"{key} {var}", _print_tuple(comps, order)) for var, comps in images]


def print_document(doc, order=GREVLEX):
    """Canonical text for a document; parse(print_document(d)) == d."""
    out = []
    for b in doc.blocks:
        if isinstance(b, AlgebraBlock) and b.presentation is not None:
            text = _print_presentation(*b.presentation, order)
            out.append(f"algebra {b.name} = {text};")
        elif isinstance(b, AlgebraBlock):
            out.append(_print_block("algebra", b.name, [
                ("basis", _print_names(b.basis)),
                *((f"mul {b.basis[i]}*{b.basis[j]}", _linear_text(coords, b.basis))
                  for (i, j), coords in b.table),
                ("unit", _linear_text(b.unit, b.basis)),
            ]))
        elif isinstance(b, VarietyBlock):
            out.append(_print_block("variety", b.name, [
                ("vars", _print_names(b.variables)),
                ("ideal", b.generators and _print_tuple(b.generators, order)),
            ]))
        elif isinstance(b, DringBlock):
            out.append(_print_block("dring", b.name, [
                ("algebra", b.algebra),
                ("ring", _print_presentation(b.variables, b.relations, order)),
                *_print_images("d", b.images, order),
            ]))
        elif isinstance(b, DVarietyBlock):
            out.append(_print_block("dvariety", b.name, [
                ("algebra", b.algebra),
                ("variety", b.variety),
                *_print_images("s", b.section, order),
            ]))
        elif isinstance(b, UcdBlock):
            witness = b.witness and "(" + ", ".join(str(c) for c in b.witness) + ")"
            out.append(_print_block("ucd", b.name, [
                ("algebra", b.algebra),
                ("base", b.base),
                ("X", b.x_ref),
                ("Y", _print_tuple(b.y_generators, order)),
                ("witness", witness),
                ("h", b.h is not None and format_poly(b.h, order)),
                ("assert_irreducible",
                 b.assert_irreducible and _print_names(b.assert_irreducible)),
                *_print_images("d", b.d_images, order),
            ]))
        elif isinstance(b, DescendBlock):
            out.append(_print_block("descend", b.name, [
                ("algebra", b.algebra),
                (f"minpoly {b.alpha}", format_poly(b.minpoly, order)),
                (f"d {b.alpha}", _print_tuple(b.alpha_images, order)),
                ("vars", _print_names(b.variables)),
                ("ideal", b.generators and _print_tuple(b.generators, order)),
                *_print_images("s", b.section, order),
            ]))
    return "\n\n".join(out) + "\n"


def _linear_text(coords, basis):
    poly = MultiPoly(
        basis, {tuple(1 if k == i else 0 for k in range(len(basis))): c
                for i, c in enumerate(coords) if c != 0},
    )
    return format_poly(poly)


# ---------------------------------------------------------------------------
# resolution: blocks to live objects


class Resolver:
    """Builds live objects from document blocks.  Algebras are kept in
    ``doc.algebras`` by block name and budget, so every run on one parsed
    document under one budget shares them; another budget builds its own."""

    def __init__(self, doc, budget=None):
        self.doc = doc
        self.budget = budget or GroebnerBudget()

    def algebra(self, name):
        key = (name, self.budget)
        if key not in self.doc.algebras:
            block = self.doc.lookup(name)
            if block.presentation is not None:
                variables, relations = block.presentation
                self.doc.algebras[key] = from_presentation(variables, relations, self.budget)
            else:
                n = len(block.basis)
                struct = [[None] * n for _ in range(n)]
                for (i, j), coords in block.table:
                    struct[i][j] = struct[j][i] = coords
                self.doc.algebras[key] = FiniteDimAlgebra(struct, block.unit, block.basis)
        return self.doc.algebras[key]

    def ideal(self, variables, generators):
        return Ideal(variables, list(generators), self.budget)

    def doperator(self, block):
        ideal = self.ideal(block.variables, block.relations)
        return make_doperator(self.algebra(block.algebra), ideal, dict(block.images))

    def base(self, ucd_block):
        algebra = self.algebra(ucd_block.algebra)
        if ucd_block.base is None:
            return BaseDStructure.trivial(algebra)
        dring = self.doc.lookup(ucd_block.base)
        if dring.algebra != ucd_block.algebra:
            raise UcdError(
                f"base {dring.name!r} is a dring over algebra {dring.algebra!r}, "
                f"not over the ucd's algebra {ucd_block.algebra!r}"
            )
        if dring.relations:
            raise UcdError("a base must be a dring with no relations")
        return BaseDStructure(algebra, dring.variables, dict(dring.images))

    def dvariety(self, block):
        variety = self.doc.lookup(block.variety)
        ideal = self.ideal(variety.variables, variety.generators)
        return make_dvariety(self.algebra(block.algebra), ideal, dict(block.section))

    def instance(self, block):
        base = self.base(block)
        variety = self.doc.lookup(block.x_ref)
        if block.d_images:
            check_images(base.algebra, variety.variables, dict(block.d_images))
        params = tuple(base.params)
        x_ideal = self.ideal(params + variety.variables, variety.generators)
        y_vars = prolonged_variables(params, variety.variables, base.algebra.dim)
        y_ideal = self.ideal(y_vars, block.y_generators)
        return ucd_instance(
            base, x_ideal, y_ideal, h=block.h, witness=block.witness,
            assert_irreducible=block.assert_irreducible,
        )


# ---------------------------------------------------------------------------
# commands: each runs on one block and returns its exit code, its text
# lines and its JSON entry


@dataclass
class RunResult:
    exit_code: int
    lines: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)  # blocks stopped by the budget

    def text(self):
        return "\n".join(self.lines)


def _algebra_check(block, resolver, order):
    algebra = resolver.algebra(block.name)
    report = check_algebra(algebra)
    entry = {
        "name": block.name,
        "dim": algebra.dim,
        "valid": report.is_valid,
        "violations": [v.describe() for v in report.violations],
    }
    if report.is_valid:
        return 0, [f"algebra {block.name}: valid commutative unital algebra"], entry
    return 2, [f"algebra {block.name}: INVALID ({report.describe()})"], entry


def _algebra_decompose(block, resolver, order):
    algebra = resolver.algebra(block.name)
    comps = local_decompose(algebra)
    assumption = check_assumption_res_field_k(algebra)
    lines = [
        f"algebra {block.name}: {len(comps)} local component(s), "
        f"residue degrees {list(assumption.residue_degrees)}, "
        + ("local" if assumption.is_local else "not local")
    ]
    for i, comp in enumerate(comps):
        marker = " (distinguished)" if algebra.pi_index == i else ""
        lines.append(
            f"  component {i}{marker}: dim {comp.dim}, idempotent "
            f"({', '.join(str(c) for c in comp.idempotent.coords)}), "
            f"residue Q[x]/({format_poly(comp.residue_poly, order)})"
        )
    return 0, lines, algebra.to_dict(with_components=True)


def _dring_verify(block, resolver, order):
    try:
        op = resolver.doperator(block)
    except DRingError as exc:
        entry = {"name": block.name, "valid": False, "error": str(exc)}
        return 2, [f"dring {block.name}: INVALID ({exc})"], entry
    entry = {"name": block.name, "valid": True, **op.to_dict()}
    return 0, [f"dring {block.name}: valid D-ring structure"], entry


def _prolong(block, resolver, order):
    base = BaseDStructure.trivial(resolver.algebra(block.algebra))
    prolonged = prolong(base, resolver.ideal(block.variables, block.relations))
    lines = [f"prolongation of {block.name} in Q[{', '.join(prolonged.variables)}]:"]
    for f, comps in prolonged.per_generator:
        lines.append(f"  {format_poly(f, order)}:")
        for j, comp in enumerate(comps):
            lines.append(f"    level {j}: {format_poly(comp, order)}")
    if not prolonged.per_generator:
        lines.append("  (no relations: the prolongation is affine space)")
    return 0, lines, {"name": block.name, **prolonged.to_dict()}


def _dvariety_check(block, resolver, order):
    try:
        dv = resolver.dvariety(block)
    except (DVarietyError, DRingError) as exc:
        entry = {"name": block.name, "valid": False, "error": str(exc)}
        return 2, [f"dvariety {block.name}: INVALID ({exc})"], entry
    entry = {"name": block.name, "valid": True, **dv.to_dict()}
    return 0, [f"dvariety {block.name}: valid section into the prolongation"], entry


def _dvariety_sharp(block, resolver, order):
    res = rational_sharp_points(resolver.dvariety(block))
    entry = {
        "name": block.name,
        "locus": [format_poly(g, order) for g in res.locus.generators],
        "dimension": res.dimension,
        "points": None if res.points is None else [
            [str(c) for c in p] for p in res.points
        ],
        "samples": [[str(c) for c in p] for p in res.samples],
        "nonrational": res.has_nonrational,
    }
    if res.is_empty:
        line = f"dvariety {block.name}: sharp locus is empty"
    elif res.zero_dimensional:
        pts = ", ".join("(" + ", ".join(str(c) for c in p) + ")" for p in res.points)
        line = (
            f"dvariety {block.name}: sharp points {{{pts or 'none rational'}}}"
            + (" (non-rational points exist)" if res.has_nonrational else "")
        )
    else:
        line = (
            f"dvariety {block.name}: sharp locus has dimension {res.dimension}; "
            f"{len(res.samples)} sample point(s) found"
        )
    return 0, [line], entry


def _dvariety_descend(block, resolver, order):
    res = weil_descent(
        resolver.algebra(block.algebra), block.minpoly, block.alpha_images,
        block.variables, list(block.generators), dict(block.section),
        budget=resolver.budget,
    )
    descended_sharp = rational_sharp_points(res.descended)
    originals = []
    for p in descended_sharp.points or ():
        orig = res.to_original(p)
        originals.append(
            {
                "descended": [str(c) for c in p],
                "original": {v: format_poly(q, order) for v, q in orig.items()},
                "sharp": res.is_sharp_over_extension(orig),
            }
        )
    ideal_text = [format_poly(g, order) for g in res.descended.ideal.generators]
    entry = {
        "name": block.name,
        "descended_variables": list(res.descended.variables),
        "descended_ideal": ideal_text,
        "descended_section": res.descended.to_dict()["section"],
        "forward_table": {
            v: format_poly(p, order) for v, p in res.forward_table.items()
        },
        "sharp_correspondence": originals,
    }
    lines = [
        f"descend {block.name}: V^W in Q[{', '.join(res.descended.variables)}], "
        f"ideal ({', '.join(ideal_text) or '0'})"
    ]
    for item in originals:
        lines.append(
            f"  sharp point ({', '.join(item['descended'])}) <-> "
            f"({', '.join(f'{v}={t}' for v, t in sorted(item['original'].items()))})"
            + ("" if item["sharp"] else "  [MISMATCH]")
        )
    return 0, lines, entry


def _ucd_check(block, resolver, order):
    report = check_instance(resolver.instance(block))
    lines = [f"ucd {block.name}: {report.verdict}"]
    for e in report.entries:
        detail = f" ({e.detail})" if e.detail else ""
        lines.append(f"  {e.name}: {e.status}{detail}")
    return report.exit_code, lines, {"name": block.name, **report.to_dict()}


def _ucd_search(block, resolver, order):
    inst = resolver.instance(block)
    report = check_instance(inst)
    if report.verdict == "refuted":
        entry = {"name": block.name, **report.to_dict()}
        return 2, [f"ucd {block.name}: hypotheses refuted; not searching"], entry
    if block.d_images:
        # an invalid d image is an input error, though the search never reads it
        variety = resolver.doc.lookup(block.x_ref)
        ideal = resolver.ideal(variety.variables, variety.generators)
        make_doperator(resolver.algebra(block.algebra), ideal, dict(block.d_images))
    search = find_nabla_point(inst)
    entry = {"name": block.name, **search.to_dict()}
    if not search.found:
        return 3, [f"ucd {block.name}: {search.note or 'no point found'}"], entry
    a, nb = (search.points or search.samples)[0]
    return 0, [
        f"ucd {block.name}: found a = ({', '.join(str(c) for c in a)}) with "
        f"prolongation point ({', '.join(str(c) for c in nb)})"
    ], entry


# command -> (block class, block keyword, the command on one block), in the
# order of --help and of the fixture corpus
_COMMANDS = {
    "algebra check": (AlgebraBlock, "algebra", _algebra_check),
    "algebra decompose": (AlgebraBlock, "algebra", _algebra_decompose),
    "dring verify": (DringBlock, "dring", _dring_verify),
    "prolong": (DringBlock, "dring", _prolong),
    "dvariety check": (DVarietyBlock, "dvariety", _dvariety_check),
    "dvariety sharp": (DVarietyBlock, "dvariety", _dvariety_sharp),
    "ucd check": (UcdBlock, "ucd", _ucd_check),
    "ucd search": (UcdBlock, "ucd", _ucd_search),
    "dvariety descend": (DescendBlock, "descend", _dvariety_descend),
}

# exit codes of a block from best to worst: verified, undetermined, refuted,
# stopped by the budget
_SEVERITY = (0, 3, 2, 1)


def run(command, document, name=None, budget=None, order=GREVLEX):
    """Run a command against a parsed document; deterministic output.

    A block that exhausts the budget is recorded in ``errors`` (and as an
    ``error`` entry of the payload) with exit code 1; the blocks after it
    still run."""
    if command not in _COMMANDS:
        raise UcdError(f"unknown command {command!r}")
    cls, keyword, run_block = _COMMANDS[command]
    blocks = document.of_type(cls)
    if name is not None:
        block = _lookup(blocks, name)
        if block is None:
            raise UcdError(f"no {keyword} block named {name!r}")
        blocks = [block]
    elif not blocks:
        raise UcdError(f"document has no {keyword} blocks")
    resolver = Resolver(document, budget)
    result = RunResult(0, [], {"command": command, "results": []})
    for block in blocks:
        try:
            code, lines, entry = run_block(block, resolver, order)
        except BudgetExceededError as exc:
            code, lines, entry = 1, [], {"name": block.name, "error": str(exc)}
            result.errors.append(f"{keyword} {block.name}: {exc}")
        result.exit_code = max(result.exit_code, code, key=_SEVERITY.index)
        result.lines.extend(lines)
        result.payload["results"].append(entry)
    return result


# ---------------------------------------------------------------------------
# fixtures and entry point


def fixture_names():
    root = resources.files("dfields") / "fixtures"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".dr"))


def fixture_text(name):
    return (resources.files("dfields") / "fixtures" / name).read_text()


# block class -> the commands the fixture corpus runs on it
_FIXTURE_COMMANDS = {
    cls: [command for command, spec in _COMMANDS.items() if spec[0] is cls]
    for cls, _, _ in _COMMANDS.values()
}


def run_fixture_corpus(budget=None, order=GREVLEX, payloads=None):
    """Parse and exercise every shipped fixture file; input errors are
    failures, refuted/undetermined verdicts are reported outcomes.  Each
    command's JSON payload (or error) goes to ``payloads[fixture][command]``."""
    payloads = {} if payloads is None else payloads
    lines = []
    ok = True
    for fname in fixture_names():
        doc = parse(fixture_text(fname), budget)
        for cls, commands in _FIXTURE_COMMANDS.items():
            if not doc.of_type(cls):
                continue
            for command in commands:
                try:
                    result = run(command, doc, budget=budget, order=order)
                except Exception as exc:  # noqa: BLE001 - report and flag
                    lines.append(f"{fname} :: {command}: ERROR {exc}")
                    payloads.setdefault(fname, {})[command] = {"error": str(exc)}
                    ok = False
                    continue
                lines.append(f"{fname} :: {command}: exit {result.exit_code}")
                payloads.setdefault(fname, {})[command] = result.payload
                lines.extend("  " + l for l in result.lines)
                lines.extend(f"{fname} :: {command}: ERROR {e}" for e in result.errors)
                ok = ok and not result.errors
    return ok, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dfields",
        description="exact computations with free-operator ring structures",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable output")
    parser.add_argument("--budget", type=int, default=None,
                        help="cap the polynomial degree in basis computations")
    parser.add_argument("--order", choices=["grevlex", "lex"], default="grevlex",
                        help="monomial order for canonical printing")
    parser.add_argument("--fixtures", action="store_true",
                        help="run the shipped fixture corpus and exit")
    sub = parser.add_subparsers(dest="group")
    actions = {}  # "algebra" -> ["check", "decompose"], "prolong" -> []
    for command in _COMMANDS:
        group, *action = command.split()
        actions.setdefault(group, []).extend(action)
    for group, choices in actions.items():
        p = sub.add_parser(group)
        if choices:
            p.add_argument("action", choices=choices)
        p.add_argument("file")
        p.add_argument("name", nargs="?", default=None)

    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 1:
        parser.error(f"argument --budget: must be at least 1, got {args.budget}")
    budget = GroebnerBudget(max_degree=args.budget) if args.budget else None
    order = LEX if args.order == "lex" else GREVLEX

    if args.fixtures:
        payloads = {}
        ok, lines = run_fixture_corpus(budget, order, payloads)
        print(json.dumps(payloads, indent=2, sort_keys=True) if args.json else "\n".join(lines))
        return 0 if ok else 1

    if args.group is None:
        parser.print_help()
        return 1

    command = f"{args.group} {args.action}" if "action" in args else args.group
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        document = parse(text, budget)
        result = run(command, document, name=args.name, budget=budget, order=order)
    except (PolyParseError, UcdError, AlgebraError, DRingError, DVarietyError,
            ProlongationError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.payload, indent=2, sort_keys=True))
    elif result.lines:
        print(result.text())
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
