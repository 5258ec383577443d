"""Sparse multivariate polynomials over Q and the ideal toolkit built on them.

Polynomials are immutable: a tuple of variable names plus a map from
exponent vectors to nonzero Fraction coefficients.  Ideals cache one
reduced Groebner basis per monomial order.  All arithmetic is exact.

Groebner bases are computed with Buchberger's algorithm plus the
Gebauer-Moeller pair criteria; runaway computations hit a configurable
resource budget and raise instead of truncating.  Zero-dimensional
questions (rational points, and the zero-dimensional case of
:func:`decide_irreducibility`) are answered by ``algebra``, on the
finite-dimensional algebra Q[x]/I.

The engine keeps its bookkeeping cheap so that the time goes to coefficient
arithmetic:

- an order has one sort key, :meth:`MonomialOrder.neg_key`, a flat tuple
  of ints smallest on the biggest monomial, so a min-heap and ``min``
  find the leading term;
- a polynomial computes its leading exponent once per order and keeps it,
  and each S-pair keeps the sort key of its lcm from when it is formed;
- results that are clean by construction (sums, products, scalings,
  remainders) are built by ``MultiPoly._trusted`` without re-validating;
  ``MultiPoly(...)`` validates outside input in full;
- a product of two polynomials with several terms each runs on ints
  through ``packed.add_products``, the one product routine, which the
  tensor products of ``dring`` share; a one-term factor just scales the
  other's terms.

:func:`_pseudo_remainder` is the one division routine, and it runs on ints.
It divides with a heap of negated keys over the working terms (Monagan and
Pearce, "Sparse polynomial division using a heap", JSC 2011), skipping
entries whose term has cancelled.  Before it cancels c*x^a by g it
multiplies the working terms and the remainder by lc(g) / gcd(c, lc(g)),
and it returns the product of these scalings.  Each scaling is a nonzero
constant, so the popped leads and the budget errors are those of the
division over Q.  :func:`normal_form` scales f to ints once, divides by the
int form each basis polynomial keeps (:func:`_int_normal_form`, which
``dring`` calls on ints), and divides the remainder once by the scale
product.  :func:`groebner_basis_of` keeps each basis entry as coprime
ints with a positive leading coefficient, forms S-pairs on ints, and makes
each nonzero remainder primitive; the reduced basis becomes monic
Fractions once, at the end, each keeping its ints as its int form.

Polynomial text is read in one pass.  :func:`tokenize` is one ``findall``
that returns plain strings, '' for the end of input; an error's line and
column are computed only when it is raised, by reading the text again.  The
parser reads a term as one exponent list and one coefficient on the
variables given (or the names in order of first appearance), adds it into
the expression's one term dict, multiplies term dicts only for parenthesised
factors, and builds one ``MultiPoly`` per expression.  The document parser
of ``cli`` reads its expressions through the same parser.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, mul, neg, sub

from . import linalg
from .packed import _SCALAR_TABLE, _common_int_terms, _fraction_terms, _Packing, add_products


class PolyError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(PolyError):
    """A Groebner computation exceeded its resource budget."""


class EmptyVarietyError(PolyError):
    """Raised when an operation needs a nonempty variety but got <1>."""


class NotOnVarietyError(PolyError):
    """Raised when a supposed point of a variety fails to satisfy it."""


class PolyParseError(PolyError):
    """Syntax error in polynomial (or DSL) text, with position info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: grevlex, lex, or a block elimination order.

    For ``block``, the first ``block`` variables form the elimination
    block; blocks are compared first-block-first, grevlex inside each.
    """

    kind: str = "grevlex"
    block: int = 0

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if self.kind == "block" and self.block <= 0:
            raise ValueError("block order needs a positive elimination block size")

    def neg_key(self, exp):
        """The order's one sort key, a flat tuple of ints, smallest on the
        biggest monomial: grevlex is (-deg, e_n, ..., e_1), lex the negated
        exponent, and a block order concatenates the grevlex keys of its
        two blocks, which sorts block by block as the first has a fixed
        width."""
        if self.kind == "lex":
            return tuple(map(neg, exp))
        if self.kind == "grevlex":
            return (-sum(exp),) + exp[::-1]
        k = self.block
        head, tail = exp[:k], exp[k:]
        return (-sum(head),) + head[::-1] + (-sum(tail),) + tail[::-1]


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# ---------------------------------------------------------------------------
# polynomials


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


class MultiPoly:
    """A sparse polynomial with rational coefficients.

    ``variables`` is an ordered tuple of names; ``terms`` maps exponent
    tuples (one entry per variable) to nonzero Fractions.  Instances are
    immutable; arithmetic between polynomials on different variable
    tuples extends both to the union.
    """

    # _lead ({order: leading exponent}) is only set once a leading exponent
    # is asked for, _ints (see _int_terms) once the int form is
    __slots__ = ("variables", "terms", "_canon", "_lead", "_ints")

    def __init__(self, variables=(), terms=None):
        object.__setattr__(self, "variables", tuple(variables))
        cleaned = {}
        nvars = len(self.variables)
        for exp, c in (terms or {}).items():
            c = _as_fraction(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError("exponent vector does not match variable count")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponents are not allowed")
            cleaned[exp] = cleaned.get(exp, Fraction(0)) + c
        cleaned = {e: c for e, c in cleaned.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, variables, terms):
        """A polynomial on already clean data, taken without validation:
        ``variables`` a tuple, ``terms`` a dict the new polynomial owns,
        mapping int tuples of length len(variables) to nonzero Fractions."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_canon", None)
        return p

    @classmethod
    def constant(cls, c, variables=()):
        c = _as_fraction(c)
        variables = tuple(variables)
        if c == 0:
            return cls._trusted(variables, {})
        return cls._trusted(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, name, variables=None):
        variables = (name,) if variables is None else tuple(variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not among the ring variables")
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls._trusted(variables, {exp: Fraction(1)})

    @classmethod
    def zero(cls, variables=()):
        return cls._trusted(tuple(variables), {})

    @classmethod
    def one(cls, variables=()):
        return cls.constant(1, variables)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return sum(self.terms.values(), Fraction(0))

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, var):
        i = self.variables.index(var)
        if not self.terms:
            return -1
        return max(exp[i] for exp in self.terms)

    def used_variables(self):
        used = set()
        for exp in self.terms:
            for v, e in zip(self.variables, exp):
                if e:
                    used.add(v)
        return used

    def canonical(self):
        """Order-independent canonical form, used for hashing and for
        equality across variable tuples."""
        if self._canon is None:
            items = []
            for exp, c in self.terms.items():
                mono = tuple(sorted((v, e) for v, e in zip(self.variables, exp) if e))
                items.append((mono, c))
            object.__setattr__(self, "_canon", frozenset(items))
        return self._canon

    def __eq__(self, other):
        """Equal as polynomials: on one variable tuple the term dicts are
        compared, across tuples the canonical forms."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.variables)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.variables == other.variables:
            return self.terms == other.terms
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def on_variables(self, variables):
        """The same polynomial expressed on a (super)set of variables."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        missing = self.used_variables() - set(variables)
        if missing:
            raise ValueError(f"cannot drop used variables {sorted(missing)}")
        pos = {v: i for i, v in enumerate(variables)}
        idx = [pos.get(v) for v in self.variables]
        new_terms = {}
        for exp, c in self.terms.items():
            new_exp = [0] * len(variables)
            for i, e in enumerate(exp):
                if e:
                    new_exp[idx[i]] = e
            new_terms[tuple(new_exp)] = c
        return MultiPoly._trusted(variables, new_terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.variables)
        if not isinstance(other, MultiPoly):
            return None, None
        if self.variables == other.variables:
            return self, other
        merged = list(self.variables)
        for v in other.variables:
            if v not in merged:
                merged.append(v)
        merged = tuple(merged)
        return self.on_variables(merged), other.on_variables(merged)

    def __add__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return MultiPoly._trusted(a.variables, _add_terms(dict(a.terms), b.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        negated = [(e, -c) for e, c in b.terms.items()]
        return MultiPoly._trusted(a.variables, _add_terms(dict(a.terms), negated))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return MultiPoly._trusted(a.variables, _mul_terms(a.terms, b.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        zero = (0,) * len(self.variables)
        return MultiPoly._trusted(self.variables, _pow_terms(self.terms, n, zero))

    def scale(self, c):
        c = _as_fraction(c)
        if not c:
            return MultiPoly._trusted(self.variables, {})
        return MultiPoly._trusted(self.variables, {e: c * v for e, v in self.terms.items()})

    # -- calculus and evaluation --------------------------------------------

    def partial_derivative(self, var):
        i = self.variables.index(var)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = terms.get(tuple(new), Fraction(0)) + c * exp[i]
        return MultiPoly(self.variables, terms)

    def substitute(self, assignment):
        """Ring-homomorphic substitution; values are anything :func:`as_poly`
        takes."""
        values = {v: as_poly(val) for v, val in assignment.items()}
        result = MultiPoly.zero()
        powers = {v: [MultiPoly.one()] for v in values}
        for exp, c in self.terms.items():
            term = MultiPoly.constant(c)
            for v, e in zip(self.variables, exp):
                if e == 0:
                    continue
                if v in values:
                    cache = powers[v]
                    while len(cache) <= e:
                        cache.append(cache[-1] * values[v])
                    term = term * cache[e]
                else:
                    term = term * MultiPoly((v,), {(e,): Fraction(1)})
            result = result + term
        return result

    def evaluate(self, point):
        """Evaluate at rational coordinates given as {var: value}."""
        total = Fraction(0)
        for exp, c in self.terms.items():
            val = c
            for v, e in zip(self.variables, exp):
                if e:
                    val *= _as_fraction(point[v]) ** e
            total += val
        return total

    # -- leading data --------------------------------------------------------

    def leading_exponent(self, order=GREVLEX):
        try:
            cache = self._lead
        except AttributeError:
            cache = {}
            object.__setattr__(self, "_lead", cache)
        lead = cache.get(order)
        if lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            lead = cache[order] = min(self.terms, key=order.neg_key)
        return lead

    def _int_terms(self):
        """The terms times lcm(denominators) / gcd(numerators): coprime int
        coefficients, computed once; the dict is shared, so callers only
        read it."""
        try:
            return self._ints
        except AttributeError:
            den = math.lcm(*(c.denominator for c in self.terms.values()))
            num = math.gcd(*(c.numerator for c in self.terms.values()))
            ints = {e: c.numerator // num * (den // c.denominator) for e, c in self.terms.items()}
            object.__setattr__(self, "_ints", ints)
            return ints

    def leading_coefficient(self, order=GREVLEX):
        return self.terms[self.leading_exponent(order)]

    def monic(self, order=GREVLEX):
        if not self.terms:
            return self
        return self.scale(Fraction(1) / self.leading_coefficient(order))

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _add_terms(out, terms):
    """Adds the (exponent, nonzero coefficient) pairs ``terms`` into the term
    dict ``out``, dropping the terms that cancel, and returns ``out``."""
    for exp, c in terms:
        old = out.get(exp)
        if old is None:
            out[exp] = c
        elif c := c + old:
            out[exp] = c
        else:
            del out[exp]
    return out


_ONE = Fraction(1)


def _mul_terms(a, b):
    """The term dict of the product of two term dicts on one variable tuple.
    A one-term factor scales the other's terms; otherwise the int numerators
    over the two common denominators are multiplied on packed exponents by
    ``packed.add_products``, and one Fraction is built per output term."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((e1, c1),) = a.items()
        return {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in b.items()}
    if not a or not b:
        return {}
    da, a_ints = _common_int_terms([a])
    db, b_ints = _common_int_terms([b])
    top = list(map(add, map(max, zip(*a)), map(max, zip(*b))))
    packing, product = _Packing(top), {}
    left, right = packing.pack(a_ints), packing.pack(b_ints)
    add_products([product], _SCALAR_TABLE, left, right, 1, packing)
    return _fraction_terms(packing.unpack(product), da * db)


def _pow_terms(terms, n, zero):
    """The term dict of the n-th power (n >= 0) of a term dict whose zero
    exponent is ``zero``: one term's exponent is scaled, otherwise powers
    are squared and multiplied."""
    if len(terms) == 1:
        ((e, c),) = terms.items()
        return {tuple([k * n for k in e]): c**n}
    result = {zero: _ONE}
    while n:
        if n & 1:
            result = _mul_terms(result, terms)
        terms = _mul_terms(terms, terms) if n > 1 else terms
        n >>= 1
    return result


def linear_combination(coeffs, polys, variables):
    """sum_j coeffs[j] * polys[j], as a polynomial on ``variables``."""
    variables = tuple(variables)
    terms = {}
    for coeff, poly in zip(coeffs, polys):
        if not coeff:
            continue
        coeff = _as_fraction(coeff)
        for exp, c in poly.on_variables(variables).terms.items():
            old = terms.get(exp)
            terms[exp] = coeff * c if old is None else old + coeff * c
    return MultiPoly._trusted(variables, {e: c for e, c in terms.items() if c})


# ---------------------------------------------------------------------------
# text form


# A token, then the blanks and comments after it (_GAP_RE skips those before
# the first): decimal digits (int() rejects other digits, such as '²'), word
# characters, any other character but a blank or '#', or '' at the end.
_GAP = r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
_GAP_RE, _TOKEN_RE = re.compile(_GAP), re.compile(r"(\d+|\w+|[^ \t\r\n#]|\Z)" + _GAP)
_SYMBOLS = frozenset("+-*^(),/;={}[]")


def _is_name(tok):
    """Whether a token of :func:`tokenize` is a name."""
    return (lead := tok[:1]).isalpha() or lead == "_"


def tokenize(text):
    """The tokens of polynomial/DSL text as strings, then '' for the end of
    input; '#' starts a comment.  A name starts with a letter or '_' and goes
    on over letters, digits and '_', an integer is decimal digits, and a
    symbol is one of ``+-*^(),/;={}[]``; any other character is an error."""
    tokens = _TOKEN_RE.findall(text, _GAP_RE.match(text).end())
    bad = [t for t in set(tokens) - _SYMBOLS if t and not (_is_name(t) or t[0].isdecimal())]
    if bad:
        at = min(map(tokens.index, bad))
        raise PolyParseError(f"unexpected character {tokens[at][0]!r}", *_position(text, at))
    return tokens


def _position(text, index):
    """The line and column of token ``index`` of ``text``, read off the text
    again for an error.  The end of input is where a comment on the last
    line starts."""
    matches = _TOKEN_RE.finditer(text, _GAP_RE.match(text).end())
    start = next(itertools.islice(matches, index, None)).start(1)
    if start == len(text):
        comment = text.find("#", text.rfind("\n") + 1)
        start = start if comment < 0 else comment
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


@functools.lru_cache(maxsize=64)
def _layout(variables):
    """The zero exponent on ``variables`` and the position of each one a name
    can spell, the last for a repeated name (as :meth:`MultiPoly.on_variables`
    places it).  The cached dict is shared: callers only read it."""
    return (0,) * len(variables), {v: i for i, v in enumerate(variables) if _is_name(v)}


class _ExprParser:
    """Recursive-descent parser for polynomial expressions on the tokens of
    ``text``.  Grammar: expr := term (("+"|"-") term)*; term := factor ("*"
    factor)*; factor := ("+"|"-") factor | atom ("^" INT)?; atom := NAME |
    INT ("/" INT)? | "(" expr ")".  A sign covers a whole factor, power
    included; implicit multiplication is a syntax error.

    Signs, names, integers, fractions and powers update a term's exponent
    list and coefficient in place; a parenthesised factor is a term dict
    {exponent: nonzero coefficient}.  Integer coefficients stay ints.
    :meth:`terms_on` keeps the names met in ``seen``, in order of first
    appearance.  An error names its token by index.
    """

    def __init__(self, text, tokens):
        self.text, self.tokens, self.pos = text, tokens, 0

    def error(self, message, at=None):
        """Raises a PolyParseError at token ``at``, by default the next one."""
        raise PolyParseError(message, *_position(self.text, self.pos if at is None else at))

    def terms_on(self, variables):
        """The term dict, with int or Fraction coefficients, of the
        expression at the cursor on ``variables``; a name outside them is an
        error."""
        self.zero, self.index = _layout(variables)
        self.seen = {}
        return self.parse_expr({})

    def parse_expr(self, out):
        """Adds the terms of the expression at the cursor into the term dict
        ``out`` and returns it."""
        self.parse_term(out, False)
        while (tok := self.tokens[self.pos]) == "+" or tok == "-":
            self.pos += 1
            self.parse_term(out, tok == "-")
        return out

    def parse_term(self, out, negate):
        """Adds the term at the cursor, negated when ``negate``, into the
        term dict ``out``."""
        tokens, index, seen, error = self.tokens, self.index, self.seen, self.error
        exp = [0] * len(self.zero)
        coeff = -1 if negate else 1
        product = None  # of the parenthesised factors
        pos = self.pos
        while True:
            tok = tokens[pos]
            while tok == "-" or tok == "+":
                if tok == "-":
                    coeff = -coeff
                pos += 1
                tok = tokens[pos]
            at = pos
            pos += 1
            i = index.get(tok)
            if i is not None:
                seen[tok] = None
            elif tok[:1].isdecimal():
                c = int(tok)
                if tokens[pos] == "/":
                    den = tokens[pos + 1]
                    if not den[:1].isdecimal():
                        error("expected integer denominator", pos + 1)
                    if not int(den):
                        error("zero denominator", pos + 1)
                    c = Fraction(c, int(den))
                    pos += 2
            elif tok == "(":
                self.pos = pos
                factor = self.parse_expr({})
                pos = self.pos
                if tokens[pos] != ")":
                    error("expected ')'", pos)
                pos += 1
            elif _is_name(tok):
                error(f"unknown variable {tok!r}", at)
            else:
                error(f"unexpected token {tok!r}", at)
            n = 1
            if tokens[pos] == "^":
                if not tokens[pos + 1][:1].isdecimal():
                    error("exponent must be a nonnegative integer", pos)
                n = int(tokens[pos + 1])
                pos += 2
            if i is not None:
                exp[i] += n
            elif tok == "(":
                if n != 1:
                    factor = _pow_terms(factor, n, self.zero)
                product = factor if product is None else _mul_terms(product, factor)
            else:
                coeff *= c**n
            tok = tokens[pos]
            if tok != "*":
                break
            pos += 1
        self.pos = pos
        if tok == "(" or tok[:1].isalnum() or tok[:1] == "_":
            error(f"missing '*' before {tok!r}")
        if coeff and product is None:
            _add_terms(out, ((tuple(exp), coeff),))
        elif coeff:
            _add_terms(out, [(tuple(map(add, e, exp)), c * coeff) for e, c in product.items()])


def parse_polynomial(text, variables=None):
    """Parse polynomial text.  With ``variables`` given, unknown names are
    rejected and the result lives on exactly those variables; otherwise the
    variables are taken in order of first appearance."""
    tokens = tokenize(text)
    variables = tuple(filter(_is_name, dict.fromkeys(tokens)) if variables is None else variables)
    parser = _ExprParser(text, tokens)
    terms = parser.terms_on(variables)
    if tokens[parser.pos]:
        parser.error(f"unexpected trailing {tokens[parser.pos]!r}")
    return _poly_of_terms(variables, terms)


def _poly_of_terms(variables, terms, positions=None):
    """The polynomial on ``variables`` of a parser's int/Fraction term dict;
    with ``positions``, entry k of each exponent is read at positions[k]."""
    items = terms.items() if positions is None else (
        (tuple([e[i] for i in positions]), c) for e, c in terms.items())
    return MultiPoly._trusted(variables, {e: Fraction(c) if type(c) is int else c for e, c in items})


# polynomials are immutable, so a parsed text can be handed out again
_parse_cached = functools.lru_cache(maxsize=256)(parse_polynomial)


def as_poly(value, variables=None):
    """Polynomial input as a MultiPoly: text is parsed (on ``variables``
    when given, so an unknown name is a PolyParseError), a rational becomes
    a constant, and a MultiPoly is put on ``variables`` when given (a
    ValueError when it uses a variable outside them).  The last 256
    (text, variables) pairs parsed are kept, so a repeated text is parsed
    once."""
    if isinstance(value, MultiPoly):
        return value if variables is None else value.on_variables(variables)
    if isinstance(value, str):
        return _parse_cached(value, None if variables is None else tuple(variables))
    return MultiPoly.constant(value, () if variables is None else variables)


def format_poly(p, order=GREVLEX):
    """Canonical text for a polynomial: terms sorted descending by order."""
    if not p.terms:
        return "0"
    pieces = []
    for exp in sorted(p.terms, key=order.neg_key):
        c = p.terms[exp]
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(p.variables, exp)
            if e
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)!s}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Groebner machinery


@dataclass(frozen=True)
class GroebnerBudget:
    """The degree cap for basis computations; exceeding it raises."""

    max_degree: int = 40


DEFAULT_BUDGET = GroebnerBudget()
# the cap on the size of a basis under construction, under every budget
MAX_BASIS = 2000


def _exp_divides(a, b):
    return all(map(le, a, b))


def _exp_lcm(a, b):
    return tuple(map(max, a, b))


def _exp_sub(a, b):
    return tuple(map(sub, a, b))


def _exp_coprime(a, b):
    return not any(map(mul, a, b))


def normal_form(f, basis, order=GREVLEX, budget=None):
    """Remainder of f on full division by ``basis`` (list of nonzero polys).

    All polynomials must share one variable tuple.  The result has no term
    divisible by any basis leading monomial; deterministic for fixed input.
    Each step divides the largest remaining term by the first basis element
    whose leading monomial divides it (:func:`_pseudo_remainder`, on ints).
    An f within the degree budget with no divisible term is returned as is.
    """
    budget = budget or DEFAULT_BUDGET
    den, (terms,) = _common_int_terms([f.terms])
    remainder, scale = _int_normal_form(terms, basis, order, budget)
    if remainder is terms:
        return f
    return MultiPoly._trusted(f.variables, _fraction_terms(remainder, den * scale))


def _int_normal_form(terms, basis, order, budget):
    """The remainder r of an int term dict on full division by the
    polynomials ``basis``, as in :func:`normal_form`, and the scale s with
    r / s the remainder over Q.  A dict within the degree budget with no
    divisible term is returned as it is, with s = 1."""
    leads = [g.leading_exponent(order) for g in basis]
    if not any(_exp_divides(glm, exp) for exp in terms for glm in leads) and (
        max(map(sum, terms), default=0) <= budget.max_degree
    ):
        return terms, 1
    ints = [(g._int_terms(), glm) for g, glm in zip(basis, leads)]
    return _pseudo_remainder(terms, ints, order, budget)


def _gm_update(G, pairs, h, order):
    """Gebauer-Moeller pair update when h joins the basis.

    Basis entries are (polynomial, leading exponent); a pair is (sort key
    of the lcm, lcm, entry, entry), the new element's entry first.
    """
    lmh = h[1]
    candidates = [(g, _exp_lcm(lmh, g[1])) for g in G]
    kept = []
    for i, (g1, t1) in enumerate(candidates):
        if _exp_coprime(lmh, g1[1]) or not (
            any(_exp_divides(t2, t1) for _, t2 in candidates[i + 1:])
            or any(_exp_divides(t2, t1) for _, t2 in kept)
        ):
            kept.append((g1, t1))
    new_pairs = [
        (order.neg_key(t), t, h, g) for g, t in kept if not _exp_coprime(lmh, g[1])
    ]

    surviving = [
        pair for pair in pairs
        if not _exp_divides(lmh, pair[1])
        or _exp_lcm(lmh, pair[2][1]) == pair[1]
        or _exp_lcm(lmh, pair[3][1]) == pair[1]
    ]
    surviving.extend(new_pairs)

    new_G = [g for g in G if not _exp_divides(lmh, g[1])]
    new_G.append(h)
    return new_G, surviving


def _primitive(terms, lead):
    """int terms divided by their content, signed so that the coefficient
    at ``lead`` is positive."""
    content = math.gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    if content == 1:
        return terms
    return {e: c // content for e, c in terms.items()}


def _s_pair(f, g):
    """The S-polynomial of two integer basis entries (terms, lead), as int
    terms: (lc_g/d) x^(lcm-lf) f - (lc_f/d) x^(lcm-lg) g, d = gcd(lc_f, lc_g)."""
    (fterms, lf), (gterms, lg) = f, g
    lcm = _exp_lcm(lf, lg)
    d = math.gcd(fterms[lf], gterms[lg])
    cf, cg = gterms[lg] // d, fterms[lf] // d
    shift = _exp_sub(lcm, lf)
    out = {tuple(map(add, m, shift)): cf * c for m, c in fterms.items()}
    shift = _exp_sub(lcm, lg)
    for m, c in gterms.items():
        exp = tuple(map(add, m, shift))
        c = out.get(exp, 0) - cg * c
        if c:
            out[exp] = c
        else:
            del out[exp]
    return out


def _pseudo_remainder(terms, basis, order, budget):
    """The remainder of int terms on full division by ``basis``, integer
    entries (terms, lead), and the product s of the scalings applied.

    Each popped lead is checked against the degree budget and divided by
    the first entry whose lead divides it.  To cancel c*x^a by g it first
    multiplies the working terms and the remainder by lc_g / gcd(c, lc_g),
    so every coefficient stays an int.  The remainder comes out in
    descending order, and remainder / s is the remainder over Q.
    """
    neg_key = order.neg_key
    max_degree = budget.max_degree
    work = dict(terms)
    heap = [(neg_key(exp), exp) for exp in work]
    heapq.heapify(heap)
    remainder = {}
    multiplier = 1
    while heap:
        lead = heapq.heappop(heap)[1]
        c = work.pop(lead, None)
        if c is None:
            continue
        if sum(lead) > max_degree:
            raise BudgetExceededError(
                f"budget exhausted: degree {sum(lead)} exceeds cap {max_degree}"
            )
        for gterms, glm in basis:
            if all(map(le, glm, lead)):
                glc = gterms[glm]
                d = math.gcd(c, glc)
                scale = glc // d
                if scale != 1:
                    work = {e: v * scale for e, v in work.items()}
                    remainder = {e: v * scale for e, v in remainder.items()}
                    multiplier *= scale
                factor = -(c // d)
                shift = _exp_sub(lead, glm)
                for m, gc in gterms.items():
                    if m == glm:
                        continue
                    exp = tuple(map(add, m, shift))
                    old = work.get(exp)
                    if old is None:
                        work[exp] = factor * gc
                        heapq.heappush(heap, (neg_key(exp), exp))
                    else:
                        old += factor * gc
                        if old:
                            work[exp] = old
                        else:
                            del work[exp]
                break
        else:
            remainder[lead] = c
    return remainder, multiplier


def groebner_basis_of(generators, variables, order=GREVLEX, budget=None):
    """Reduced Groebner basis of the ideal spanned by ``generators``."""
    budget = budget or DEFAULT_BUDGET
    variables = tuple(variables)
    queue = [
        g.on_variables(variables)._int_terms() for g in generators if not g.is_zero()
    ]
    if not queue:
        return ()

    neg_key = order.neg_key
    G = []
    pairs = []
    while queue or pairs:
        if queue:
            cand = queue.pop(0)
        else:
            # the first pair with the smallest lcm
            keys = [pair[0] for pair in pairs]
            _, _, f, g = pairs.pop(keys.index(max(keys)))
            cand = _s_pair(f, g)
        reduced = _pseudo_remainder(cand, G, order, budget)[0] if G else cand
        if not reduced:
            continue
        lead = min(reduced, key=neg_key)
        reduced = _primitive(reduced, lead)
        degree = max(map(sum, reduced))
        if degree > budget.max_degree:
            raise BudgetExceededError(
                f"budget exhausted: degree {degree} exceeds cap {budget.max_degree}"
            )
        G, pairs = _gm_update(G, pairs, (reduced, lead), order)
        if len(G) > MAX_BASIS:
            raise BudgetExceededError(f"budget exhausted: basis size exceeds cap {MAX_BASIS}")

    # minimalise and interreduce in one pass, smallest lead first: each kept
    # element's tail is reduced by the kept elements before it (only a
    # smaller lead can divide a tail term, and no lead changes), which
    # gives the unique reduced basis
    minimal = []
    for terms, lead in sorted(G, key=lambda entry: neg_key(entry[1]), reverse=True):
        if not any(_exp_divides(m, lead) for _, m in minimal):
            if minimal:
                terms = _primitive(_pseudo_remainder(terms, minimal, order, budget)[0], lead)
            minimal.append((terms, lead))
    basis = []
    for terms, lead in reversed(minimal):
        lc = terms[lead]
        g = MultiPoly._trusted(variables, {e: Fraction(c, lc) for e, c in terms.items()})
        object.__setattr__(g, "_ints", terms)
        basis.append(g)
    return tuple(basis)


def _fresh_name(base, taken):
    """``base``, or ``base`` with the first counter from 2 up that is not taken."""
    name = base
    counter = 2
    while name in taken:
        name = f"{base}{counter}"
        counter += 1
    return name


class Ideal:
    """An ideal of Q[variables] that keeps its reduced Groebner basis per
    order, its independent set and its irreducibility once computed.  Each
    is written once and computed deterministically, so concurrent duplicate
    computation is harmless: both racers produce the identical answer."""

    def __init__(self, variables, generators, budget=None):
        self.variables = tuple(variables)
        self.generators = tuple(as_poly(g, self.variables) for g in generators)
        self.budget = budget or DEFAULT_BUDGET
        self._bases, self._independent, self._irreducibility = {}, None, None

    def __repr__(self):
        gens = ", ".join(format_poly(g) for g in self.generators)
        return f"Ideal([{', '.join(self.variables)}], <{gens}>)"

    def groebner_basis(self, order=GREVLEX):
        key = (order.kind, order.block)
        if key not in self._bases:
            self._bases[key] = groebner_basis_of(
                self.generators, self.variables, order, self.budget
            )
        return self._bases[key]

    def normal_form(self, f, order=GREVLEX):
        f = f.on_variables(self.variables)
        basis = self.groebner_basis(order)
        if not basis:
            return f
        return normal_form(f, list(basis), order, self.budget)

    def contains(self, f):
        return self.normal_form(as_poly(f, self.variables)).is_zero()

    def is_trivial(self):
        """True when 1 is in the ideal (empty variety)."""
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].is_constant()

    def radical_contains(self, f):
        """Whether f vanishes on V(I): f in I (one normal form on the cached
        basis), or else, by Rabinowitsch, 1 in I + <1 - t*f>."""
        f = as_poly(f, self.variables)
        if self.contains(f):
            return True
        aux = _fresh_name("t_rad", self.variables)
        new_vars = self.variables + (aux,)
        t = MultiPoly.variable(aux, new_vars)
        gens = [g.on_variables(new_vars) for g in self.generators]
        gens.append(MultiPoly.one(new_vars) - t * f.on_variables(new_vars))
        return Ideal(new_vars, gens, self.budget).is_trivial()

    def elimination_ideal(self, keep_vars):
        """Generators of I intersected with Q[keep_vars], via a block order."""
        keep = [v for v in self.variables if v in set(keep_vars)]
        unknown = set(keep_vars) - set(self.variables)
        if unknown:
            raise ValueError(f"not ring variables: {sorted(unknown)}")
        drop = [v for v in self.variables if v not in set(keep)]
        if not drop:
            return Ideal(tuple(keep), self.generators, self.budget)
        reordered = tuple(drop) + tuple(keep)
        order = MonomialOrder("block", block=len(drop))
        basis = groebner_basis_of(
            [g.on_variables(reordered) for g in self.generators],
            reordered,
            order,
            self.budget,
        )
        kept = [g for g in basis if g.used_variables() <= set(keep)]
        return Ideal(tuple(keep), [g.on_variables(tuple(keep)) for g in kept], self.budget)

    def independent_set(self):
        """A largest set of variables on which no leading monomial of the
        reduced basis lies; its size is the dimension of V(I).  Kept once
        found; a trivial ideal raises on every call."""
        if self._independent is None:
            if self.is_trivial():
                raise EmptyVarietyError("empty variety")
            leads = [g.leading_exponent(GREVLEX) for g in self.groebner_basis()]
            supports = [sum(1 << i for i, e in enumerate(lead) if e) for lead in leads]
            mask = _independent_set(len(self.variables), supports)
            self._independent = tuple(v for i, v in enumerate(self.variables) if mask >> i & 1)
        return self._independent

    def krull_dimension(self):
        """Dimension of V(I), the size of :meth:`independent_set`."""
        return len(self.independent_set())

    @functools.cached_property
    def graph(self):
        """{v: p} with I generated by the v - p and no p using a v, so V(I)
        is affine space on the other variables; None if not found.  Under a
        block order that puts first the variables some reduced grevlex basis
        element holds only in one term c*v, every reduced basis element must
        lead with one variable; reducedness keeps those out of the tails.
        When the block of all candidates fails and holds more variables than
        the codimension, one more block takes one candidate per element."""
        candidates = []
        for g in self.groebner_basis():
            held = collections.Counter(i for e in g.terms for i, k in enumerate(e) if k)
            candidates.append(
                sorted(e.index(1) for e in g.terms if sum(e) == 1 and held[e.index(1)] == 1)
            )
        lone = set().union(*candidates)
        codim = len(self.variables) - self.krull_dimension()
        # each codimension needs a leading variable: too few candidates, no search
        if not lone or len(lone) < codim:
            return None
        graph = self._block_graph(lone)
        if graph is None and len(lone) > codim:
            # the elements with the fewest candidates choose first
            chosen = set()
            for indices in sorted(candidates, key=len):
                chosen.update([i for i in indices if i not in chosen][:1])
            graph = self._block_graph(chosen)
        return graph

    def _block_graph(self, indices):
        """The graph read off the basis under a block order that puts the
        variables with ``indices`` first; None if one of its elements does
        not lead with a single variable."""
        first = tuple(v for i, v in enumerate(self.variables) if i in indices)
        ring = first + tuple(v for v in self.variables if v not in first)
        order = MonomialOrder("block", block=len(first))
        try:
            basis = groebner_basis_of(self.generators, ring, order, self.budget)
        except BudgetExceededError:  # a block basis past the cap: no graph found
            return None
        graph = {}
        for g in basis:
            lead = g.leading_exponent(order)
            if sum(lead) != 1:
                return None
            v = ring[lead.index(1)]
            graph[v] = (MultiPoly.variable(v, ring) - g).on_variables(self.variables)
        return graph


def _independent_set(n, supports, mask=0, start=0, best=0):
    """The bit mask of a largest subset of range(n) containing none of the
    masks ``supports``, by depth-first search that drops a branch unable to
    outgrow the best found (Kredel and Weispfenning, JSC 6, 1988)."""
    best = max(best, mask, key=int.bit_count)
    for v in range(start, n):
        if mask.bit_count() + n - v <= best.bit_count():
            break
        wider = mask | 1 << v
        if all(s & wider != s for s in supports):
            best = _independent_set(n, supports, wider, v + 1, best)
    return best


# spec-level operation names -------------------------------------------------


def groebner_basis(ideal, order=GREVLEX):
    return ideal.groebner_basis(order)


def ideal_membership(f, ideal):
    return ideal.contains(f)


def radical_membership(f, ideal):
    return ideal.radical_contains(f)


def elimination_ideal(ideal, keep_vars):
    return ideal.elimination_ideal(keep_vars)


def krull_dimension(ideal):
    return ideal.krull_dimension()


# ---------------------------------------------------------------------------
# points, Jacobians, smoothness


def _int_gradients(polys, variables, point):
    """(value, row, den) per polynomial f, ints from one pass over its terms,
    each of degree k weighted by d^(deg f - k), d the point's denominator:
    row / den is grad f(point), and value is f(point) times a positive int."""
    if isinstance(point, dict):
        point = [point[v] for v in variables]
    point = [_as_fraction(c) for c in point]
    if len(point) != len(variables):
        raise ValueError("point length does not match variable count")
    d = math.lcm(*(c.denominator for c in point))
    a = [c.numerator * (d // c.denominator) for c in point]
    out = []
    for f in polys:
        den, (terms,) = _common_int_terms([f.on_variables(variables).terms])
        top = max(map(sum, terms), default=0)
        value, row = 0, [0] * len(variables)
        for exp, c in terms.items():
            c *= d ** (top - sum(exp))
            support = [(i, k) for i, k in enumerate(exp) if k]
            value += c * math.prod(a[i] ** k for i, k in support)
            for i, k in support:
                row[i] += c * k * math.prod(a[j] ** (m - (j == i)) for j, m in support)
        out.append((value, row, den * d ** max(top - 1, 0)))
    return out


def jacobian_at(generators, variables, point):
    """The Jacobian matrix of ``generators`` (one row each) at a point of
    their common zero set; raises NotOnVarietyError otherwise."""
    rows = []
    for g, (value, row, den) in zip(generators, _int_gradients(generators, variables, point)):
        if value:
            raise NotOnVarietyError(
                f"point does not satisfy generator {format_poly(g.on_variables(tuple(variables)))}"
            )
        rows.append(linalg.fractions_of(row, den))
    return rows


def jacobian_rank_at(generators, variables, point):
    """Exact rank of the Jacobian of ``generators`` at a point of their
    common zero set; raises NotOnVarietyError otherwise."""
    return linalg.rank(jacobian_at(generators, variables, point))


def is_smooth_point(ideal, point):
    """Smoothness at a rational point: Jacobian rank equals codimension."""
    rank = jacobian_rank_at(ideal.generators, ideal.variables, point)
    dim = ideal.krull_dimension()
    return rank == len(ideal.variables) - dim


# ---------------------------------------------------------------------------
# univariate helpers (coefficient-list form, low degree first)


def univariate_coeffs(f, var=None):
    used = f.used_variables()
    if var is None:
        if len(used) > 1:
            raise ValueError("polynomial is not univariate")
        var = next(iter(used)) if used else None
    if var is None:
        return [f.constant_value()] if not f.is_zero() else []
    if not used <= {var}:
        raise ValueError("polynomial is not univariate")
    i = f.variables.index(var)
    deg = f.degree_in(var)
    coeffs = [Fraction(0)] * (deg + 1)
    for exp, c in f.terms.items():
        coeffs[exp[i]] += c
    return coeffs


def univariate_poly(coeffs, var):
    return MultiPoly((var,), {(i,): c for i, c in enumerate(coeffs) if c != 0})


def _zz_quotient(a, b):
    """a / b in Z[x] (int lists, low degree first), b nonzero; None if inexact."""
    top, rest = len(b) - 1, list(a)
    quotient = [0] * (len(a) - top)
    for k in range(len(quotient) - 1, -1, -1):
        c, r = divmod(rest[k + top], b[-1])
        if r:
            return None
        quotient[k] = c
        if c:
            for i in range(top):
                rest[k + i] -= c * b[i]
    return None if any(rest[:top]) else quotient


# ---------------------------------------------------------------------------
# factorisation over Q
#
# A univariate polynomial is factored exactly, on its int coefficients
# (:func:`_factor_ints`).  Zassenhaus's algorithm over Z in ``zfactor``
# factors what the rational roots leave, and decides one-variable
# squarefree tests.
#
# A plane curve of degree 1 in one variable over a constant, or of degree 2
# over a constant with a discriminant that is not a square, is irreducible.
# sympy gets only the plane curves in two variables that fail both
# certificates, and squarefree tests in several variables.  sympy and
# ``zfactor`` are imported on first use, so that importing the package
# loads neither.

# the rational root search enumerates the divisors of the end coefficients
# by trial division; above this, Zassenhaus finds the linear factors along
# with the others
_ROOT_SEARCH_LIMIT = 10**6


def _sympy_from_multipoly(f, gens):
    import sympy

    symbols = [sympy.Symbol(v) for v in gens]
    rep = {}
    pos = [f.variables.index(v) for v in gens]
    for exp, c in f.terms.items():
        key = tuple(exp[p] for p in pos)
        rep[key] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(rep, *symbols, domain=sympy.QQ)


def factor_univariate(f, var=None):
    """Exact factorisation over Q, by :func:`_factor_ints`: (unit, [(monic
    irreducible, multiplicity)]), sorted by degree, then by terms."""
    used = f.used_variables()
    if var is None:
        if len(used) != 1:
            raise ValueError("polynomial is not univariate")
        var = next(iter(used))
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    coeffs = univariate_coeffs(f, var)
    return coeffs[-1], [
        (univariate_poly([Fraction(c, g[-1]) for c in g], var), mult)
        for g, mult in _factor_ints(linalg.int_row(coeffs)[0])
    ]


def _factor_ints(ints):
    """The factors over Q of a nonzero int polynomial (low degree first), as
    [(g, multiplicity)] with each g a primitive int polynomial with a
    positive lead, sorted by degree, then by the terms of g / lead(g).

    On the primitive form, the factor x^k and every rational root p/q (p
    dividing the constant coefficient, q the leading one) are peeled off
    with their multiplicities by exact deflation in Z[x] (Gauss's lemma).
    What remains has no rational root: of degree 2 or 3 it is irreducible,
    and degree 4 and up is factored over Z by :func:`zfactor.factor`, as
    is everything of degree 2 and up when the constant or leading
    coefficient is above an internal limit, which skips the root search."""
    zeros = next(i for i, c in enumerate(ints) if c)
    ints = linalg.primitive(ints[zeros:] if ints[-1] > 0 else [-c for c in ints[zeros:]])
    out = [([0, 1], zeros)] if zeros else []
    searched = len(ints) > 2 and max(abs(ints[0]), ints[-1]) <= _ROOT_SEARCH_LIMIT
    for p, q in _root_candidates(ints) if searched else ():
        mult = 0
        while (quotient := _zz_quotient(ints, [-p, q])) is not None:
            ints, mult = quotient, mult + 1
        if mult:
            out.append(([-p, q], mult))
            if len(ints) <= 2:
                break
    if len(ints) == 2 or len(ints) in (3, 4) and searched:
        # of degree 3 at most and without a rational root: irreducible
        out.append((ints, 1))
    elif len(ints) > 2:
        from . import zfactor

        out += zfactor.factor(ints)
    out.sort(key=lambda gm: (len(gm[0]), [
        (i, c if gm[0][-1] == 1 else Fraction(c, gm[0][-1])) for i, c in enumerate(gm[0]) if c]))
    return out


def _divisors(n):
    """The positive divisors of the positive int n, by trial division."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _root_candidates(ints):
    """The rational roots p/q (lowest terms, q > 0) that the rational root
    theorem allows an int polynomial with a nonzero constant term, low
    degree first, as (p, q) pairs.  A root p/q makes q*x - p a factor, so
    q - p divides the value at 1 and q + p the value at -1; candidates that
    fail this are skipped."""
    at_one, at_minus_one = sum(ints), sum(ints[::2]) - sum(ints[1::2])
    for q in _divisors(abs(ints[-1])):
        for p in _divisors(abs(ints[0])):
            if math.gcd(p, q) != 1:
                continue
            for p in (p, -p):
                if _divides(q - p, at_one) and _divides(q + p, at_minus_one):
                    yield p, q


def _divides(d, n):
    return n % d == 0 if d else n == 0


def _rational_sqrt(c):
    """The nonnegative square root of the Fraction c when it is the square
    of a rational, else None."""
    num, den = math.isqrt(max(c.numerator, 0)), math.isqrt(c.denominator)
    if num * num != c.numerator or den * den != c.denominator:
        return None
    return Fraction(num, den)


def _is_square(coeffs):
    """Is the polynomial with these Fraction coefficients (low degree
    first) the square of a polynomial over Q?  An odd degree or a leading
    coefficient that is not a rational square rules it out; otherwise the
    candidate root is solved from the top half of the coefficients and
    squared back."""
    if not coeffs:
        return True
    n = len(coeffs) - 1
    top = _rational_sqrt(coeffs[-1])
    if n % 2 or top is None:
        return False
    high, m = coeffs[::-1], n // 2
    root = [top]
    for k in range(1, m + 1):
        root.append((high[k] - sum(root[i] * root[k - i] for i in range(1, k))) / (2 * top))
    return all(
        sum(root[i] * root[k - i] for i in range(max(0, k - m), min(k, m) + 1)) == high[k]
        for k in range(n + 1)
    )


def _irreducible_by_certificate(f):
    """True when the nonconstant f, in at most two variables, is
    irreducible by one of two certificates, each variable in turn taken as
    v and the other as u: f has degree 1 in v over a constant, or f is
    a*v^2 + b*v + c with a constant a and b^2 - 4ac not a square in Q[u].
    False means unknown."""
    used = f.used_variables()
    for v in sorted(used):
        i = f.variables.index(v)
        parts = {}
        for exp, c in f.terms.items():
            parts.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1 :]] = c
        degree = max(parts)
        lead = MultiPoly._trusted(f.variables, parts[degree])
        if degree > 2 or not lead.is_constant():
            continue
        if degree == 1:
            return True
        b, c = (MultiPoly._trusted(f.variables, parts.get(k, {})) for k in (1, 0))
        disc = b * b - c.scale(4 * lead.constant_value())
        if not _is_square(univariate_coeffs(disc, next(iter(used - {v}), None))):
            return True
    return False


def is_squarefree(f):
    """True when no square of a nonconstant polynomial divides the nonzero
    polynomial ``f``."""
    used = sorted(f.used_variables())
    if not used:
        return True
    if len(used) == 1:
        from . import zfactor

        ints = linalg.primitive(linalg.int_row(univariate_coeffs(f, used[0]))[0])
        return all(mult == 1 for _, mult in zfactor.squarefree_parts(ints))
    _, factors = _sympy_from_multipoly(f, used).sqf_list()
    return all(mult == 1 for _, mult in factors)


# ---------------------------------------------------------------------------
# irreducibility in the supported cases


@dataclass(frozen=True)
class IrreducibilityResult:
    status: str  # "irreducible" | "reducible" | "empty" | "undetermined"
    method: str
    detail: str = ""


def decide_irreducibility(ideal):
    """Is V(ideal) irreducible over Q?  Supported cases per the module
    contract: the zero ideal, linear ideals, zero-dimensional ideals,
    principal ideals in at most two variables, and, tried last, graphs of
    polynomial maps (:attr:`Ideal.graph`).  Everything else is
    ``undetermined``.

    Classification works on the reduced Groebner basis, so the answer does
    not depend on how the ideal was presented.  A principal ideal (f) is
    irreducible when f passes one of the certificates of
    :func:`_irreducible_by_certificate`; otherwise f is factored, by
    :func:`factor_univariate` in one variable and by sympy in two, and the
    distinct irreducible factors are counted.  A zero-dimensional V(I) is
    irreducible when Q[x]/I has one local component.  Kept on the ideal."""
    if ideal._irreducibility is None:
        ideal._irreducibility = _decide_irreducibility(ideal)
    return ideal._irreducibility


def _decide_irreducibility(ideal):
    gens = list(ideal.groebner_basis())
    if not gens:
        return IrreducibilityResult("irreducible", "zero-ideal", "affine space")
    if ideal.is_trivial():
        return IrreducibilityResult("empty", "trivial", "contains 1")

    if all(g.total_degree() <= 1 for g in gens):
        return IrreducibilityResult("irreducible", "linear", "affine subspace")

    if len(gens) == 1 and len(gens[0].used_variables()) <= 2:
        f = gens[0]
        if _irreducible_by_certificate(f):
            return IrreducibilityResult("irreducible", "principal-factorisation")
        used = sorted(f.used_variables())
        if len(used) == 1:
            count = len(factor_univariate(f, used[0])[1])
        else:
            _, factors = _sympy_from_multipoly(f, used).factor_list()
            count = sum(1 for fac, _ in factors if fac.total_degree() > 0)
        if count == 1:
            return IrreducibilityResult("irreducible", "principal-factorisation")
        return IrreducibilityResult(
            "reducible", "principal-factorisation", f"{count} distinct irreducible factors"
        )

    if ideal.krull_dimension() == 0:
        # algebra builds on this module, so it is imported here
        from .algebra import _quotient_algebra

        components = _quotient_algebra(ideal)[0].components
        if len(components) == 1:
            return IrreducibilityResult("irreducible", "zero-dimensional")
        return IrreducibilityResult(
            "reducible", "zero-dimensional", f"{len(components)} components"
        )

    if ideal.graph is not None:
        return IrreducibilityResult("irreducible", "graph", "graph of a polynomial map")
    return IrreducibilityResult("undetermined", "unsupported-case")
