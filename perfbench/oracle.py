"""Exact polynomial arithmetic and answer oracles that share no code with dfields.

A polynomial is a dict mapping exponent tuples to nonzero Fractions; the
variable tuple it lives on is fixed by the caller.  Everything here is
deliberately naive: it is the reference the benchmark checks the package
against, so it must be easy to trust, not fast.
"""

from fractions import Fraction


def const(c, n):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(i, n):
    exp = [0] * n
    exp[i] = 1
    return {tuple(exp): Fraction(1)}


def add(a, b):
    out = dict(a)
    for exp, c in b.items():
        v = out.get(exp, 0) + c
        if v:
            out[exp] = v
        else:
            out.pop(exp, None)
    return out


def scale(a, c):
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def sub(a, b):
    return add(a, scale(b, -1))


def mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(exp, 0) + ca * cb
            if v:
                out[exp] = v
            else:
                out.pop(exp, None)
    return out


def deriv(a, i):
    out = {}
    for exp, c in a.items():
        if exp[i]:
            lowered = list(exp)
            lowered[i] -= 1
            out[tuple(lowered)] = c * exp[i]
    return out


def substitute(a, images, n):
    """a(images[0], images[1], ...) on a ring with n variables."""
    powers = [[const(1, n)] for _ in images]
    out = {}
    for exp, c in a.items():
        term = const(c, n)
        for i, e in enumerate(exp):
            while len(powers[i]) <= e:
                powers[i].append(mul(powers[i][-1], images[i]))
            term = mul(term, powers[i][e])
        out = add(out, term)
    return out


def truncate(a, caps):
    """Drop every term whose exponent at position i reaches caps[i]."""
    return {
        e: c for e, c in a.items() if all(e[i] < cap for i, cap in caps.items())
    }


# ---------------------------------------------------------------------------
# text


def to_text(p, names):
    """Text in the dfields input syntax; stable term order."""
    if not p:
        return "0"
    pieces = []
    for exp in sorted(p, reverse=True):
        c = p[exp]
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e
        )
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _tokens(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("INT", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("NAME", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            out.append((ch, ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    out.append(("EOF", ""))
    return out


def from_text(text, names):
    """Parse a polynomial printed by dfields (or written by to_text)."""
    toks = _tokens(text)
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    pos = 0

    def peek():
        return toks[pos][0]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        total = term()
        while peek() in ("+", "-"):
            sign = take()[0]
            t = term()
            total = add(total, t) if sign == "+" else sub(total, t)
        return total

    def term():
        out = factor()
        while peek() == "*":
            take()
            out = mul(out, factor())
        return out

    def factor():
        base = atom()
        if peek() == "^":
            take()
            k = int(take()[1])
            out = const(1, n)
            for _ in range(k):
                out = mul(out, base)
            return out
        return base

    def atom():
        kind, text_ = take()
        if kind == "NAME":
            if text_ not in index:
                raise ValueError(f"unknown variable {text_!r}")
            return var(index[text_], n)
        if kind == "INT":
            value = Fraction(int(text_))
            if peek() == "/":
                take()
                value /= int(take()[1])
            return const(value, n)
        if kind == "(":
            inner = expr()
            if take()[0] != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        if kind == "-":
            return scale(factor(), -1)
        if kind == "+":
            return factor()
        raise ValueError(f"unexpected token {text_!r}")

    result = expr()
    if peek() != "EOF":
        raise ValueError(f"trailing input in {text!r}")
    return result


# ---------------------------------------------------------------------------
# coefficient algebras as products of truncated monomial algebras


class SplitAlgebra:
    """A product of local factors Q[t_1..t_k]/(t_1^a_1, ..., t_k^a_k).

    A factor is given by its tuple of caps; the empty tuple is Q.  Within
    a factor the basis is 1 first, then by degree with earlier generators
    first; the global basis concatenates the factors, so index 0 is the
    identity of the first factor.
    """

    def __init__(self, factors):
        self.factors = tuple(tuple(f) for f in factors)
        self.basis = []  # (factor index, exponent tuple)
        for k, caps in enumerate(self.factors):
            monos = [()]
            for cap in caps:
                monos = [m + (e,) for m in monos for e in range(cap)]
            monos.sort(key=lambda m: (sum(m), tuple(-e for e in m)))
            self.basis.extend((k, m) for m in monos)
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)

    @property
    def unit(self):
        return [1 if not any(m) else 0 for _, m in self.basis]

    def component_dims(self):
        """(dimension, residue degree) of every local factor."""
        out = []
        for caps in self.factors:
            d = 1
            for cap in caps:
                d *= cap
            out.append((d, 1))
        return out

    def product(self, i, j):
        """Index of b_i * b_j, or None when the product is zero."""
        (fi, mi), (fj, mj) = self.basis[i], self.basis[j]
        if fi != fj:
            return None
        m = tuple(a + b for a, b in zip(mi, mj))
        return self.index.get((fi, m))

    def block_text(self, name):
        """A document block: a presentation for one local factor, else a table."""
        if len(self.factors) == 1 and self.factors[0]:
            gens = ["e", "f", "g"][: len(self.factors[0])]
            rels = ", ".join(f"{g}^{c}" for g, c in zip(gens, self.factors[0]))
            return f"algebra {name} = Q[{', '.join(gens)}]/({rels});\n"
        return self.table_text(name)

    def table_text(self, name):
        """A document block listing the full multiplication table."""
        names = [f"b{i}" for i in range(self.dim)]
        lines = [f"algebra {name} {{", f"  basis = [{', '.join(names)}];"]
        for i in range(self.dim):
            for j in range(i, self.dim):
                k = self.product(i, j)
                lines.append(f"  mul {names[i]}*{names[j]} = {names[k] if k is not None else 0};")
        unit = " + ".join(names[i] for i, u in enumerate(self.unit) if u)
        lines.append(f"  unit = {unit};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def expand(self, f, nvars):
        """Coordinates of f(sum_j x_j b_j): one polynomial per basis index on
        the prolongation variables x_{level} (block-major, nvars per level)."""
        total = nvars * self.dim
        out = [dict() for _ in range(self.dim)]
        for k, caps in enumerate(self.factors):
            levels = [i for i, (fk, _) in enumerate(self.basis) if fk == k]
            ring = total + len(caps)
            images = []
            for v in range(nvars):
                img = {}
                for lvl in levels:
                    mono = self.basis[lvl][1]
                    exp = [0] * ring
                    exp[lvl * nvars + v] = 1
                    exp[total:] = mono
                    img[tuple(exp)] = Fraction(1)
                images.append(img)
            series = truncate(
                substitute(f, images, ring),
                {total + t: cap for t, cap in enumerate(caps)},
            )
            for exp, c in series.items():
                lvl = self.index[(k, exp[total:])]
                key = exp[:total]
                out[lvl][key] = out[lvl].get(key, 0) + c
        return [{e: c for e, c in p.items() if c} for p in out]


# ---------------------------------------------------------------------------
# operator images


def derivation(images):
    """f -> sum_v images[v] * df/dv."""

    def apply(f):
        total = {}
        for i, img in enumerate(images):
            total = add(total, mul(img, deriv(f, i)))
        return total

    return apply


def second_order(first, second):
    """The level-2 coordinate of a truncated expansion: the second image
    plus half the Hessian term of the first."""

    def apply(f):
        total = {}
        for i, img in enumerate(second):
            total = add(total, mul(img, deriv(f, i)))
        for i, pi in enumerate(first):
            for j, pj in enumerate(first):
                hess = deriv(deriv(f, i), j)
                total = add(total, scale(mul(mul(pi, pj), hess), Fraction(1, 2)))
        return total

    return apply


def series_substitution(images, order):
    """Components of f(images) for images given as lists of e-coefficients
    in Q[x]/(e^order): one polynomial per power of e."""
    n = len(images)
    ring = n + 1
    lifted = []
    for comps in images:
        img = {}
        for j, p in enumerate(comps):
            for exp, c in p.items():
                key = exp + (j,)
                img[key] = img.get(key, 0) + c
        lifted.append({e: c for e, c in img.items() if c})

    def apply(f):
        series = truncate(substitute(f, lifted, ring), {n: order})
        out = [dict() for _ in range(order)]
        for exp, c in series.items():
            out[exp[n]][exp[:n]] = c
        return out

    return apply


def reduce_first_square(p, rest):
    """Normal form modulo the principal ideal (v^2 - rest), v the first
    variable and rest of degree below 2 in v: the unique representative of
    degree at most 1 in v.  Rewriting the lexicographically largest term
    first strictly lowers the degree in v, so the loop ends."""
    out = {}
    todo = dict(p)
    while todo:
        exp = max(todo)
        c = todo.pop(exp)
        if exp[0] < 2:
            out = add(out, {exp: c})
            continue
        todo = add(todo, mul({(exp[0] - 2,) + exp[1:]: c}, rest))
    return out
