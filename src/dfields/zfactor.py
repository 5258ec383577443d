"""Univariate polynomials over Z, factored exactly by Zassenhaus's
algorithm (von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 14-16).

A polynomial here is a list of ints, low degree first, with a nonzero last
entry (the zero polynomial is []); mod m its entries lie in [0, m).
:func:`factor` takes a primitive polynomial:

- Yun's squarefree decomposition (:func:`squarefree_parts`) splits off the
  repeated factors;
- a good prime p (p does not divide the lead, and f is squarefree mod p)
  is picked among a few by the fewest factors that distinct-degree
  factorisation mod p counts; the factor degrees those counts allow can
  prove f irreducible before any lifting;
- Cantor-Zassenhaus equal-degree factorisation splits the parts mod p;
- quadratic Hensel lifting takes the monic factors mod p to monic factors
  mod p^(2^j), above twice the Mignotte bound on lc(f)/lc(g) * g for the
  factors g of f of at most half its degree;
- lc(f) times a subset of the lifted factors, smallest subsets first, is a
  candidate factor tested by exact division, and each true factor leaves
  f and the subset leaves the list as soon as it is found.

``poly.factor_univariate`` answers rational roots and low degrees itself
and imports this module on first use, so that importing the package does
not compile it.
"""

import itertools
import math
import random

from .poly import _zz_quotient


def factor(ints):
    """The irreducible factors over Z of a primitive int polynomial of
    positive degree with a nonzero constant term, as [(factor, multiplicity)]
    with each factor primitive and with a positive lead."""
    return [(g, mult) for part, mult in squarefree_parts(ints) for g in _zassenhaus(part)]


# -- polynomials over Z


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _zz_primitive(a):
    """The primitive part of a nonzero int polynomial, with a positive lead."""
    content = math.gcd(*a)
    content = content if a[-1] > 0 else -content
    return [c // content for c in a]


def _zz_remainder(a, b):
    """The primitive part of the remainder of a by the nonzero b over Q,
    by pseudo-division; [] when b divides a."""
    a = list(a)
    lead, top = b[-1], len(b) - 1
    while len(a) > top:
        g = math.gcd(a[-1], lead)
        scale, shift, cancel = lead // g, len(a) - 1 - top, a[-1] // g
        a = [scale * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= cancel * c
        _trim(a)
    return _zz_primitive(a) if a else a


def _zz_gcd(a, b):
    """The gcd of two int polynomials, not both zero, as a primitive
    polynomial with a positive lead, by the primitive remainder sequence."""
    while b:
        a, b = b, _zz_remainder(a, b)
    return _zz_primitive(a)


def squarefree_parts(f):
    """Yun's squarefree decomposition of a primitive int polynomial of
    positive degree: [(part, multiplicity)], f the product of the
    part^multiplicity up to sign, each part primitive, squarefree and
    nonconstant with a positive lead, the parts pairwise coprime."""
    if f[-1] < 0:
        f = [-c for c in f]
    if any(_squarefree_mod(f, p) for p in (3, 5, 7, 11)):
        return [(f, 1)]
    df = _derivative(f)
    a = _zz_gcd(f, df)
    b, c = _zz_quotient(f, a), _zz_quotient(df, a)
    parts = []
    mult = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        a = _zz_gcd(b, d)
        if len(a) > 1:
            parts.append((a, mult))
        b, c = _zz_quotient(b, a), _zz_quotient(d, a)
        mult += 1
    return parts


# -- polynomials mod m


def _add_mod(a, b, m):
    return _trim([(x + y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _sub_mod(a, b, m):
    return _trim([(x - y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _mul_mod(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return _trim([c % m for c in out])


def _divmod_mod(a, b, m):
    """Quotient and remainder of a by b mod m; the lead of b is a unit mod m."""
    top = len(b) - 1
    inverse = pow(b[-1], -1, m)
    rest = list(a)
    quotient = [0] * max(len(a) - top, 0)
    for k in range(len(quotient) - 1, -1, -1):
        c = quotient[k] = rest[k + top] * inverse % m
        if c:
            for i in range(top):
                rest[k + i] -= c * b[i]
    return _trim(quotient), _trim([c % m for c in rest[:top]])


def _monic_mod(a, m):
    inverse = pow(a[-1], -1, m)
    return [c * inverse % m for c in a]


def _gcd_mod(a, b, p):
    """The monic gcd of two polynomials mod the prime p, a nonzero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _gcdex_mod(a, b, p):
    """s and t with s*a + t*b = 1 mod the prime p, for coprime a and b;
    deg s < deg b and deg t < deg a."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inverse = pow(r0[0], -1, p)
    return [c * inverse % p for c in s0], [c * inverse % p for c in t0]


def _pow_mod(a, e, f, p):
    """a^e mod (f, p)."""
    result, a = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(_mul_mod(result, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
    return result


def _squarefree_mod(f, p):
    """f mod the prime p made monic, when p does not divide lc(f) and f is
    squarefree mod p, else None.  Such a p shows that f is squarefree."""
    if f[-1] % p == 0:
        return None
    fp = _monic_mod(f, p)
    return fp if len(_gcd_mod(fp, _trim([c % p for c in _derivative(fp)]), p)) == 1 else None


def _distinct_degree(f, p):
    """Distinct-degree factorisation of the monic squarefree f mod the
    prime p: [(g, d)], g the product of the monic irreducible factors of
    degree d of f, by the gcds of f with x^(p^d) - x."""
    parts = []
    h, d = [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, [0, 1], p), p)
        if len(g) > 1:
            parts.append((g, d))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        parts.append((f, len(f) - 1))
    return parts


def _equal_degree(f, d, p, rng):
    """The monic irreducible factors, each of degree d, of the monic
    squarefree f mod the odd prime p, by Cantor and Zassenhaus: for a
    random a, gcd(f, a^((p^d - 1)/2) - 1) is a proper factor about half of
    the time."""
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _gcd_mod(f, _sub_mod(_pow_mod(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(
                _divmod_mod(f, g, p)[0], d, p, rng
            )


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step (von zur Gathen and Gerhard, Algorithm
    15.10): from f = g*h and s*g + t*h = 1 mod m, h monic, deg s < deg h
    and deg t < deg g, the factors g and h mod m^2."""
    mm = m * m
    e = _sub_mod(f, _mul_mod(g, h, mm), mm)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, mm), _mul_mod(q, g, mm), mm), mm)
    return g, _add_mod(h, r, mm)


def _bezout_step(g, h, s, t, m):
    """The second half of that step: from s*g + t*h = 1 mod m, g and h
    already lifted to mod m^2, the same relation mod m^2."""
    mm = m * m
    b = _sub_mod(_add_mod(_mul_mod(s, g, mm), _mul_mod(t, h, mm), mm), [1], mm)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h, mm)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, mm), _mul_mod(c, g, mm), mm), mm)
    return _sub_mod(s, d, mm), t


def _hensel_lift(f, factors, p, modulus):
    """The monic factors mod ``modulus`` = p^(2^j) that lift the monic
    factors mod p of f, lc(f) times their product being f mod p.  The list
    is split in halves and each half lifted as one factor, recursively."""
    if len(factors) == 1:
        return [_monic_mod(f, modulus)]
    k = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:k]:
        g = _mul_mod(g, u, p)
    for u in factors[k:]:
        h = _mul_mod(h, u, p)
    s, t = _gcdex_mod(g, h, p)
    m = p
    while m < modulus:
        g, h = _hensel_step(f, g, h, s, t, m)
        if m * m < modulus:
            s, t = _bezout_step(g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:k], p, modulus) + _hensel_lift(h, factors[k:], p, modulus)


def _odd_primes():
    found = []
    for n in itertools.count(3, 2):
        if all(n % q for q in itertools.takewhile(lambda q: q * q <= n, found)):
            found.append(n)
            yield n


# good primes tried, at most, before Zassenhaus settles on the one with the
# fewest factors; three factors or fewer mod p end the search at once, since
# recombination then tries at most three subsets
_PRIME_TRIALS = 3


def _zassenhaus(f):
    """The irreducible factors over Z of a primitive squarefree int
    polynomial with a positive lead and a nonzero constant term, each
    primitive with a positive lead."""
    n = len(f) - 1
    if n == 1:
        return [f]
    allowed, best, trials = set(range(n + 1)), None, 0
    for p in _odd_primes():
        fp = _squarefree_mod(f, p)
        if not fp:
            continue
        parts = _distinct_degree(fp, p)
        degrees = [d for g, d in parts for _ in range((len(g) - 1) // d)]
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        allowed &= sums
        if best is None or len(degrees) < best[0]:
            best = len(degrees), p, parts
        trials += 1
        if len(allowed) == 2 or best[0] <= 3 or trials == _PRIME_TRIALS:
            break
    if len(allowed) == 2:
        return [f]
    _, p, parts = best
    rng = random.Random(p)
    factors = [u for g, d in parts for u in _equal_degree(g, d, p, rng)]
    # twice the Mignotte bound binom(m, m/2) * ||f||_2 on the coefficients of
    # lc(f)/lc(g) * g, for the factors g of degree m <= n/2 that
    # recombination looks for
    bound = 2 * math.comb(n // 2, n // 4) * (math.isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    return _recombine(f, _hensel_lift(f, factors, p, modulus), modulus, allowed)


def _recombine(f, lifted, modulus, allowed):
    """The factors over Z of f from its monic lifted factors mod
    ``modulus``: the symmetric residue of lc(f) times the product of a
    subset, made primitive, is tested by exact division, smallest subsets
    first.  A reducible f has a factor of at most half its degree, so only
    such subsets are tried, and a subset whose degree no prime allowed, or
    whose constant term cannot divide lc(f)*f(0), is skipped before any
    product."""
    half = modulus // 2
    factors, size = [], 1
    while sum(sorted(len(u) - 1 for u in lifted)[:size]) * 2 <= len(f) - 1:
        for subset in itertools.combinations(range(len(lifted)), size):
            degree = sum(len(lifted[i]) - 1 for i in subset)
            if degree not in allowed or 2 * degree > len(f) - 1:
                continue
            lead = tail = f[-1]
            for i in subset:
                tail = tail * lifted[i][0] % modulus
            tail = tail - modulus if tail > half else tail
            if not tail or (lead * f[0]) % tail:
                continue
            g = [lead]
            for i in subset:
                g = _mul_mod(g, lifted[i], modulus)
            g = _zz_primitive([c - modulus if c > half else c for c in g])
            quotient = _zz_quotient(f, g)
            if quotient is None:
                continue
            factors.append(g)
            f = quotient
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    return factors + [f]
