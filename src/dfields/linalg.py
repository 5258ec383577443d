"""Exact linear algebra over the rationals.

Matrices are lists of rows, rows are lists of Fraction.  Nothing here is
clever: plain fraction-free-ish Gaussian elimination with exact pivots,
enough for the small systems the rest of the package produces.
"""

from fractions import Fraction


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                row = out[i]
                for j in range(m):
                    row[j] += c * bt[j]
    return out


def mat_vec(a, v):
    support = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in support), Fraction(0)) for row in a]


def rref(a):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a):
    if not a:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Basis of the right kernel, one vector per free column."""
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def inverse(a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [row + unit for row, unit in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
