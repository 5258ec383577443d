"""Exact linear algebra over the rationals.

Matrices are lists of rows.  The public routines take rows of Fraction (or
int) and return rows of Fraction, but compute on ints: each input row is
scaled by the least common multiple of its denominators (``int_row``),
eliminated fraction-free, and turned back into Fractions once, in the
result.  Both of the package's eliminations live here.  ``int_rref``
reduces a whole matrix: it replaces a row by p * row - f * pivot_row and
divides the result by the gcd of its entries.  Each row is then the
smallest int multiple of the rational row it stands for, so its entries
are no larger than in Bareiss's fraction-free elimination, where they are
minors of the input (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
``echelon_add`` grows an echelon by one exact vector (``exact``: ints over
one denominator) and returns its remainder, zero when it lies in the span.
``algebra`` and ``ucd`` keep their vectors on ints and call the int
routines directly.  The Fraction routines serve ``weil_descent``'s
``inverse`` and the Jacobian ``rank``; ``rref``, ``nullspace``, ``mat_mul``
and ``mat_vec`` have no caller in the package and stay as the traced
benchmark API.
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def int_row(row):
    """(ints, den): the row times den, the lcm of its denominators."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // x.denominator) for x in row], den


def fractions_of(nums, den):
    """The Fractions nums[i] / den."""
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in nums]
    return [Fraction(x, den) if x else _ZERO for x in nums]


def primitive(row):
    """The int row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def int_rref(m, full=True):
    """Fraction-free row reduction of the int rows ``m``, in place; returns
    the pivot columns.  Row r ends with its pivot at column pivots[r],
    zeros below it and, when ``full``, zeros above it too; the rows past
    the rank are zero.  Row r divided by its pivot is row r of the reduced
    row echelon form."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r] = primitive(m[r])
        p = prow[c]
        for i in range(0 if full else r + 1, rows):
            f = m[i][c]
            if f and i != r:
                g = gcd(p, f)
                pg, fg = p // g, f // g
                m[i] = primitive([pg * x - fg * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
    return pivots


def exact(nums, den):
    """The exact vector nums / den in lowest terms, with den > 0: ints with
    one denominator."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def echelon_add(echelon, vec, width):
    """Reduce the exact vector ``vec`` by the rows of ``echelon``: pairs
    (pivot, int row), each row zero at the pivots of the rows before it and
    standing for itself divided by its pivot entry.  A remainder nonzero in
    its first ``width`` entries joins as a new row; with ``width`` 0 the
    echelon is left as it is.  Returns the remainder, exact."""
    nums, den = vec
    for pivot, row in echelon:
        f = nums[pivot]
        if f:
            p = row[pivot]
            g = gcd(p, f)
            p, f = p // g, f // g
            nums, den = exact([p * a - f * b for a, b in zip(nums, row)], den * p)
    pivot = next((j for j in range(width) if nums[j]), None)
    if pivot is not None:
        echelon.append((pivot, primitive(nums)))
    return nums, den


def _kernel(m):
    """Pairs (free column fc, int kernel vector v) of the int rows ``m``,
    consumed: v[fc] is the positive scale of v, the other free columns of
    v are zero, and v / v[fc] is the vector nullspace returns."""
    pivots = int_rref(m)
    cols = len(m[0]) if m else 0
    for fc in sorted(set(range(cols)) - set(pivots)):
        scale = lcm(*[row[pc] for row, pc in zip(m, pivots) if row[fc]])
        v = [0] * cols
        v[fc] = scale
        for row, pc in zip(m, pivots):
            if row[fc]:
                v[pc] = -row[fc] * (scale // row[pc])
        yield fc, v


def int_nullspace(m):
    """Basis of the right kernel of the int rows ``m`` (consumed), one
    primitive int vector per free column."""
    return [primitive(v) for _, v in _kernel(m)]


def int_inverse(rows):
    """Inverse of the square matrix with the given exact rows (ints, den):
    its rows as (ints, den), or None if it is singular."""
    n = len(rows)
    m = [nums + [den if j == i else 0 for j in range(n)] for i, (nums, den) in enumerate(rows)]
    if int_rref(m) != list(range(n)):
        return None
    return [(row[n:], row[i]) for i, row in enumerate(m)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    db = lcm(*[x.denominator for row in b for x in row])
    bints = [[x.numerator * (db // x.denominator) for x in row] for row in b]
    out = []
    for i in range(n):
        ai, da = int_row(a[i])
        row = [0] * m
        for t in range(k):
            c = ai[t]
            if c:
                row = [x + c * y for x, y in zip(row, bints[t])]
        out.append(fractions_of(row, da * db))
    return out


def mat_vec(a, v):
    vints, dv = int_row(v)
    support = [(j, x) for j, x in enumerate(vints) if x]
    out = []
    for row in a:
        terms = [(row[j], x) for j, x in support]
        den = lcm(*[c.denominator for c, _ in terms])
        total = sum(c.numerator * (den // c.denominator) * x for c, x in terms)
        out.append(Fraction(total, den * dv) if total else _ZERO)
    return out


def rref(a):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [int_row(row)[0] for row in a]
    pivots = int_rref(m)
    red = [fractions_of(row, row[c]) for row, c in zip(m, pivots)]
    width = len(a[0]) if a else 0
    red.extend([_ZERO] * width for _ in range(len(a) - len(pivots)))
    return red, pivots


def rank(a):
    if not a:
        return 0
    return len(int_rref([int_row(row)[0] for row in a], full=False))


def nullspace(a):
    """Basis of the right kernel, one vector per free column."""
    if not a:
        return []
    return [fractions_of(v, v[fc]) for fc, v in _kernel([int_row(row)[0] for row in a])]


def inverse(a):
    """Inverse of a square matrix, or None if singular."""
    inv = int_inverse([int_row(row) for row in a])
    return None if inv is None else [fractions_of(nums, den) for nums, den in inv]
