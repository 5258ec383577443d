"""``linalg`` against Fraction references.

The ``reference_*`` routines are plain Gauss-Jordan elimination on
Fractions, one division per pivot row.  The fraction-free int kernels behind
``rref``, ``nullspace``, ``rank``, ``inverse``, ``mat_vec`` and ``mat_mul``
must return exactly what they return, and ``inverse`` must also match the
adjugate over the determinant.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dfields import linalg


def reference_rref(a):
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


def reference_rank(a):
    return len(reference_rref(a)[1]) if a else 0


def reference_nullspace(a):
    if not a:
        return []
    red, pivots = reference_rref(a)
    cols = len(a[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def reference_inverse(a):
    n = len(a)
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = reference_rref([row + u for row, u in zip(a, unit)])
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def reference_mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def reference_mat_mul(a, b):
    return [reference_mat_vec(list(map(list, zip(*b))), row) for row in a]


def _det(m):
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _cofactor_inverse(m):
    """The adjugate over the determinant, or None when that is zero."""
    n = len(m)
    det = _det(m)
    if det == 0:
        return None
    minor = lambda i, j: [r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i]  # noqa: E731
    return [[(-1) ** (i + j) * _det(minor(j, i)) / det for j in range(n)] for i in range(n)]


_entries = st.integers(-4, 4).map(Fraction) | st.fractions(-3, 3, max_denominator=4)
_sparse_entries = st.just(Fraction(0)) | _entries


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    m = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # a singular matrix: one row a combination of the others
        i = draw(st.integers(0, n - 1))
        coeffs = [draw(_entries) for _ in range(n)]
        m[i] = [
            sum((c * m[k][j] for k, c in enumerate(coeffs) if k != i), Fraction(0))
            for j in range(n)
        ]
    return m


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """Rectangular matrices, often singular: rows that combine others, and
    zero rows and columns; empty when there are no rows."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    m = [[draw(_sparse_entries) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        coeffs = [draw(_entries) for _ in range(rows - 1)]
        m[-1] = [sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0)) for j in range(cols)]
    if rows and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = Fraction(0)
    return m


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_inverse_matches_cofactor_reference(m):
    before = [row[:] for row in m]
    assert linalg.inverse(m) == _cofactor_inverse(m)
    assert m == before


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_inverse_of_identity_and_of_a_singular_matrix():
    assert linalg.inverse(_identity(4)) == _identity(4)
    assert linalg.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) is None


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_int_kernels_match_fraction_reference(m):
    before = [row[:] for row in m]
    assert linalg.rref(m) == reference_rref(m)
    assert linalg.rank(m) == reference_rank(m)
    assert linalg.nullspace(m) == reference_nullspace(m)
    if m and len(m) == len(m[0]):
        assert linalg.inverse(m) == reference_inverse(m)
    assert m == before


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=4), st.data())
def test_products_match_fraction_reference(m, data):
    cols = len(m[0]) if m else 1
    v = data.draw(st.lists(_sparse_entries, min_size=cols, max_size=cols))
    b = [data.draw(st.lists(_sparse_entries, min_size=3, max_size=3)) for _ in range(cols)]
    assert linalg.mat_vec(m, v) == reference_mat_vec(m, v)
    assert linalg.mat_mul(m, b) == reference_mat_mul(m, b)


def test_empty_and_zero_matrices():
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[]]) == ([[]], [])
    assert linalg.rank([]) == linalg.rank(zero) == 0
    assert linalg.nullspace([]) == []
    assert linalg.nullspace(zero) == _identity(3)
    assert linalg.inverse([]) == []
    assert linalg.rref(zero) == (zero, [])


def test_int_nullspace_is_primitive_and_spans_the_kernel():
    rows = [[2, 4, 6, 0], [1, 2, 3, 0]]
    basis = linalg.int_nullspace([row[:] for row in rows])
    assert basis == [[-2, 1, 0, 0], [-3, 0, 1, 0], [0, 0, 0, 1]]
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
