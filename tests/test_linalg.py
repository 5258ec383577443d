"""``linalg.inverse`` against a Fraction reference built from cofactors."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dfields import linalg


def _det(m):
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _reference_inverse(m):
    """The adjugate over the determinant, or None when that is zero."""
    n = len(m)
    det = _det(m)
    if det == 0:
        return None
    minor = lambda i, j: [r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i]  # noqa: E731
    return [[(-1) ** (i + j) * _det(minor(j, i)) / det for j in range(n)] for i in range(n)]


_entries = st.integers(-4, 4).map(Fraction) | st.fractions(-3, 3, max_denominator=4)


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


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_inverse_matches_cofactor_reference(m):
    before = [row[:] for row in m]
    assert linalg.inverse(m) == _reference_inverse(m)
    assert m == before


def test_inverse_of_identity_and_of_a_singular_matrix():
    assert linalg.inverse(linalg.identity(4)) == linalg.identity(4)
    assert linalg.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) is None
