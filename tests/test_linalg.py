"""Exact linear algebra: the RREF kernel, and solve / rank / nullspace
asked of `spans.Span` in matrix terms.

A matrix A is laid out for a Span by columns: column j is the vector
{i: A[i][j]}.  Then `coords(b, range(n))` solves A x = b,
`kernel(range(n))` is a basis of the nullspace, and the rank of the rows
is the Span's rank.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mhopf import linalg
from mhopf.spans import Span
from mhopf.vectors import FinVec

F = Fraction

entries = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def mat(rows):
    return [[F(x) for x in row] for row in rows]


def vector(entries):
    return FinVec(enumerate(entries))


def columns(rows, ncols):
    return [vector(row[j] for row in rows) for j in range(ncols)]


def solve(rows, rhs, ncols):
    """The solution x of A x = b as a dense list, or None."""
    x = Span(columns(rows, ncols)).coords(vector(rhs), range(ncols))
    return None if x is None else [x[j] for j in range(ncols)]


def nullspace(rows, ncols):
    """Kernel relations as dense coefficient lists over the columns."""
    relations = Span(columns(rows, ncols)).kernel(range(ncols))
    return [[rel[j] for j in range(ncols)] for rel in relations]


def apply(rows, x):
    return [sum(c * v for c, v in zip(row, x)) for row in rows]


def test_rref_hand_computed():
    red, pivots = linalg.rref(mat([[1, 2, 3], [2, 4, 7], [0, 0, 1]]))
    # pivots land in columns 0 and 2; row reduction eliminates column 2
    # from the first row, leaving the dependent column 1 untouched.
    assert pivots == [0, 2]
    assert red[0] == [F(1), F(2), F(0)]
    assert red[1] == [F(0), F(0), F(1)]
    # integral entries come back as ints, the others as Fractions
    assert all(type(x) is int for row in red for x in row)
    red, _ = linalg.rref([[2, 1], [0, 3]])
    assert red == [[1, 0], [0, 1]]
    red, _ = linalg.rref([[2, 1]])
    assert red == [[1, F(1, 2)]] and type(red[0][1]) is F


def test_rank_and_nullspace_dimensions():
    rows = mat([[1, 2, 3], [2, 4, 6]])
    assert Span(map(vector, rows)).rank == 1
    assert Span(columns(rows, 3)).rank == 1
    null = nullspace(rows, 3)
    assert null == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    for vec in null:
        assert apply(rows, vec) == [0, 0]


def test_nullspace_of_invertible_matrix_is_trivial():
    assert nullspace(mat([[2, 1], [1, 1]]), 2) == []


def test_solve_exact_and_inconsistent():
    rows = mat([[2, 1], [1, 3]])
    assert solve(rows, [F(5), F(10)], 2) == [F(1), F(3)]
    assert solve(mat([[1, 1], [1, 1]]), [F(0), F(1)], 2) is None
    # a dependent column gets coordinate 0
    assert solve(mat([[1, 1], [1, 1]]), [F(2), F(2)], 2) == [F(2), F(0)]


def test_solve_empty_system():
    assert solve([], [], 0) == []
    assert Span().coords(vector([F(1)]), []) is None


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=4), st.lists(entries, min_size=3, max_size=3))
def test_solve_verifies_by_substitution(rows, xvec):
    rhs = apply(rows, xvec)
    got = solve(rows, rhs, 3)
    assert got is not None
    assert apply(rows, got) == rhs


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=4), st.lists(entries, min_size=1, max_size=4))
def test_solve_is_none_exactly_outside_the_column_span(rows, rhs):
    cols = columns(rows, 3)
    got = solve(rows, rhs, 3)
    outside = Span(cols + [vector(rhs)]).rank > Span(cols).rank
    assert (got is None) == outside
    if got is not None:
        assert vector(apply(rows, got)) == vector(rhs)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=2, max_size=4))
def test_nullspace_vectors_annihilate(rows):
    null = nullspace(rows, 4)
    # rank-nullity: the relations span the whole kernel
    assert len(null) == 4 - Span(map(vector, rows)).rank
    assert Span(map(vector, null)).rank == len(null)
    for vec in null:
        assert apply(rows, vec) == [0] * len(rows)
