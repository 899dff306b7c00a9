from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mhopf import linalg

F = Fraction

entries = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def mat(rows):
    return [[F(x) for x in row] for row in rows]


def test_rref_hand_computed():
    red, pivots = linalg.rref(mat([[1, 2, 3], [2, 4, 7], [0, 0, 1]]))
    # pivots land in columns 0 and 2; row reduction eliminates column 2
    # from the first row, leaving the dependent column 1 untouched.
    assert pivots == [0, 2]
    assert red[0] == [F(1), F(2), F(0)]
    assert red[1] == [F(0), F(0), F(1)]


def test_rank_and_nullspace_dimensions():
    rows = mat([[1, 2, 3], [2, 4, 6]])
    assert linalg.rank(rows) == 1
    null = linalg.nullspace(rows, 3)
    assert len(null) == 2
    for vec in null:
        assert sum(c * v for c, v in zip(rows[0], vec)) == 0


def test_nullspace_of_invertible_matrix_is_trivial():
    assert linalg.nullspace(mat([[2, 1], [1, 1]]), 2) == []


def test_solve_exact_and_inconsistent():
    rows = mat([[2, 1], [1, 3]])
    x = linalg.solve(rows, [F(5), F(10)])
    assert x == [F(1), F(3)]
    assert linalg.solve(mat([[1, 1], [1, 1]]), [F(0), F(1)]) is None


def test_solve_empty_system():
    assert linalg.solve([], []) == []


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=4), st.lists(entries, min_size=3, max_size=3))
def test_solve_verifies_by_substitution(rows, xvec):
    rhs = [sum(c * v for c, v in zip(row, xvec)) for row in rows]
    got = linalg.solve(rows, rhs)
    assert got is not None
    assert [sum(c * v for c, v in zip(row, got)) for row in rows] == rhs


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=2, max_size=4))
def test_nullspace_vectors_annihilate(rows):
    for vec in linalg.nullspace(rows, 4):
        for row in rows:
            assert sum(c * v for c, v in zip(row, vec)) == 0
