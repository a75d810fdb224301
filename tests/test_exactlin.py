from fractions import Fraction

import pytest

from baxter.exactlin import RationalMatrix, kernel_basis, rank, rational_str, rref


def test_rational_str_integers_and_fractions():
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-4)) == "-4"
    assert rational_str(Fraction(1, 3)) == "1/3"
    assert rational_str(Fraction(-7, 2)) == "-7/2"
    assert rational_str(Fraction(0)) == "0"


def test_from_rows_drops_zeros_and_normalizes():
    m = RationalMatrix.from_rows([[1, 0], [0, Fraction(2, 3)]])
    assert m.rows == 2 and m.cols == 2
    assert m.entries == {(0, 0): Fraction(1), (1, 1): Fraction(2, 3)}
    assert m[0, 1] == 0
    assert isinstance(m[1, 1], Fraction)


def test_matrices_are_immutable_values_and_unhashable():
    m = RationalMatrix(2, 2, {(0, 0): Fraction(4, 2), (1, 0): 0})
    assert m == RationalMatrix(2, 2, {(0, 0): 2})
    assert m != RationalMatrix(2, 3, {(0, 0): 2})
    assert m != (2, 2, {(0, 0): 2})
    assert RationalMatrix(1, 1) == RationalMatrix(1, 1, {})
    assert type(m.entries[0, 0]) is Fraction
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(AttributeError):
        del m.entries
    with pytest.raises(TypeError):
        hash(m)
    assert repr(RationalMatrix(1, 2)) == "RationalMatrix(rows=1, cols=2, entries={})"


def test_construction_rejects_bad_positions():
    with pytest.raises(ValueError):
        RationalMatrix(1, 1, {(0, 2): 1})
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [3]])


def test_rref_known_matrix():
    m = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r = rref(m)
    assert r.to_rows() == [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]


def test_rref_is_idempotent():
    m = RationalMatrix.from_rows([[2, 4], [1, 3], [0, 5]])
    once = rref(m)
    assert rref(once) == once


def test_rank_counts_pivots():
    assert rank(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(RationalMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(RationalMatrix.from_rows([[0, 0], [0, 0]])) == 0


def test_kernel_basis_of_rank_deficient_matrix():
    m = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m.to_rows():
        assert sum(a * x for a, x in zip(row, v)) == 0
    # the kernel is spanned by (1, -2, 1)
    scale = v[0]
    assert scale != 0
    assert tuple(x / scale for x in v) == (Fraction(1), Fraction(-2), Fraction(1))


def test_kernel_of_full_rank_matrix_is_empty():
    m = RationalMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert kernel_basis(m) == []


def test_kernel_dimension_matches_nullity():
    m = RationalMatrix.from_rows([[1, 1, 1, 1], [1, 2, 3, 4]])
    basis = kernel_basis(m)
    assert len(basis) == 4 - rank(m)
    for v in basis:
        for row in m.to_rows():
            assert sum(a * x for a, x in zip(row, v)) == 0


def test_exact_arithmetic_avoids_float_drift():
    m = RationalMatrix.from_rows(
        [[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 3), Fraction(1, 7)]])
    assert rank(m) == 1
    basis = kernel_basis(m)
    assert len(basis) == 1
    a, b = basis[0]
    assert Fraction(1, 3) * a + Fraction(1, 7) * b == 0
