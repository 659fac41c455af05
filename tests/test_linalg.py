from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkh.linalg import IntMatrix, LinalgError, determinant, smith_normal_form
from oracles import (
    NonIntegralEntryError,
    SingularMatrixError,
    block_diag,
    permuted,
    rational_inverse,
    scaled_inverse,
    transpose,
)


def cofactor_determinant(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def snf_count_solutions_mod(a, k):
    """Solutions of a @ x == 0 mod k: prod gcd(d_i, k) over the Smith
    diagonal, k for a zero d_i and for each column beyond the diagonal."""
    diag = smith_normal_form(a).diagonal
    return prod(gcd(x, k) if x else k for x in diag) * k ** (a.cols - len(diag))


def brute_count_solutions_mod(rows, cols, entries, k):
    """Independent oracle: enumerate all of (Z_k)^cols."""
    count = 0
    vec = [0] * cols
    while True:
        if all(
            sum(entries[i * cols + j] * vec[j] for j in range(cols)) % k == 0
            for i in range(rows)
        ):
            count += 1
        for j in range(cols):
            vec[j] += 1
            if vec[j] < k:
                break
            vec[j] = 0
        else:
            return count


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.integers(min_value=-9, max_value=9), min_size=n * m, max_size=n * m
        ).map(lambda e: IntMatrix(n, m, tuple(e)))
    )
)

small_square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.integers(min_value=-9, max_value=9), min_size=n * n, max_size=n * n
    ).map(lambda e: IntMatrix(n, n, tuple(e)))
)


def test_matrix_shape_validation():
    with pytest.raises(LinalgError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(LinalgError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_accessors():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.at(1, 2) == 6
    assert m.row(0) == (1, 2, 3)
    assert m.col(1) == (2, 5)
    assert transpose(m) == IntMatrix.from_rows([[1, 4], [2, 5], [3, 6]])
    assert m.without_row_col(0, 1) == IntMatrix.from_rows([[4, 6]])
    assert m.mod(4) == IntMatrix.from_rows([[1, 2, 3], [0, 1, 2]])
    with pytest.raises(IndexError):
        m.at(2, 0)


def test_matmul_and_identity():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert a @ IntMatrix.identity(2) == a
    assert a.mul_vector((1, -1)) == (-1, -1)


def test_permuted_roundtrip():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    p = permuted(m, (2, 0, 1), (1, 2, 0))
    assert p.at(2, 1) == m.at(0, 0)
    assert p.at(0, 2) == m.at(1, 1)


def test_determinant_known_values():
    assert determinant(IntMatrix(0, 0, ())) == 1
    assert determinant(IntMatrix.from_rows([[7]])) == 7
    assert determinant(IntMatrix.from_rows([[2, -1], [-1, 2]])) == 3
    assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    with pytest.raises(LinalgError):
        determinant(IntMatrix(2, 3, (0,) * 6))


@settings(max_examples=200)
@given(small_square_matrices)
def test_determinant_matches_cofactor_oracle(m):
    assert determinant(m) == cofactor_determinant(m.row_list())


@settings(max_examples=200)
@given(small_matrices)
def test_snf_decomposition_properties(a):
    snf = smith_normal_form(a)
    assert snf.u @ a @ snf.v == snf.d
    assert abs(determinant(snf.u)) == 1
    assert abs(determinant(snf.v)) == 1
    diag = snf.diagonal
    # diagonal matrix, nonnegative entries, divisibility chain, zeros trailing
    for i in range(snf.d.rows):
        for j in range(snf.d.cols):
            if i != j:
                assert snf.d.at(i, j) == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0


def test_snf_known_diagonal():
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(a).diagonal == (2, 2, 156)


@settings(max_examples=100)
@given(small_square_matrices)
def test_rational_inverse_or_singular(a):
    det = cofactor_determinant(a.row_list())
    if det == 0:
        with pytest.raises(SingularMatrixError):
            rational_inverse(a)
        return
    inv = rational_inverse(a)
    n = a.rows
    for i in range(n):
        for j in range(n):
            acc = sum(Fraction(a.at(i, k)) * inv[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)


def test_scaled_inverse_exact():
    a = IntMatrix.from_rows([[2, -1], [-1, 2]])
    assert scaled_inverse(a, 3) == IntMatrix.from_rows([[2, 1], [1, 2]])
    with pytest.raises(NonIntegralEntryError) as exc:
        scaled_inverse(a, 2)
    assert exc.value.value == Fraction(4, 3)


def test_count_solutions_known():
    # 2x - y = 0, -x + 2y = 0 over Z_3: the three constant vectors
    a = IntMatrix.from_rows([[2, -1], [-1, 2]])
    assert snf_count_solutions_mod(a, 3) == 3
    assert snf_count_solutions_mod(a, 5) == 1
    assert snf_count_solutions_mod(IntMatrix(2, 3, (0,) * 6), 4) == 64


@settings(max_examples=100)
@given(small_matrices, st.integers(min_value=1, max_value=4))
def test_count_solutions_matches_enumeration(a, k):
    expected = brute_count_solutions_mod(a.rows, a.cols, a.entries, k)
    assert snf_count_solutions_mod(a, k) == expected


def test_block_diag():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[5]])
    assert block_diag([a, b]) == IntMatrix.from_rows(
        [[1, 2, 0], [3, 4, 0], [0, 0, 5]]
    )
    assert block_diag([]) == IntMatrix(0, 0, ())


def test_snf_random_self_checks():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        a = IntMatrix(n, m, tuple(rng.randint(-30, 30) for _ in range(n * m)))
        snf = smith_normal_form(a)
        assert snf.u @ a @ snf.v == snf.d
        assert abs(determinant(snf.u)) == 1
        assert abs(determinant(snf.v)) == 1
