from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkh.linalg
from gkh.codec import BraidWord
from gkh.coloring import crossing_matrix
from gkh.diagram import braid_closure, turks_head
from gkh.fixtures import fixture_diagram, fixture_names
from gkh.linalg import (
    IntMatrix,
    LinalgError,
    SnfDecomposition,
    check_smith_form,
    determinant,
    smith_normal_form,
)
from oracles import (
    NonIntegralEntryError,
    SingularMatrixError,
    bareiss_determinant,
    block_diag,
    determinantal_divisors,
    full_scan_smith_normal_form,
    identity,
    laplace_determinant,
    permuted,
    rational_inverse,
    reduced_crossing_matrix,
    reduced_mod,
    scaled_inverse,
    snf_from_dense,
    transpose,
    without_row_col,
)


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


def matrices(entries, max_rows=5, max_cols=5, min_rows=1):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.integers(0, max_cols).flatmap(
            lambda m: st.lists(entries, min_size=n * m, max_size=n * m).map(
                lambda e: IntMatrix(n, m, tuple(e))
            )
        )
    )


def product_of(shape):
    """An r x c matrix of rank at most k: an r x k matrix times a k x c one."""
    r, k, c = shape
    entries = st.integers(-3, 3)
    return st.tuples(
        st.lists(entries, min_size=r * k, max_size=r * k),
        st.lists(entries, min_size=k * c, max_size=k * c),
    ).map(lambda e: IntMatrix(r, k, tuple(e[0])) @ IntMatrix(k, c, tuple(e[1])))


singular_matrices = st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(
    lambda rc: st.integers(0, min(rc) - 1).flatmap(
        lambda k: product_of((rc[0], k, rc[1]))
    )
)


# dense; crossing-like (entries of C'); no unit entry, so every pivot
# comes from Euclid steps; singular, as a product through a narrower middle
snf_inputs = st.one_of(
    matrices(st.integers(-9, 9), min_rows=0),
    matrices(st.sampled_from((0, 0, 0, 1, -1, 2))),
    matrices(st.sampled_from((0, 2, -2, 3, -3, 4, 6))),
    singular_matrices,
)


@settings(max_examples=300, deadline=None)
@given(snf_inputs)
def test_snf_diagonal_matches_determinantal_divisors(a):
    snf = smith_normal_form(a)
    assert snf.diagonal == determinantal_divisors(a)
    assert abs(laplace_determinant(snf.u.row_list())) == 1
    assert abs(laplace_determinant(snf.v.row_list())) == 1


@pytest.mark.parametrize(
    "rows, diagonal",
    [
        ([[6, 0], [0, 4]], (2, 12)),
        ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], (1, 1, 30)),
        # no unit entry: 4 retires first, then Euclid on (6, 10) reaches -2,
        # which retires as 2, so the sweep gets the pivots as (4, 2)
        ([[4, 0, 0], [0, 6, 10]], (2, 4)),
    ],
)
def test_snf_divisor_chain_sweep(rows, diagonal):
    a = IntMatrix.from_rows(rows)
    snf = smith_normal_form(a)
    assert snf.diagonal == diagonal == determinantal_divisors(a)
    assert abs(laplace_determinant(snf.u.row_list())) == 1
    assert abs(laplace_determinant(snf.v.row_list())) == 1


def assert_same_factors(a):
    snf, expected = smith_normal_form(a), full_scan_smith_normal_form(a)
    assert (snf.u, snf.d, snf.v) == (expected.u, expected.d, expected.v)
    assert snf == expected


@settings(max_examples=300, deadline=None)
@given(snf_inputs)
@example(IntMatrix.from_rows([[6, 0], [0, 4]]))  # the chain sweep
@example(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
@example(IntMatrix.from_rows([[4, 0, 0], [0, 6, 10]]))  # Euclid, then the sweep
def test_cached_pivot_keys_pick_the_full_scan_pivots(a):
    # the cached least key of each row must be the one a scan of every
    # live entry finds, so U, D and V come out identical
    assert_same_factors(a)


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_factors_match_the_full_scan_at_every_base(name):
    c_prime = crossing_matrix(fixture_diagram(name))
    assert_same_factors(c_prime)
    if c_prime.is_square:
        for base in range(c_prime.rows):
            assert_same_factors(reduced_crossing_matrix(c_prime, base))


def alternating_braid_diagram(seed, strands, length):
    """A reduced alternating prime braid closure: generator signs follow parity."""
    rng = random.Random(seed)
    while True:
        polarity = rng.randrange(2)
        letters = []
        for _ in range(length):
            g = rng.randint(1, strands - 1)
            letters.append(g if g % 2 == polarity else -g)
        if {abs(x) for x in letters} != set(range(1, strands)):
            continue
        d = braid_closure(BraidWord(strands, tuple(letters)))
        if d.is_alternating and d.is_reduced and d.is_prime_diagram:
            return d


@pytest.mark.parametrize(
    "d",
    [turks_head(25), alternating_braid_diagram(2301, 4, 52), alternating_braid_diagram(5, 4, 52)],
    ids=["turks_head(25)", "braid4x52 seed 2301", "braid4x52 seed 5"],
)
def test_fifty_crossing_factors_match_the_full_scan(d):
    c_prime = crossing_matrix(d)
    assert_same_factors(reduced_crossing_matrix(c_prime))
    assert_same_factors(reduced_crossing_matrix(c_prime, 0))


@pytest.mark.parametrize("cols", [0, 1, 3])
def test_snf_of_a_matrix_with_no_rows(cols):
    a = IntMatrix(0, cols, ())
    snf = smith_normal_form(a)
    assert (snf.d.rows, snf.d.cols) == (0, cols)
    assert snf.u == IntMatrix(0, 0, ())
    assert snf.v == identity(cols)
    assert snf.diagonal == ()


def test_certificate_names_both_shapes_on_a_mismatch():
    a = IntMatrix(0, 3, ())
    # the shape the Smith form used to give a 0x3 matrix
    bad = snf_from_dense(IntMatrix(0, 0, ()), IntMatrix(0, 0, ()), identity(3))
    with pytest.raises(LinalgError, match=r"A \(0x3\).*D is 0x0"):
        check_smith_form(a, bad)
    b = IntMatrix.from_rows([[1, 2], [3, 4]])
    snf = smith_normal_form(b)
    with pytest.raises(LinalgError, match=r"A \(2x2\): U is 3x3"):
        check_smith_form(b, snf_from_dense(identity(3), snf.d, snf.v))


def test_certificate_rejects_an_index_outside_the_matrix():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    snf = smith_normal_form(a)
    for index in (2, -1):
        u_rows = ({**snf.u_rows[0], index: 1},) + snf.u_rows[1:]
        bad = SnfDecomposition(2, 2, u_rows, snf.diagonal, snf.v_cols)
        with pytest.raises(LinalgError, match=r"row 0 of U has an index outside 0\.\.1"):
            check_smith_form(a, bad)
        v_cols = snf.v_cols[:1] + ({**snf.v_cols[1], index: 1},)
        bad = SnfDecomposition(2, 2, snf.u_rows, snf.diagonal, v_cols)
        with pytest.raises(LinalgError, match=r"column 1 of V has an index outside 0\.\.1"):
            check_smith_form(a, bad)


@settings(max_examples=100)
@given(matrices(st.integers(-9, 9)))
def test_without_row_col_drops_one_row_and_column(m):
    for i in range(m.rows):
        for j in range(m.cols):
            expected = [
                [m.at(r, c) for c in range(m.cols) if c != j] for r in range(m.rows) if r != i
            ]
            got = without_row_col(m, i, j)
            assert (got.rows, got.cols) == (m.rows - 1, m.cols - 1)
            assert got.row_list() == expected


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
    assert without_row_col(m, 0, 1) == IntMatrix.from_rows([[4, 6]])
    assert reduced_mod(m, 4) == IntMatrix.from_rows([[1, 2, 3], [0, 1, 2]])
    with pytest.raises(IndexError):
        m.at(2, 0)


def test_matmul_and_identity():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert a @ identity(2) == a
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
    assert determinant(m) == laplace_determinant(m.row_list())


sparse_square_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=n * n, max_size=n * n
    ).map(lambda e: IntMatrix(n, n, tuple(e)))
)


@settings(max_examples=200)
@given(sparse_square_matrices)
def test_sparse_determinant_matches_cofactor_oracle(m):
    # mostly zero pivot columns: rows are rescaled, skipped, or swapped up
    assert determinant(m) == laplace_determinant(m.row_list())


singular_square_matrices = st.integers(2, 5).flatmap(
    lambda n: st.integers(0, n - 1).flatmap(lambda k: product_of((n, k, n)))
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_square_matrices, sparse_square_matrices, singular_square_matrices))
@example(IntMatrix.from_rows([[0, 1], [1, 0]]))
@example(IntMatrix.from_rows([[2, 4], [1, 2]]))
def test_determinant_matches_bareiss(m):
    assert determinant(m) == bareiss_determinant(m)


def test_determinant_signs_match_bareiss():
    rng = random.Random(11)
    signs = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        m = IntMatrix(n, n, tuple(rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n * n)))
        value = determinant(m)
        assert value == bareiss_determinant(m)
        signs.add((value > 0) - (value < 0))
    assert signs == {-1, 0, 1}


def test_determinant_divisible_by_the_first_primes():
    # both residues are 0; the third prime alone fixes the value
    p, q = gkh.linalg._prime(0), gkh.linalg._prime(1)
    lower = IntMatrix.from_rows([[1, 0, 0], [4, 1, 0], [-2, 5, 1]])
    middle = IntMatrix.from_rows([[p, 0, 0], [0, -3, 0], [0, 0, q]])
    upper = IntMatrix.from_rows([[1, -3, 7], [0, 1, 2], [0, 0, 1]])
    m = lower @ middle @ upper
    assert determinant(m) == bareiss_determinant(m) == -3 * p * q


def test_determinant_of_a_dense_matrix_with_200_bit_entries():
    rng = random.Random(5)
    m = IntMatrix(8, 8, tuple(rng.randrange(-(1 << 200), 1 << 200) for _ in range(64)))
    assert determinant(m) == bareiss_determinant(m)
    # twice the Hadamard bound, about 2^1607, is past the product of 20
    # primes below 2^78, so the CRT joins 21 residues
    bound = 4 * prod(sum(x * x for x in m.row(i)) for i in range(8))
    assert prod(gkh.linalg._prime(k) for k in range(20)) ** 2 <= bound


def test_every_prime_is_below_the_miller_rabin_bound():
    # the 200-bit matrix needs the most primes of any test, 21; every prime
    # the suite reaches lies below psi_12, where the twelve bases decide
    primes = [gkh.linalg._prime(k) for k in range(21)]
    assert primes == sorted(set(primes), reverse=True)
    assert all(p < gkh.linalg._PSI_12 for p in gkh.linalg._PRIMES)
    assert primes[0] > 1 << 77
    # Fermat with three more bases is an independent check that each is prime
    assert all(pow(b, p - 1, p) == 1 for p in primes for b in (41, 43, 47))


def test_is_prime_on_strong_pseudoprimes():
    # 149491 * 747451 * 34233211 passes the bases 2 through 23
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not gkh.linalg._is_prime(3825123056546413051)
    # psi_12 itself passes all twelve bases: the bound is sharp
    assert 399165290221 * 798330580441 == gkh.linalg._PSI_12
    assert gkh.linalg._is_prime(gkh.linalg._PSI_12)
    assert gkh.linalg._PRIME_CEILING < gkh.linalg._PSI_12


def test_determinant_of_turks_head_300_is_the_lucas_value():
    # |det| of the closure of (s1 s2^-1)^n is the Lucas number L_2n minus 2;
    # 599 rows need 10 primes below 2^78, each found on demand
    lucas = [2, 1]
    while len(lucas) <= 600:
        lucas.append(lucas[-1] + lucas[-2])
    c = reduced_crossing_matrix(crossing_matrix(turks_head(300)))
    assert abs(determinant(c)) == lucas[600] - 2


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
    det = laplace_determinant(a.row_list())
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
