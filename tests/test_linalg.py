from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gkh.linalg
from gkh.codec import BraidWord, parse_pd
from gkh.coloring import crossing_matrix, link_determinant
from gkh.diagram import braid_closure, from_pd, pretzel, turks_head
from gkh.fixtures import fixture_diagram, fixture_names
from gkh.linalg import (
    DeterminantBoundError,
    IntMatrix,
    LinalgError,
    SnfDecomposition,
    SparseMatrix,
    check_smith_form,
    determinant,
    smith_normal_form,
)
from oracles import (
    NonIntegralEntryError,
    SingularMatrixError,
    bareiss_determinant,
    block_diag,
    check_dense_smith_form,
    dense_smith_factors,
    determinantal_divisors,
    full_scan_smith_normal_form,
    identity,
    laplace_determinant,
    markowitz_smith_normal_form,
    mul_vector,
    permuted,
    rational_inverse,
    reduced_crossing_matrix,
    reduced_mod,
    scaled_inverse,
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


def sparse_rows(m):
    return tuple([{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)])


def sparse_cols(m):
    return tuple([{i: x for i, x in enumerate(m.col(j)) if x} for j in range(m.cols)])


def assert_same_factors(a):
    snf = smith_normal_form(a)
    u, d, v = full_scan_smith_normal_form(a)
    check_dense_smith_form(a, u, d, v)
    # each row and column of U and each column of V replayed alone from the
    # record of operations
    rows = [snf.u_rows_at([i])[0] for i in range(a.rows)]
    cols = [snf.u_cols_at([j])[0] for j in range(a.rows)]
    v_cols = [snf.v_cols_at([k])[0] for k in range(a.cols)]
    # all of them replayed together, in one pass, and again read in reverse
    # order, each index asked for twice
    assert snf.u_rows_at(range(a.rows)) == rows
    assert snf.u_cols_at(range(a.rows)) == cols
    assert snf.v_cols_at(range(a.cols)) == v_cols
    assert snf.u_rows_at([*range(a.rows - 1, -1, -1)] * 2) == rows[::-1] * 2
    assert snf.u_cols_at([*range(a.rows - 1, -1, -1)] * 2) == cols[::-1] * 2
    assert snf.v_cols_at([*range(a.cols - 1, -1, -1)] * 2) == v_cols[::-1] * 2
    # then checked against the certificate's products
    check_smith_form(a, snf)
    assert snf.u_rows_at(range(a.rows)) == rows == list(sparse_rows(u))
    assert snf.v_cols_at(range(a.cols)) == v_cols == list(sparse_cols(v))
    assert cols == list(sparse_cols(u))
    assert (snf.u, snf.d, snf.v) == (u, d, v)


@settings(max_examples=300, deadline=None)
@given(snf_inputs)
@example(IntMatrix.from_rows([[6, 0], [0, 4]]))  # the chain sweep
@example(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
@example(IntMatrix.from_rows([[4, 0, 0], [0, 6, 10]]))  # Euclid, then the sweep
def test_cached_pivot_keys_pick_the_full_scan_pivots(a):
    # the least key on the heap must be the one a scan of every row's key
    # finds, so U, D and V come out identical
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


@st.composite
def crossing_like_matrices(draw):
    """10-60 rows of 2, -1, -1 on random arcs, as C' has (summed where an
    arc repeats), some reduced at a base: a pivot there changes the counts
    of columns that other rows share, whose keys the pass leaves as they
    were."""
    n = draw(st.integers(10, 60))
    arcs = st.integers(0, n - 1)
    rows = []
    for over, left, right in draw(st.lists(st.tuples(arcs, arcs, arcs), min_size=n, max_size=n)):
        row = [0] * n
        row[over] += 2
        row[left] -= 1
        row[right] -= 1
        rows.append(row)
    c_prime = IntMatrix.from_rows(rows)
    base = draw(st.none() | arcs)
    return c_prime if base is None else reduced_crossing_matrix(c_prime, base)


@settings(max_examples=150, deadline=None)
@given(crossing_like_matrices())
def test_crossing_like_factors_match_the_full_scan(a):
    assert_same_factors(a)


@settings(max_examples=150, deadline=None)
@given(crossing_like_matrices())
def test_crossing_like_diagonals_match_the_markowitz_rule(a):
    # the pivot rule picks U and V, never the diagonal; the Markowitz loop's
    # record must pass the same certificate
    snf = markowitz_smith_normal_form(a)
    check_smith_form(a, snf)
    assert snf.diagonal == smith_normal_form(a).diagonal


def hopf_links(k):
    """k disjoint Hopf links: 2k crossings, 2k arcs, 2k components."""
    return from_pd(parse_pd("PD[" + ",".join(
        f"X({4*i+1},{4*i+3},{4*i+2},{4*i+4}),X({4*i+3},{4*i+1},{4*i+4},{4*i+2})" for i in range(k)
    ) + "]"))


@pytest.mark.parametrize("k", range(1, 41))
def test_disjoint_hopf_links_factors_match_the_full_scan(k):
    # one 2x2 block (2, -2; -2, 2) per link: many rows tie on |x|, entries
    # and column counts, so the pivots follow the row order the keys break
    # the ties by
    c_prime = crossing_matrix(hopf_links(k))
    assert_same_factors(c_prime)
    assert_same_factors(reduced_crossing_matrix(c_prime))
    assert_same_factors(reduced_crossing_matrix(c_prime, 0))


def unretired_pivots(ops):
    """The rows (columns) that led a row (column) operation as its pivot
    and were changed by a later one: a retired pivot is never changed
    again, so each is a pivot that stayed live after its pass."""
    sources, unretired = set(), set()
    for op in ops:
        if len(op) == 3 and op[0] != op[2]:
            if op[0] in sources:
                unretired.add(op[0])
            sources.add(op[2])
    return unretired


@pytest.mark.parametrize(
    "twists", [(2, 3, 5), (3, 5, 7), (5, 7, 9), (3, 5, 7, 9), (3, 5, 9, 11)]
)
def test_pretzel_pivots_that_stay_live_match_the_full_scan(twists):
    # after its unit pivots, a pretzel's C is left with a block of no unit,
    # worked by Euclid steps: a pivot leaves a remainder in its column and
    # stays live, to be keyed again
    c = reduced_crossing_matrix(crossing_matrix(pretzel(*twists)))
    u_ops, _, v_ops, _ = smith_normal_form(c).record
    assert unretired_pivots(u_ops)
    if twists == (3, 5, 9, 11):
        assert unretired_pivots(v_ops)  # and here a remainder in its row too
    assert_same_factors(c)


def assert_dense_record_replays(a):
    """The dense oracle's record, its swaps the 2x2 steps (a, b, 0, 1, 1, 0)
    of determinant -1, replays to the U and V the oracle accumulated, read
    whole, row by row and column by column, and passes the certificate,
    whose undo takes each column swap's inverse. Returns the record."""
    snf, u, v = dense_smith_factors(a)
    check_dense_smith_form(a, u, snf.d, v)
    assert (snf.u, snf.v) == (u, v)
    check_smith_form(a, snf)
    assert snf.u_rows_at(range(a.rows)) == list(sparse_rows(u))
    assert snf.v_cols_at(range(a.cols)) == list(sparse_cols(v))
    assert snf.u_cols_at(range(a.rows)) == list(sparse_cols(u))
    return snf.record


def swaps(ops):
    return [op for op in ops if op[2:] == (0, 1, 1, 0)]


@settings(max_examples=200, deadline=None)
@given(snf_inputs)
@example(IntMatrix.from_rows([[0, 2, 0], [0, 0, 1], [3, 0, 0]]))  # a row and a column swap
def test_dense_record_with_swaps_replays_to_its_accumulated_factors(a):
    assert_dense_record_replays(a)


def test_fixture_dense_records_certify_their_swaps():
    row_swaps = column_swaps = 0
    for name in fixture_names():
        c_prime = crossing_matrix(fixture_diagram(name))
        for a in [c_prime] + ([reduced_crossing_matrix(c_prime)] if c_prime.is_square else []):
            u_ops, _, v_ops, _ = assert_dense_record_replays(a)
            row_swaps += len(swaps(u_ops))
            column_swaps += len(swaps(v_ops))
    assert row_swaps and column_swaps


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
    bad = SnfDecomposition(0, 0, (), ([], [], [], [0, 1, 2]))
    with pytest.raises(LinalgError, match=r"A \(0x3\).*D is 0x0"):
        check_smith_form(a, bad)
    b = IntMatrix.from_rows([[1, 2], [3, 4]])
    snf = smith_normal_form(b)
    u_ops, _, v_ops, col_order = snf.record
    with pytest.raises(LinalgError, match=r"A \(2x2\): U is 3x3"):
        check_smith_form(b, SnfDecomposition(2, 2, snf.diagonal, (u_ops, [0, 1, 2], v_ops, col_order)))


def test_certificate_rejects_an_index_outside_the_matrix():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    snf = smith_normal_form(a)
    u_ops, row_order, v_ops, col_order = snf.record
    for index in (2, -1):
        for op in ((0, 1, index), (index, 1, 0), (0, index, 1, 1, 0, 1)):
            bad = SnfDecomposition(2, 2, snf.diagonal, (u_ops + [op], row_order, v_ops, col_order))
            with pytest.raises(LinalgError, match=rf"row operation {len(u_ops)}, .*, is not elementary on 2"):
                check_smith_form(a, bad)
            bad = SnfDecomposition(2, 2, snf.diagonal, (u_ops, row_order, [op] + v_ops, col_order))
            with pytest.raises(LinalgError, match=r"column operation 0, .*, is not elementary on 2"):
                check_smith_form(a, bad)
        bad = SnfDecomposition(2, 2, snf.diagonal, (u_ops, [row_order[0], index], v_ops, col_order))
        with pytest.raises(LinalgError, match=r"row order is not a permutation of 0\.\.1"):
            check_smith_form(a, bad)


def test_record_certificate_checks_shape_order_and_chain():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    snf = smith_normal_form(a)
    check_smith_form(a, snf)
    u_ops, row_order, v_ops, col_order = snf.record
    with pytest.raises(LinalgError, match=r"A \(2x3\)"):
        check_smith_form(IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]]), snf)
    for record, message in (
        ((u_ops, row_order[:1], v_ops, col_order), r"A \(2x2\): U is 1x1"),
        ((u_ops, [0, 0], v_ops, col_order), r"row order is not a permutation of 0\.\.1"),
        ((u_ops, row_order, v_ops, [1, 1]), r"column order is not a permutation of 0\.\.1"),
        ((u_ops + [(2, 1, 0)], row_order, v_ops, col_order), r"row operation \d+, \(2, 1, 0\), is not elementary"),
        ((u_ops, row_order, v_ops + [(0, 1, -1)], col_order), r"column operation \d+, \(0, 1, -1\), is not elementary"),
    ):
        with pytest.raises(LinalgError, match=message):
            check_smith_form(a, SnfDecomposition(2, 2, snf.diagonal, record))
    # 2 does not divide 3: the pivots as the loop found them, before the sweep
    with pytest.raises(LinalgError, match="entry 0 = 2 does not start a divisor chain"):
        check_smith_form(a, SnfDecomposition(2, 2, (2, 3), ([], [0, 1], [], [0, 1])))


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
    assert mul_vector(a, (1, -1)) == (-1, -1)


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
    # twice the Hadamard bound, about 2^1607, is past the 1200-bit product of
    # the 80- to 640-bit primes; the fewest primes that pass it are two, the
    # 640-bit one and a 1280-bit one
    bound = 4 * prod(sum(x * x for x in m.row(i)) for i in range(8))
    assert prod(gkh.linalg._prime(k) for k in range(4)) ** 2 <= bound
    assert prod(gkh.linalg._prime(k) for k in range(5)) ** 2 > bound


def test_every_proth_entry_is_proven():
    # _prime proves each entry by Proth's theorem on first use; Fermat with
    # three bases the proof never tries is an independent check
    primes = [gkh.linalg._prime(i) for i in range(len(gkh.linalg._PROTH))]
    assert primes == sorted(set(primes)) == gkh.linalg._PRIMES
    assert [p.bit_length() for p in primes[:5]] == [80, 160, 320, 640, 1280]
    assert all(pow(b, p - 1, p) == 1 for p in primes for b in (41, 43, 47))


@pytest.mark.parametrize(
    "entry",
    [
        (2063, 68),  # the first entry's k + 2: 2063 * 2^68 + 1 is divisible by 3
        (4122, 67),  # the first entry's prime, with an even k
        (5, 1),  # 11 = 5 * 2 + 1 is prime and 7^5 = -1 mod 11, but k >= 2^m
    ],
)
def test_a_tampered_proth_entry_is_refused(monkeypatch, entry):
    monkeypatch.setattr(gkh.linalg, "_PROTH", (entry,) + gkh.linalg._PROTH[1:])
    monkeypatch.setattr(gkh.linalg, "_PRIMES", [])
    k, m = entry
    # det [[5]] has the bound 4 * 5^2 = 100 < 11^2, so entry 0 alone passes
    # it and is the one entry used, and proven
    with pytest.raises(LinalgError, match=f"entry 0 \\(k = {k}, m = {m}\\)"):
        determinant(IntMatrix.from_rows([[5]]))


@pytest.mark.parametrize("primes", [1, 2, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_determinant_sign_at_the_edge_of_the_bound(primes, sign):
    # a diagonal matrix's |det| is its Hadamard bound H. With 2H = M - 1, M
    # the product of the first primes, those primes pass 2H and det = -H is
    # the residue M - H, just past M / 2; with 2H = M + 1 one more is needed
    modulus = prod(gkh.linalg._prime(k) for k in range(primes))
    for h in ((modulus - 1) // 2, (modulus + 1) // 2):
        for m, det in (
            (IntMatrix.from_rows([[sign * h]]), sign * h),
            (IntMatrix.from_rows([[1, 0, 0], [0, sign * h, 0], [0, 0, -1]]), -sign * h),
            (IntMatrix.from_rows([[0, -h], [sign, 0]]), sign * h),  # a permuted diagonal
        ):
            assert determinant(m) == bareiss_determinant(m) == det


def test_determinant_runs_into_the_1280_bit_block():
    rng = random.Random(7)
    m = IntMatrix(8, 8, tuple(rng.randrange(-(1 << 400), 1 << 400) for _ in range(64)))
    assert determinant(m) == bareiss_determinant(m)
    # twice the Hadamard bound, about 2^3207, is past the 80- to 640-bit
    # primes and one of the 1280-bit block; the fewest that pass it are three
    # of that block
    bound = 4 * prod(sum(x * x for x in m.row(i)) for i in range(8))
    assert prod(gkh.linalg._prime(k) for k in range(5)) ** 2 <= bound
    assert prod(gkh.linalg._prime(k) for k in range(6)) ** 2 > bound


def test_determinant_of_split_diagrams_is_zero():
    # a zero determinant is settled only when the primes pass the bound:
    # 1000 disjoint Hopf links, 2000 crossings, take the 640-bit prime and two
    # of the 1280-bit block
    def hopf_links(n):
        return from_pd(
            parse_pd(
                "PD["
                + ",".join(
                    f"X({4 * i + 1},{4 * i + 3},{4 * i + 2},{4 * i + 4}),"
                    f"X({4 * i + 3},{4 * i + 1},{4 * i + 4},{4 * i + 2})"
                    for i in range(n)
                )
                + "]"
            )
        )

    for d in (fixture_diagram("split"), hopf_links(2), hopf_links(10)):
        c = reduced_crossing_matrix(crossing_matrix(d))
        assert link_determinant(d) == 0 == bareiss_determinant(c)
    assert link_determinant(hopf_links(1000)) == 0


def test_a_bound_past_the_prime_table_is_refused(monkeypatch):
    # 4 * (2^70000)^2 has 140003 bits, so the modulus needs 70002; the
    # product of the table's 54 primes has 65328, read off the table before
    # any elimination and without proving an entry
    calls = []
    det_mod = gkh.linalg._det_mod
    monkeypatch.setattr(gkh.linalg, "_det_mod", lambda *args: calls.append(args) or det_mod(*args))
    proven = list(gkh.linalg._PRIMES)
    m = SparseMatrix(1, 1, ({0: 1 << 70000},))
    with pytest.raises(DeterminantBoundError, match="modulus of 70002 bits, past the 65328 bits"):
        determinant(m)
    assert calls == [] and gkh.linalg._PRIMES == proven


@pytest.mark.parametrize(
    "rows, bad",
    [(({0: 1}, {3: 1}), 1), (({-1: 2}, {0: 1}), 0), (({0: 1}, {1: 2, 2: 0}), 1), (({}, {2: 1}), None)],
)
def test_sparse_rows_are_checked(rows, bad):
    if bad is None:
        assert SparseMatrix(2, 3, rows).dense().row_list() == [[0, 0, 0], [0, 0, 1]]
    else:
        with pytest.raises(LinalgError, match=f"row {bad} has a zero or an index outside 0..2"):
            SparseMatrix(2, 3, rows)


def test_determinant_of_turks_head_300_is_the_lucas_value():
    # |det| of the closure of (s1 s2^-1)^n is the Lucas number L_2n minus 2;
    # 599 rows need one prime, of 1280 bits
    lucas = [2, 1]
    while len(lucas) <= 600:
        lucas.append(lucas[-1] + lucas[-2])
    c = reduced_crossing_matrix(crossing_matrix(turks_head(300)))
    assert abs(determinant(c)) == lucas[600] - 2


def test_determinant_takes_the_fewest_primes(monkeypatch):
    # turks_head(500)'s 999 rows need a modulus of 1292 bits: the largest
    # 1280-bit prime and the 80-bit one, two eliminations where the 80- to
    # 640-bit primes and a 1280-bit one took five
    calls = []
    det_mod = gkh.linalg._det_mod
    monkeypatch.setattr(gkh.linalg, "_det_mod", lambda rows, p: calls.append(p) or det_mod(rows, p))
    lucas = [2, 1]
    while len(lucas) <= 1000:
        lucas.append(lucas[-1] + lucas[-2])
    assert link_determinant(turks_head(500)) == lucas[1000] - 2
    assert [p.bit_length() for p in calls] == [80, 1284]
    # a bound one prime passes takes the smallest such prime alone
    calls.clear()
    assert link_determinant(fixture_diagram("10_123")) == 121
    assert [p.bit_length() for p in calls] == [80]


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
