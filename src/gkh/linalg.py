"""Exact integer linear algebra: determinants and certified Smith normal forms.

Everything here works over Z, with no floats or rationals. The library
derives C^(-1), the coloring group and the coloring counts from the one
Smith form; the independent inverses the tests compare against live in
the test suite.

A crossing matrix has at most three nonzeros a row, so the library keeps
it as a SparseMatrix, one {col: value} dict per row, from the diagram to
the certificate; the dense IntMatrix is for what is printed and for the
products the tests and the benchmark take. determinant, smith_normal_form
and check_smith_form read either form as sparse rows. The Smith form is
one sparse loop over rows and columns kept as dicts: it pivots on the
smallest entry, +-1 first and a short row in a short column first among
equals, takes Euclid steps where no unit is left, and puts the few
non-unit pivots into a divisor chain by gcd/lcm steps at the end. Each
live row's key sits on a heap, pushed only when it changes; a top that is
no longer its row's key is popped when it surfaces (lazy deletion). The
key is local to its row, with the column count taken when it is made, so
after a pass only the rows the pass changed are keyed again; a Markowitz
cost (Markowitz 1957) moves with every column count, and would have every
row sharing a column with the pivot row keyed again as well. Neither U
nor V is accumulated: both are kept as the record of the loop's row and
column operations, and three readers take the rows of U, the columns of
U or the columns of V they are asked for off it, all in one pass,
keeping none. The reader certifies the result: check_smith_form replays
the record, checks that every operation is elementary and that the row
operations on A's rows give the final matrix times the undone column
operations, which makes U and V unimodular and |det A| the product of
the diagonal; each row of U and column of V read off the record is then
checked against that certificate's products. The determinant that kh
det and link_determinant print is computed apart from the Smith form, and
the tests keep it as an oracle for the diagonal: sparse elimination on
the same dict rows modulo Proth primes from a checked-in table, each
proven on first use, fewest-rows column first, joined by the Chinese
remainder theorem; the fewest primes whose product passes twice the
Hadamard bound make it exact.
"""
from __future__ import annotations

from functools import cache, cached_property
from itertools import chain
from math import gcd, prod

from ._record import record


class LinalgError(Exception):
    pass


class DeterminantBoundError(LinalgError):
    """The determinant's Hadamard bound is past what the prime table reaches."""


@record
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise LinalgError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise LinalgError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        rows = [tuple(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise LinalgError("ragged rows")
        # From a list, not a generator. tuple() of a generator is allocated
        # at a guessed size and resized; once freed, CPython keeps a resized
        # tuple of up to 19 items on a free list that only a full collection
        # empties. Built that way on every kh command, such tuples made a
        # process that runs many commands grow with each one.
        return cls(n, m, tuple([x for r in rows for x in r]))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def row_list(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise LinalgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        entries = [
            sum(x * y for x, y in zip(self.row(i), col)) for i in range(self.rows) for col in cols
        ]
        return IntMatrix(self.rows, other.cols, tuple(entries))

    def sparse(self) -> SparseMatrix:
        return SparseMatrix(
            self.rows,
            self.cols,
            tuple([{j: x for j, x in enumerate(self.row(i)) if x} for i in range(self.rows)]),
        )

    def __str__(self) -> str:
        if not self.entries:
            return f"<empty {self.rows}x{self.cols}>"
        width = max(len(str(x)) for x in self.entries)
        return "\n".join(
            " ".join(str(x).rjust(width) for x in self.row(i)) for i in range(self.rows)
        )


@record
class SparseMatrix:
    """Integer matrix kept as one {col: value} dict per row, zeros left out.

    The dicts are shared, not copied: nothing that reads a SparseMatrix
    changes them.
    """

    rows: int
    cols: int
    row_maps: tuple[dict[int, int], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise LinalgError("matrix dimensions must be nonnegative")
        if len(self.row_maps) != self.rows:
            raise LinalgError(f"expected {self.rows} rows, got {len(self.row_maps)}")
        # min, max and all over every row at once; a row is sought only to be named
        keys = set(chain.from_iterable(self.row_maps))
        values = chain.from_iterable(map(dict.values, self.row_maps))
        if keys and (min(keys) < 0 or max(keys) >= self.cols) or not all(values):
            bad = (not all(0 <= j < self.cols and x for j, x in r.items()) for r in self.row_maps)
            i = next(i for i, b in enumerate(bad) if b)
            raise LinalgError(f"row {i} has a zero or an index outside 0..{self.cols - 1}")

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def dense(self) -> IntMatrix:
        cols = self.cols
        entries = [0] * (self.rows * cols)
        for i, row in enumerate(self.row_maps):
            for j, x in row.items():
                entries[i * cols + j] = x
        return IntMatrix(self.rows, cols, tuple(entries))

    def row_list(self) -> list[list[int]]:
        return self.dense().row_list()


def _sparse(a: IntMatrix | SparseMatrix) -> SparseMatrix:
    return a if isinstance(a, SparseMatrix) else a.sparse()


def determinant(a: IntMatrix | SparseMatrix) -> int:
    """Exact determinant by sparse elimination modulo primes, joined by CRT.

    By Hadamard's inequality |det A| is at most the product of the row
    norms, so once the primes' product M satisfies M^2 > 4 prod |row|^2,
    det A is the residue mod M taken in (-M/2, M/2): the result is exact,
    not probabilistic (Abbott, Bronstein & Mulders 1999). The primes are
    the fewest _PROTH entries that pass the bound (see _moduli); a bound
    past them all raises DeterminantBoundError before the first
    elimination. A zero row makes the bound 0 and the answer 0 before any
    prime is used.
    """
    if not a.is_square:
        raise LinalgError("determinant needs a square matrix")
    rows = _sparse(a).row_maps
    bound = 4 * prod(sum(x * x for x in r.values()) for r in rows)
    values, reach, capacity = _table(_PROTH)
    if capacity <= bound:
        raise DeterminantBoundError(
            f"the determinant's bound needs a modulus of {(bound.bit_length() + 1) // 2} "
            f"bits, past the {reach.bit_length()} bits of the prime table's product"
        )
    residue, modulus = 0, 1
    for i in _moduli(values, bound):
        p = _prime(i)
        residue += modulus * ((_det_mod(rows, p) - residue) * pow(modulus, -1, p) % p)
        modulus *= p
    return residue - modulus if 2 * residue > modulus else residue


# Proth primes N = k 2^m + 1 (k odd, k < 2^m), smallest first: one each of 80,
# 160, 320 and 640 bits, then 50 of 1280 bits (m = 1268). Each k is the least
# odd k above 2^11 (in the block, the next ones) for which N has no factor
# below 20000 and passes _prime's proof.
_PROTH = ((2061, 68), (2133, 148), (2101, 308), (2571, 628)) + tuple((k, 1268) for k in (
    2331, 2601, 3717, 6931, 7045, 8221, 9891, 10125, 11031, 13677, 15351, 16365, 16657, 20041,
    20461, 21441, 23377, 25041, 26965, 28855, 29827, 29857, 30643, 32157, 32755, 34491, 36487,
    36541, 37767, 38767, 41371, 41913, 42513, 43297, 44257, 44485, 44625, 44731, 45531, 48063,
    48127, 48595, 48625, 48997, 49483, 50037, 50085, 50955, 51297, 51405,
))
_PRIMES: list[int] = []  # entry i of _PROTH once _prime has proven it, else 0


@cache
def _table(table) -> tuple[tuple[int, ...], int, int]:
    """The table's k 2^m + 1, read off (k, m) without proving any entry,
    their product M and M^2, which no bound may reach."""
    values = tuple([(k << m) + 1 for k, m in table])
    reach = prod(values)
    return values, reach, reach * reach


def _moduli(values, bound: int) -> list[int]:
    """Indices of the fewest ascending values whose product M has M^2 > bound:
    the largest but one and the smallest that completes them, since an
    elimination costs about as much at 80 bits as at 1280."""
    last = len(values)
    product = 1
    while product * product <= bound:
        last -= 1
        product *= values[last]
    if last == len(values):
        return []
    rest = product // values[last]
    first = next(i for i in range(last + 1) if (rest * values[i]) ** 2 > bound)
    return [first, *range(last + 1, len(values))]


def _prime(i: int) -> int:
    """Entry i of _PROTH, proven on first use by Proth's theorem (1878): N = k 2^m + 1,
    k odd and k < 2^m, is prime if a^((N-1)/2) = -1 mod N for some a. A prime gives
    +-1 for every a (Euler), so the first small prime a not giving 1 must give -1."""
    if i < len(_PRIMES) and _PRIMES[i]:
        return _PRIMES[i]
    k, m = _PROTH[i]
    n = (k << m) + 1
    x = next((x for a in (3, 5, 7, 11, 13, 17, 19, 23) if (x := pow(a, n >> 1, n)) != 1), 1)
    if not (k % 2 and k < 1 << m and x == n - 1):
        raise LinalgError(f"Proth entry {i} (k = {k}, m = {m}) is not proven prime")
    _PRIMES.extend([0] * (i + 1 - len(_PRIMES)))
    _PRIMES[i] = n
    return n


def _det_mod(rows, p: int) -> int:
    """det mod the prime p of the square matrix with sparse rows {col: x}.

    Each step pivots on a live column with the fewest live rows, taken
    from buckets of columns by that count, then on that column's
    shortest row, and clears the column below it. The pivot positions
    (r, q) make a permutation whose sign fixes the product's.
    """
    n = len(rows)
    d_rows = [{j: y for j, x in r.items() if (y := x % p)} for r in rows]
    in_col = _column_index(d_rows, n)
    count = [len(s) for s in in_col]
    buckets = [set() for _ in range(n + 1)]
    for j, k in enumerate(count):
        buckets[k].add(j)
    col_of = [-1] * n
    det = 1
    for _ in range(n):
        if buckets[0]:
            return 0
        q = next(b for b in buckets if b).pop()
        col = in_col[q]
        r = min(col, key=lambda i: len(d_rows[i]))
        pivot_row = d_rows[r]
        x = pivot_row[q]
        det = det * x % p
        inverse = pow(x, -1, p)
        for i in col - {r}:
            target = d_rows[i]
            f = -target[q] * inverse % p
            for j, y in pivot_row.items():
                z = (target.get(j, 0) + f * y) % p
                if z:
                    if j not in target:
                        in_col[j].add(i)
                    target[j] = z
                else:
                    del target[j]
                    in_col[j].discard(i)
        for j in pivot_row:
            in_col[j].discard(r)
            if j != q:
                buckets[count[j]].discard(j)
                count[j] = len(in_col[j])
                buckets[count[j]].add(j)
        col_of[r] = q
    for i in range(n):  # sort r -> q by swaps, one sign flip each
        while col_of[i] != i:
            j = col_of[i]
            col_of[i], col_of[j] = col_of[j], j
            det = -det
    return det % p


def _column_index(rows, cols: int) -> list[set]:
    """in_col[j]: the set of rows holding a nonzero in column j."""
    in_col = [set() for _ in range(cols)]
    for i, r in enumerate(rows):
        for j in r:
            in_col[j].add(i)
    return in_col


class SnfDecomposition:
    """U A V = D for a rows x cols matrix A, U and V unimodular, D =
    diag(diagonal) with d_1 | d_2 | ..., kept as the sparse loop leaves it.

    U and V are kept only as the record of the loop's operations: the row
    operations on A and the order its rows end in, the column operations
    and the order its columns end in. Three readers take vectors off it,
    each reading every vector it is asked for in one pass over the record
    and keeping none: u_rows_at and v_cols_at replay it backwards,
    u_cols_at forwards. Once check_smith_form has certified the record,
    every row of U and column of V read is checked against the
    certificate's products before it is returned; a column of U is checked
    by what its reader builds from it. The dense u, d and v, for the tests
    and the benchmark, are built from the readers on first use and kept.
    """

    def __init__(self, rows, cols, diagonal, record):
        self.rows, self.cols, self.diagonal = rows, cols, diagonal
        self.record = record  # (row operations, row order, column operations, column order)
        self.certified = None  # (A's rows, U A, V^(-1)), set by check_smith_form

    def u_rows_at(self, indices) -> list[dict]:
        """The rows of U at indices: e_i^T E_m ... E_1 read as (E_1^T ...
        E_m^T e_i)^T, the transposed operations, last first. Once
        certified, each row u must give u A = its row of the certified U A."""
        return self._read(0, indices)

    def v_cols_at(self, indices) -> list[dict]:
        """The columns of V at indices: F_1 ... F_m e_k, the transposed
        operations, last first. Once certified, each column v must give
        V^(-1) v = e_k, which makes (D V^(-1)) v = d_k e_k."""
        return self._read(2, indices)

    def u_cols_at(self, indices) -> list[dict]:
        """The columns of U at indices, U e_j as {row: value}: the row
        operations applied to e_j in order."""
        return self._replay(0, indices, forward=True)

    def _replay(self, side: int, indices, forward: bool = False) -> list[dict]:
        """Vectors at indices off the operations and order of record[side:
        side + 2], replayed together in one pass, held by position: at[j]
        is {vector: value}, each index placed once. Forwards, index j starts
        at position j and the order reads the result; backwards, with the
        operations transposed, it starts at position order[j]. An empty
        read replays nothing."""
        indices = list(indices)
        new = list(dict.fromkeys(indices))
        vectors = [{} for _ in new]
        if new:
            ops, order = self.record[side : side + 2]
            at = [None] * len(order)
            for t, k in enumerate(new):
                at[k if forward else order[k]] = {t: 1}
            _apply(at, ops, "column" if side else "row", transpose=not forward)
            for j, r in enumerate(order if forward else range(len(order))):
                for t, z in (at[r] or {}).items():
                    vectors[t][j] = z
        read = dict(zip(new, vectors))
        return [read[k] for k in indices]

    def _read(self, side: int, indices) -> list[dict]:
        """Rows of U (side 0) or columns of V (side 2) at indices, replayed
        backwards. Once certified, each one's image, v A for a row of U or
        V^(-1) v for a column of V, is checked against the certificate's
        products, or LinalgError names the vector and the first index where
        they differ."""
        indices = list(indices)
        vectors = self._replay(side, indices)
        if self.certified:
            a_rows, ua, w = self.certified
            order = self.record[side + 1]
            for k, vector in dict(zip(indices, vectors)).items():
                factors, want = (w, {order[k]: 1}) if side else (a_rows, ua[order[k]])
                image = {}
                get = image.get
                for t, x in vector.items():
                    for j, y in factors[t].items():
                        image[j] = get(j, 0) + x * y
                image = {j: z for j, z in image.items() if z}
                if image != want:
                    j = min(j for j in image.keys() | want.keys() if image.get(j) != want.get(j))
                    raise LinalgError(
                        f"{'column' if side else 'row'} {k} of {'V' if side else 'U'}, read off "
                        f"the record, is not the certified one: {'V^(-1) v' if side else 'v A'} "
                        f"has {image.get(j, 0)} at {order.index(j) if side else j}, the "
                        f"certificate {want.get(j, 0)}"
                    )
        return vectors

    @cached_property
    def u(self) -> IntMatrix:
        n = self.rows
        rows = self.u_rows_at(range(n))
        return IntMatrix(n, n, tuple([r.get(j, 0) for r in rows for j in range(n)]))

    @cached_property
    def d(self) -> IntMatrix:
        rows, cols, diag = self.rows, self.cols, self.diagonal
        entries = (diag[i] if i == j else 0 for i in range(rows) for j in range(cols))
        return IntMatrix(rows, cols, tuple(entries))

    @cached_property
    def v(self) -> IntMatrix:
        n = self.cols
        cols = self.v_cols_at(range(n))
        return IntMatrix(n, n, tuple([c.get(i, 0) for i in range(n) for c in cols]))


def smith_normal_form(a: IntMatrix | SparseMatrix) -> SnfDecomposition:
    """Smith normal form with transforms, nonnegative diagonal, zeros trailing.

    One sparse loop. Each live row i keeps the key (m, r, c, i): m its
    least |x|, r its number of entries and c the fewest entries among the
    columns of its entries of absolute value m, counted when the key is
    made. A key is made when the loop starts and again whenever a pass
    changes its row, as a target of the row operations or as a pivot row
    that stays live; a pass re-keys no other row, so c may be stale, but m
    and r never are. Each pass pivots on the row of least key, at its entry
    of absolute value m whose column has the fewest entries now, the lowest
    column first among equals: the least |x| of all, so the +-1 entries
    come first, and among equals a short row in a short column. The keys
    are packed into one int each, kept in a dict and on a heap, pushed only
    when they change; a heap top that is not the key its row now keeps is
    stale (the row was keyed again or has left) and is popped.

    Row operations reduce the pivot column by the nearest multiples of x;
    once the column is clear, column operations reduce the pivot row, which
    touches only row p. A remainder either step leaves is at most |x| / 2,
    below every live entry, so the next pass pivots on it (Euclid) and the
    loop ends. A pivot alone in its row and column retires, its sign flipped
    by a row operation; a +-1 pivot clears its column and row by f = -y x
    and retires in the same pass. The units then lead the diagonal, and one
    sweep makes the other pivots a divisor chain: a pair (a, b) with a not
    dividing b becomes (g, ab / g), where g = gcd(a, b) = s a + t b, by the
    rows (s, t), (-b / g, a / g) and the columns v_a + v_b, -(t b / g) v_a +
    (s a / g) v_b, both of determinant 1. Neither U nor V is accumulated;
    each is recorded, one entry per operation: (i, f, p) adds f times row
    (column) p to row (column) i, a sign flip is (p, -2, p), and (a, b, s,
    t, x, y) puts s a + t b in a and x a + y b in b.

    The result is not certified here: the caller checks it by
    check_smith_form, which replays the record.
    """
    from heapq import heappop, heappush  # here, so that kh's start-up does not pay for it

    a = _sparse(a)
    rows, cols = a.rows, a.cols
    d_rows = [dict(r) for r in a.row_maps]
    in_col = _column_index(d_rows, cols)
    u_ops, v_ops = [], []  # the row and column operations, in order
    # a key is m << m_at | r << r_at | c << c_at | i, each field in bits enough for it
    c_at = (rows - 1).bit_length()
    r_at = c_at + rows.bit_length()
    m_at = r_at + cols.bit_length()
    row_of = (1 << c_at) - 1
    keys = {}  # live row -> its key, the very value on the heap
    heap = []

    def key_rows(changed):
        for i in changed:
            row = d_rows[i]
            if not row:
                keys.pop(i, None)
                continue
            m = 0
            for j, y in row.items():
                if y < 0:
                    y = -y
                if y < m or not m:
                    m, c = y, len(in_col[j])
                elif y == m and len(in_col[j]) < c:
                    c = len(in_col[j])
            key = m << m_at | len(row) << r_at | c << c_at | i
            if key != keys.get(i):
                keys[i] = key
                heappush(heap, key)

    key_rows(range(rows))
    pivots = []
    while keys:
        key = heap[0]
        while keys.get(key & row_of) != key:  # stale: its row was keyed again or left
            heappop(heap)
            key = heap[0]
        p = key & row_of
        m = key >> m_at
        pivot_row = d_rows[p]
        q, count = 0, rows + 1  # the column of least (count, index) holding a least entry
        for j, y in pivot_row.items():
            if y == m or y == -m:
                k = len(in_col[j])
                if k < count or k == count and j < q:
                    q, count = j, k
        x = pivot_row[q]
        changed = in_col[q] - {p}
        for i in changed:
            y = d_rows[i][q]
            f = -y * x if m == 1 else -((2 * y + x) // (2 * x))  # nearest quotient
            _add_scaled(d_rows[i], f, pivot_row, in_col, i)
            u_ops.append((i, f, p))
        if m == 1:  # a unit clears its column and its row, and retires
            for j, y in pivot_row.items():
                if j != q:
                    v_ops.append((j, -y * x, q))
                    in_col[j].discard(p)
            d_rows[p] = {q: 1}
            if x < 0:
                u_ops.append((p, -2, p))
            del keys[p]
            pivots.append((p, q))
        else:
            if len(in_col[q]) == 1:
                for j, y in list(pivot_row.items()):
                    if j != q:
                        f = -((2 * y + x) // (2 * x))
                        v_ops.append((j, f, q))
                        y += f * x
                        if y:
                            pivot_row[j] = y
                        else:
                            del pivot_row[j]
                            in_col[j].discard(p)
            if len(pivot_row) == 1 and len(in_col[q]) == 1:
                if x < 0:
                    pivot_row[q] = -x
                    u_ops.append((p, -2, p))
                del keys[p]
                pivots.append((p, q))
            else:
                changed.add(p)
        key_rows(changed)

    units = [(p, q) for p, q in pivots if d_rows[p][q] == 1]
    chain = [(p, q) for p, q in pivots if d_rows[p][q] != 1]
    # rest[k]: the gcd of the chain's values from k on, before the sweep. A
    # step only turns a later value into a multiple of itself, so a value
    # dividing rest[k + 1] divides every later one, and its pass does nothing.
    rest = [0] * (len(chain) + 1)
    for k in range(len(chain) - 1, -1, -1):
        p, q = chain[k]
        rest[k] = gcd(rest[k + 1], d_rows[p][q])
    for k, (pa, qa) in enumerate(chain):
        if rest[k + 1] % d_rows[pa][qa] == 0:
            continue
        for pb, qb in chain[k + 1 :]:
            x, y = d_rows[pa][qa], d_rows[pb][qb]
            if y % x:
                g, s, t = _xgcd(x, y)
                d_rows[pa][qa], d_rows[pb][qb] = g, x // g * y
                u_ops.append((pa, pb, s, t, -(y // g), x // g))
                v_ops.append((qa, qb, 1, 1, -t * (y // g), s * (x // g)))
    pivots = units + chain

    pivot_rows = {p for p, _ in pivots}
    pivot_cols = {q for _, q in pivots}
    row_order = [p for p, _ in pivots] + [i for i in range(rows) if i not in pivot_rows]
    col_order = [q for _, q in pivots] + [j for j in range(cols) if j not in pivot_cols]
    return SnfDecomposition(
        rows,
        cols,
        tuple([d_rows[p][q] for p, q in pivots]) + (0,) * (min(rows, cols) - len(pivots)),
        (u_ops, row_order, v_ops, col_order),
    )


def _add_scaled(target: dict, f: int, source: dict, index=None, key=None) -> None:
    """target += f * source on {position: value} dicts, zeros dropped;
    index[position], when given, is kept as the set of keys holding one."""
    for j, y in source.items():
        x = target.get(j, 0) + f * y
        if x:
            if index is not None and j not in target:
                index[j].add(key)
            target[j] = x
        else:
            target.pop(j, None)
            if index is not None:
                index[j].discard(key)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b, for a, b > 0."""
    s, s_next, t, t_next = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        s, s_next = s_next, s - k * s_next
        t, t_next = t_next, t - k * t_next
    return a, s, t


def _combine(f: int, x: dict, g: int, y: dict) -> dict:
    """f * x + g * y on {position: value} dicts, zeros dropped."""
    out = {j: f * z for j, z in x.items()} if f else {}
    _add_scaled(out, g, y)
    return out


def _apply(vectors: list, ops, what: str, transpose: bool = False, undo: bool = False) -> list:
    """vectors, each a {index: value} dict or None for a zero vector,
    changed in place by ops in order: (i, f, p) adds f vectors[p] to
    vectors[i], and (a, b, s, t, x, y) maps (va, vb) to (s va + t vb, x va
    + y vb). Taken as the rows of a matrix X, they become M X for M = E_m
    ... E_1, E_k the matrix of op k. With transpose, each op's transpose,
    last first, gives M^T X: (i, f, p) adds f vectors[i] to vectors[p],
    and t and x trade places; with undo, each op's inverse, last first,
    gives M^(-1) X.

    Each op must be elementary on len(vectors) vectors: an add with i !=
    p, the sign flip (p, -2, p), or a 2x2 step on two distinct indices with
    s y - t x = e = +-1, whose inverse is (e y, -e t, -e x, e s). Otherwise
    LinalgError names the what operation and its place in ops.
    """
    n = len(vectors)
    steps = enumerate(ops)
    if transpose != undo:
        steps = zip(range(len(ops) - 1, -1, -1), reversed(ops))
    for k, op in steps:
        if len(op) == 3:
            i, f, p = op
            if not (0 <= i < n and 0 <= p < n and (i != p or f == -2)):
                raise LinalgError(f"Smith form {what} operation {k}, {op}, is not elementary on {n}")
            if undo and i != p:
                f = -f
            if transpose:
                i, p = p, i
            source = vectors[p]
            if source:
                target = vectors[i]
                if target is None:
                    target = vectors[i] = {}
                for j, z in source.items():  # with i == p, each entry is read, then set
                    z = target.get(j, 0) + f * z
                    if z:
                        target[j] = z
                    else:
                        target.pop(j, None)
        else:
            a, b, s, t, x, y = op
            e = s * y - t * x
            if not (0 <= a < n and 0 <= b < n and a != b and e in (1, -1)):
                raise LinalgError(f"Smith form {what} operation {k}, {op}, is not elementary on {n}")
            if undo:
                s, t, x, y = e * y, -e * t, -e * x, e * s
            if transpose:
                t, x = x, t
            va, vb = vectors[a], vectors[b]
            if va or vb:
                va, vb = va or {}, vb or {}
                vectors[a], vectors[b] = _combine(s, va, t, vb), _combine(x, va, y, vb)
    return vectors


def check_smith_form(a: IntMatrix | SparseMatrix, snf: SnfDecomposition) -> None:
    """Certificate for a Smith form U A V = D: D is a nonnegative divisor
    chain, U and V are unimodular and U A = D V^(-1). Raises LinalgError
    naming the shapes when they do not fit A, or the operation or entry at
    fault.

    The record is replayed, with no determinant and no product with U or
    V: every operation must be elementary, so the row operations make a
    unimodular U_0 and the column operations a unimodular V_0, with U = P
    U_0 and V = V_0 Q for the permutations P and Q its row and column
    orders give. The row operations replayed on A's rows give U_0 A, and
    the column operations undone on the identity's columns, last first,
    give V_0^(-1); U_0 A must equal M V_0^(-1), where M = P^T D Q^T is the
    loop's final matrix, d_k at its k-th pivot: row p of M V_0^(-1) is d_k
    times row q of V_0^(-1) at the pivot (p, q), and 0 off the pivots.
    Then U A V = P M Q = D, so |det A| = prod d_i and coker A = + Z_{d_i}.
    U_0 A and V_0^(-1) are kept on snf as its certified products, against
    which u_rows_at and v_cols_at check every row of U and column of V
    they return.
    """
    a = _sparse(a)
    m, n = a.rows, a.cols
    diag = snf.diagonal
    u_ops, row_order, v_ops, col_order = snf.record
    u_count, v_count = len(row_order), len(col_order)
    if (u_count, snf.rows, snf.cols, len(diag), v_count) != (m, m, n, min(m, n), n):
        raise LinalgError(
            f"Smith form shapes do not fit A ({m}x{n}): U is {u_count}x{u_count}, "
            f"D is {snf.rows}x{snf.cols} with {len(diag)} diagonal entries, "
            f"V is {v_count}x{v_count}"
        )
    _check_chain(diag)
    for what, order, size in (("row", row_order, m), ("column", col_order, n)):
        if sorted(order) != list(range(size)):
            raise LinalgError(f"Smith form {what} order is not a permutation of 0..{size - 1}")
    ua = _apply([dict(r) for r in a.row_maps], u_ops, "row")
    w = _apply([{j: 1} for j in range(n)], v_ops, "column", undo=True)
    w_rows = [{} for _ in range(n)]
    for j, col in enumerate(w):
        for q, y in col.items():
            w_rows[q][j] = y
    for i, p in enumerate(row_order):
        x = diag[i] if i < len(diag) else 0
        want = w_rows[col_order[i]] if x else {}
        if x > 1:
            want = {j: x * y for j, y in want.items()}
        row = ua[p]
        if row != want:
            j = min(j for j in row.keys() | want.keys() if row.get(j) != want.get(j))
            raise LinalgError(
                f"Smith form certificate fails at ({i}, {j}): U A has {row.get(j, 0)}, "
                f"D V^(-1) has {want.get(j, 0)}"
            )
    snf.certified = (a.row_maps, ua, w)


def _check_chain(diag) -> None:
    for i, x in enumerate(diag):
        nxt = diag[i + 1] if i + 1 < len(diag) else 0
        if x < 0 or (nxt % x if x else nxt):
            raise LinalgError(f"Smith form diagonal entry {i} = {x} does not start a divisor chain")
