"""Exact integer linear algebra: determinants and certified Smith normal forms.

Everything here works over Z, with no floats or rationals. The library
derives C^(-1), the coloring group and the coloring counts from the one
Smith form; the independent inverses the tests compare against live in
the test suite.

A crossing matrix has at most three nonzeros a row, so the library keeps
it as a SparseMatrix, one {col: value} dict per row, from the diagram to
the certificate; the dense IntMatrix is for what is printed and for the
products the tests and the benchmark take. determinant, smith_normal_form
and the certificates read either form as sparse rows. The Smith form is
one sparse loop over rows and columns kept as dicts: it pivots on the
smallest entry, +-1 first and the least Markowitz cost first among equals
(Markowitz 1957), with each row's least key cached and recomputed only
where an entry or a column count changed, takes Euclid steps where no
unit is left, and puts the few non-unit pivots into a divisor chain by
gcd/lcm steps at the end. V's columns stay dicts from start to finish;
U is kept as the record of the loop's row operations, from which one row
or one column of U is replayed alone and all its rows only on demand.
The reader certifies the result: check_smith_form multiplies U (A V) on
the dicts, and check_cokernel, given |det A|, reads only the non-unit
rows of U and columns of V and proves that they present coker A. The
determinant is computed apart from the Smith form, so that each
certifies the other: sparse elimination on the same dict rows modulo
Proth primes from a checked-in table, each proven on first use, fewest-rows
column first, joined by the Chinese remainder theorem until the primes'
product passes twice the Hadamard bound, which makes it exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod


class LinalgError(Exception):
    pass


class DeterminantBoundError(LinalgError):
    """The determinant's Hadamard bound is past what the prime table reaches."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        for i, row in enumerate(self.row_maps):
            if not all(0 <= j < self.cols and x for j, x in row.items()):
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
    _PROTH's, smallest first; a bound past them all raises
    DeterminantBoundError. A zero row makes the bound 0 and the answer 0
    before any prime is used.
    """
    if not a.is_square:
        raise LinalgError("determinant needs a square matrix")
    rows = _sparse(a).row_maps
    bound = 4 * prod(sum(x * x for x in r.values()) for r in rows)
    residue, modulus, i = 0, 1, 0
    while modulus * modulus <= bound:
        if i == len(_PROTH):
            raise DeterminantBoundError(
                f"the determinant's bound needs a modulus of {(bound.bit_length() + 1) // 2} "
                f"bits, past the {modulus.bit_length()} bits of the prime table's product"
            )
        p = _prime(i)
        residue += modulus * ((_det_mod(rows, p) - residue) * pow(modulus, -1, p) % p)
        modulus *= p
        i += 1
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
_PRIMES: list[int] = []  # the entries of _PROTH proven so far, by _prime


def _prime(i: int) -> int:
    """Entry i of _PROTH, proven on first use by Proth's theorem (1878): N = k 2^m + 1,
    k odd and k < 2^m, is prime if a^((N-1)/2) = -1 mod N for some a. A prime gives
    +-1 for every a (Euler), so the first small prime a not giving 1 must give -1."""
    while len(_PRIMES) <= i:
        k, m = _PROTH[len(_PRIMES)]
        n = (k << m) + 1
        x = next((x for a in (3, 5, 7, 11, 13, 17, 19, 23) if (x := pow(a, n >> 1, n)) != 1), 1)
        if not (k % 2 and k < 1 << m and x == n - 1):
            raise LinalgError(f"Proth entry {len(_PRIMES)} (k = {k}, m = {m}) is not proven prime")
        _PRIMES.append(n)
    return _PRIMES[i]


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

    v_cols[k] is column k of V and u_rows[i] row i of U, each a dict
    {index: value}. smith_normal_form passes no rows of U but the record of
    its row operations on A, and the order its rows end in: u_rows is
    replayed from the record on first use, while u_row(i) and u_column(j)
    replay it alone, in one pass over the record each. Two decompositions
    are equal when their values are, however U is kept. The dense u, d and
    v are built on first use and kept.
    """

    def __init__(self, rows, cols, u_rows, diagonal, v_cols, record=None):
        self.rows, self.cols, self.diagonal, self.v_cols = rows, cols, diagonal, v_cols
        self.record = record  # (row operations, final row order) when u_rows is None
        self._rows_read = {}  # i -> row i of U, replayed alone
        if u_rows is not None:
            self.u_rows = u_rows

    def __eq__(self, other):
        if not isinstance(other, SnfDecomposition):
            return NotImplemented
        values = (self.rows, self.cols, self.u_rows, self.diagonal, self.v_cols)
        return values == (other.rows, other.cols, other.u_rows, other.diagonal, other.v_cols)

    @cached_property
    def u_rows(self) -> tuple[dict, ...]:
        """U's rows: the identity's, with the recorded operations applied in order."""
        ops, order = self.record
        rows = [{i: 1} for i in range(self.rows)]
        for op in ops:
            if len(op) == 3:
                i, f, p = op
                _add_scaled(rows[i], f, rows[p])  # with i == p, each entry is read, then set
            else:
                a, b, s, t, x, y = op
                ra, rb = rows[a], rows[b]
                rows[a], rows[b] = _combine(s, ra, t, rb), _combine(x, ra, y, rb)
        return tuple([rows[i] for i in order])

    def u_row(self, i: int) -> dict:
        """Row i of U, e_i^T U; without u_rows, e_i^T E_m ... E_1 read as
        (E_1^T ... E_m^T e_i)^T: the transposed operations, last first."""
        if "u_rows" in self.__dict__ or self.record is None:
            return self.u_rows[i]
        if i not in self._rows_read:
            ops, order = self.record
            self._rows_read[i] = _replay({order[i]: 1}, reversed(ops), transpose=True)
        return self._rows_read[i]

    def u_column(self, j: int) -> dict:
        """Column j of U, U e_j, as {row: value}; without u_rows, the
        recorded operations applied to e_j in order."""
        if "u_rows" in self.__dict__ or self.record is None:
            return {i: r[j] for i, r in enumerate(self.u_rows) if j in r}
        ops, order = self.record
        col = _replay({j: 1}, ops)
        position = {r: k for k, r in enumerate(order)}
        return {position[r]: x for r, x in col.items()}

    @cached_property
    def u(self) -> IntMatrix:
        n = len(self.u_rows)
        return IntMatrix(n, n, tuple(r.get(j, 0) for r in self.u_rows for j in range(n)))

    @cached_property
    def d(self) -> IntMatrix:
        rows, cols, diag = self.rows, self.cols, self.diagonal
        entries = (diag[i] if i == j else 0 for i in range(rows) for j in range(cols))
        return IntMatrix(rows, cols, tuple(entries))

    @cached_property
    def v(self) -> IntMatrix:
        n = len(self.v_cols)
        return IntMatrix(n, n, tuple(c.get(i, 0) for i in range(n) for c in self.v_cols))


def smith_normal_form(a: IntMatrix | SparseMatrix) -> SnfDecomposition:
    """Smith normal form with transforms, nonnegative diagonal, zeros trailing.

    One sparse loop. Each pass pivots on the live entry x of least key
    (|x|, Markowitz cost (row nonzeros - 1) * (column nonzeros - 1), row,
    col), so the +-1 entries come first, the cheapest first. Each row's
    least key is cached; after a pass only the rows whose entries changed
    and the rows of the columns whose count changed are keyed again, so the
    pivot is the least cached key, the same one a scan of every live entry
    would find. Row operations on D reduce the pivot column by the nearest
    multiples of x; once the column is clear, column operations on V
    reduce the pivot row, which touches only row p of D. A remainder either
    step leaves is at most |x| / 2, below every live entry, so the next
    pass pivots on it (Euclid) and the loop ends. A pivot alone in its row
    and column retires, its sign flipped by a row operation. The units then
    lead the diagonal, and one sweep makes the other pivots a divisor
    chain: a pair (a, b) with a not dividing b becomes (g, ab / g), where g
    = gcd(a, b) = s a + t b, by the rows (s, t), (-b / g, a / g) and the
    columns v_a + v_b, -(t b / g) v_a + (s a / g) v_b on V, both of
    determinant 1. V's columns go into the result as the dicts they are;
    U is not accumulated but recorded, one entry per row operation: (i, f,
    p) adds f times row p to row i (a sign flip is (p, -2, p)), and (a, b,
    s, t, x, y) puts s a + t b in row a and x a + y b in row b.

    The result is not certified here: the caller checks it, by
    check_smith_form, or by check_cokernel where |det A| is known.
    """
    a = _sparse(a)
    rows, cols = a.rows, a.cols
    d_rows = [dict(r) for r in a.row_maps]
    in_col = _column_index(d_rows, cols)
    ops = []  # U's row operations, in order
    v_cols = [{j: 1} for j in range(cols)]
    keys = {}  # live row -> its least (|x|, cost, row, col)
    _key_rows(keys, range(rows), d_rows, in_col)
    pivots = []
    while keys:
        _, _, p, q = min(keys.values())
        pivot_row = d_rows[p]
        x = pivot_row[q]
        counts = [(j, len(in_col[j])) for j in pivot_row]
        changed = in_col[q] - {p}
        for i in changed:
            f = -((2 * d_rows[i][q] + x) // (2 * x))  # nearest quotient
            _add_scaled(d_rows[i], f, pivot_row, in_col, i)
            ops.append((i, f, p))
        changed.add(p)
        if len(in_col[q]) == 1:
            for j, y in list(pivot_row.items()):
                if j != q:
                    f = -((2 * y + x) // (2 * x))
                    _add_scaled(v_cols[j], f, v_cols[q])
                    y += f * x
                    if y:
                        pivot_row[j] = y
                    else:
                        del pivot_row[j]
                        in_col[j].discard(p)
        for j, k in counts:  # only the pivot row's columns can change count
            if len(in_col[j]) != k:
                changed |= in_col[j]
        _key_rows(keys, changed, d_rows, in_col)
        if len(pivot_row) == 1 and len(in_col[q]) == 1:
            if x < 0:
                pivot_row[q] = -x
                ops.append((p, -2, p))
            del keys[p]
            pivots.append((p, q))

    units = [(p, q) for p, q in pivots if d_rows[p][q] == 1]
    chain = [(p, q) for p, q in pivots if d_rows[p][q] != 1]
    for k, (pa, qa) in enumerate(chain):
        for pb, qb in chain[k + 1 :]:
            x, y = d_rows[pa][qa], d_rows[pb][qb]
            if y % x:
                g, s, t = _xgcd(x, y)
                d_rows[pa][qa], d_rows[pb][qb] = g, x // g * y
                ops.append((pa, pb, s, t, -(y // g), x // g))
                va, vb = v_cols[qa], v_cols[qb]
                v_cols[qa] = _combine(1, va, 1, vb)
                v_cols[qb] = _combine(-t * (y // g), va, s * (x // g), vb)
    pivots = units + chain

    pivot_rows = {p for p, _ in pivots}
    pivot_cols = {q for _, q in pivots}
    row_order = [p for p, _ in pivots] + [i for i in range(rows) if i not in pivot_rows]
    col_order = [q for _, q in pivots] + [j for j in range(cols) if j not in pivot_cols]
    return SnfDecomposition(
        rows,
        cols,
        None,
        tuple([d_rows[p][q] for p, q in pivots]) + (0,) * (min(rows, cols) - len(pivots)),
        tuple([v_cols[j] for j in col_order]),
        (ops, row_order),
    )


def _replay(vector: dict, ops, transpose: bool = False) -> dict:
    """ops applied in order to a column vector {index: value}, zeros
    dropped: (i, f, p) adds f vector[p] to vector[i], and (a, b, s, t, x,
    y) maps (vector[a], vector[b]) to (s va + t vb, x va + y vb). With
    transpose, each operation's transpose: (i, f, p) adds f vector[i] to
    vector[p], and t and x trade places."""
    get = vector.get
    for op in ops:
        if len(op) == 3:
            i, f, p = op
            if transpose:
                i, p = p, i
            z = get(p)
            if z:
                z = get(i, 0) + f * z
                if z:
                    vector[i] = z
                else:
                    del vector[i]
        else:
            a, b, s, t, x, y = op
            if transpose:
                t, x = x, t
            va, vb = get(a, 0), get(b, 0)
            if va or vb:
                for k, z in ((a, s * va + t * vb), (b, x * va + y * vb)):
                    if z:
                        vector[k] = z
                    else:
                        vector.pop(k, None)
    return vector


def _key_rows(keys: dict, changed, d_rows: list[dict], in_col: list[set]) -> None:
    """keys[i] = the least (|x|, Markowitz cost, i, j) of row i, for i in
    changed; a row with no entries left drops out."""
    for i in changed:
        row = d_rows[i]
        if row:
            cost = len(row) - 1
            keys[i] = min((abs(x), cost * (len(in_col[j]) - 1), i, j) for j, x in row.items())
        else:
            keys.pop(i, None)


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


def check_smith_form(a: IntMatrix | SparseMatrix, snf: SnfDecomposition) -> None:
    """Certificate for a Smith form: D is a nonnegative divisor chain and
    U (A V) == D, computed exactly on U's rows and V's columns as dicts.

    A multiplies first: on a crossing matrix A V stays about as sparse as
    A, so the product with U costs about one sparse row per nonzero of U.
    Raises LinalgError naming the shapes when they do not fit A, or the
    first entry (i, j), in row-major order, that disagrees. U (A V) = D
    alone does not make U and V unimodular (2U A V = 2D passes);
    check_cokernel, with |det A|, does.
    """
    a = _sparse(a)
    m, n = a.rows, a.cols
    u_rows, diag, v_cols = snf.u_rows, snf.diagonal, snf.v_cols
    if (len(u_rows), snf.rows, snf.cols, len(diag), len(v_cols)) != (m, m, n, min(m, n), n):
        raise LinalgError(
            f"Smith form shapes do not fit A ({m}x{n}): U is {len(u_rows)}x{len(u_rows)}, "
            f"D is {snf.rows}x{snf.cols} with {len(diag)} diagonal entries, "
            f"V is {len(v_cols)}x{len(v_cols)}"
        )
    _check_indices("row {} of U", enumerate(u_rows), m)
    _check_indices("column {} of V", enumerate(v_cols), n)
    _check_chain(diag)
    v_rows = [{} for _ in range(n)]
    for k, col in enumerate(v_cols):
        for j, y in col.items():
            v_rows[j][k] = y
    av_rows = []
    for row in a.row_maps:
        acc = {}
        for j, x in row.items():
            _add_scaled(acc, x, v_rows[j])
        av_rows.append(acc)
    for i, u_row in enumerate(u_rows):
        acc = [0] * n
        for t, x in u_row.items():
            for k, y in av_rows[t].items():
                acc[k] += x * y
        if i < len(diag):
            acc[i] -= diag[i]
        if any(acc):
            j = next(j for j, z in enumerate(acc) if z)
            want = diag[i] if i == j else 0
            raise LinalgError(
                f"Smith form certificate fails at ({i}, {j}): U A V has {acc[j] + want}, "
                f"D has {want}"
            )


def check_cokernel(a: IntMatrix | SparseMatrix, snf: SnfDecomposition, det: int) -> None:
    """Certificate for a Smith form of a square A with |det A| = det != 0,
    read off its non-unit factors alone. With d_i > 1, u_i row i of U and
    v_i column i of V, it requires:

    - D a divisor chain with prod d_i = det;
    - u_i A = 0 mod d_i;
    - A v_i = d_i y_i with y_i integral, and u_k y_i = [k == i] mod d_k.

    The second makes x -> (u_i x mod d_i) well defined on coker A, the
    third makes it onto + Z_{d_i} (y_i goes to e_i), and both groups have
    det elements, so it is an isomorphism. That certifies the group, the
    class (u_i[j] mod d_i) of every e_j, and that sum_i (u_i[j] mod d_i)
    (n / d_i) v_i = n A^(-1) e_j mod n for every common multiple n of the
    d_i. It costs two sparse products per non-unit factor and s^2 dot
    products, where check_smith_form multiplies all of U, so it is the
    cheaper check while s is small. Raises LinalgError naming the row of U
    or the column of V at fault.
    """
    a = _sparse(a)
    n, diag = a.rows, snf.diagonal
    u_count = snf.rows if snf.record else len(snf.u_rows)
    if not a.is_square or (u_count, snf.rows, snf.cols, len(diag), len(snf.v_cols)) != (n,) * 5:
        raise LinalgError(
            f"Smith form shapes do not fit A ({a.rows}x{a.cols}): U is {u_count}x{u_count}, "
            f"D is {snf.rows}x{snf.cols} with {len(diag)} diagonal entries, "
            f"V is {len(snf.v_cols)}x{len(snf.v_cols)}"
        )
    if det == 0:
        raise LinalgError("the cokernel certificate needs a nonzero determinant")
    _check_chain(diag)
    if prod(diag) != det:
        raise LinalgError(
            f"Smith form diagonal product {prod(diag)} != determinant {det}: "
            f"the transforms are not unimodular"
        )
    factors = [(i, x, snf.u_row(i), snf.v_cols[i]) for i, x in enumerate(diag) if x > 1]
    _check_indices("row {} of U", [(i, u) for i, _, u, _ in factors], n)
    _check_indices("column {} of V", [(i, v) for i, _, _, v in factors], n)
    images = []
    for i, x, u_row, v_col in factors:
        acc = {}
        for t, y in u_row.items():
            for j, z in a.row_maps[t].items():
                acc[j] = acc.get(j, 0) + y * z
        bad = min((j for j, z in acc.items() if z % x), default=None)
        if bad is not None:
            raise LinalgError(f"row {i} of U times A is not 0 mod {x} at column {bad}")
        image = [sum([y * v_col.get(j, 0) for j, y in row.items()]) for row in a.row_maps]
        bad = next((t for t, z in enumerate(image) if z % x), None)
        if bad is not None:
            raise LinalgError(f"A times column {i} of V is not divisible by {x} at row {bad}")
        images.append((i, [z // x for z in image]))
    for k, x, u_row, _ in factors:
        for i, y in images:
            r = sum([z * y[t] for t, z in u_row.items()]) % x
            if r != (k == i):
                raise LinalgError(
                    f"row {k} of U takes A times column {i} of V over {diag[i]} to {r} "
                    f"mod {x}, not {int(k == i)}"
                )


def _check_indices(what: str, vectors, size: int) -> None:
    for k, vector in vectors:
        if vector and not (0 <= min(vector) and max(vector) < size):
            raise LinalgError(f"Smith form {what.format(k)} has an index outside 0..{size - 1}")


def _check_chain(diag) -> None:
    for i, x in enumerate(diag):
        nxt = diag[i + 1] if i + 1 < len(diag) else 0
        if x < 0 or (nxt % x if x else nxt):
            raise LinalgError(f"Smith form diagonal entry {i} = {x} does not start a divisor chain")
