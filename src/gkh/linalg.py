"""Exact integer linear algebra: determinants and certified Smith normal forms.

Everything here works over Z, with no floats or rationals. The library
derives C^(-1), the coloring group and the coloring counts from the one
Smith form; the independent inverses the tests compare against live in
the test suite.

A reduced crossing matrix has at most three nonzeros a row, and all but a
few of its pivots can be units. The Smith form is one sparse loop over
rows and columns kept as dicts: it pivots on the smallest entry, +-1
first and the least Markowitz cost first among equals (Markowitz 1957),
with each row's least key cached and recomputed only where an entry or a
column count changed, takes Euclid steps where no unit is left, and puts
the few non-unit pivots into a divisor chain by gcd/lcm steps at the end.
U and V stay sparse from start to finish: the decomposition keeps U's rows
and V's columns as dicts, check_smith_form multiplies them as dicts, and
the dense matrices are built only for the callers that ask for them. The
determinant is computed apart from the Smith form, so that each certifies
the other: sparse elimination on the same dict rows modulo primes just
below 2^78, fewest-rows column first, joined by the Chinese remainder
theorem until the product of the primes passes twice the Hadamard bound,
which makes it exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod


class LinalgError(Exception):
    pass


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

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

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

    def mul_vector(self, v) -> tuple[int, ...]:
        v = tuple(v)
        if len(v) != self.cols:
            raise LinalgError(f"vector length {len(v)} != {self.cols}")
        return tuple([sum(x * y for x, y in zip(self.row(i), v)) for i in range(self.rows)])

    def without_row_col(self, i: int, j: int) -> IntMatrix:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        out = []
        for r in range(self.rows):
            if r != i:
                row = self.row(r)
                out += row[:j]
                out += row[j + 1 :]
        return IntMatrix(self.rows - 1, self.cols - 1, tuple(out))

    def __str__(self) -> str:
        if not self.entries:
            return f"<empty {self.rows}x{self.cols}>"
        width = max(len(str(x)) for x in self.entries)
        return "\n".join(
            " ".join(str(x).rjust(width) for x in self.row(i)) for i in range(self.rows)
        )


def determinant(a: IntMatrix) -> int:
    """Exact determinant by sparse elimination modulo primes, joined by CRT.

    By Hadamard's inequality |det A| is at most the product of the row
    norms, so once the primes' product M satisfies M^2 > 4 prod |row|^2,
    det A is the residue mod M taken in (-M/2, M/2): the result is exact,
    not probabilistic (Abbott, Bronstein & Mulders 1999). A zero row makes
    the bound 0 and the answer 0 before any prime is used.
    """
    if not a.is_square:
        raise LinalgError("determinant needs a square matrix")
    rows = [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(a.rows)]
    bound = 4 * prod(sum(x * x for x in r.values()) for r in rows)
    residue, modulus, k = 0, 1, 0
    while modulus * modulus <= bound:
        p = _prime(k)
        residue += modulus * ((_det_mod(rows, p) - residue) * pow(modulus, -1, p) % p)
        modulus *= p
        k += 1
    return residue - modulus if 2 * residue > modulus else residue


# psi_12, about 2^78.07: the least strong pseudoprime to all twelve prime
# bases up to 37, so below it those bases decide primality
_PSI_12 = 318665857834031151167461
# the prime search counts down from here; one such prime passes the
# Hadamard bound of a 50-crossing matrix, where two primes below 2^61 do not
_PRIME_CEILING = 1 << 78

# primes below _PRIME_CEILING, largest first, found on demand by _prime
_PRIMES: list[int] = []


def _prime(k: int) -> int:
    """The k-th prime below _PRIME_CEILING, counting down (k = 0 the largest)."""
    while len(_PRIMES) <= k:
        p = _PRIMES[-1] - 2 if _PRIMES else _PRIME_CEILING - 1
        while not _is_prime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[k]


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the twelve prime bases up to 37, deterministic for
    odd n > 37 below _PSI_12 (Sorenson & Webster, Math. Comp. 86, 2017)."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _det_mod(rows: list[dict], p: int) -> int:
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


def _column_index(rows: list[dict], cols: int) -> list[set]:
    """in_col[j]: the set of rows holding a nonzero in column j."""
    in_col = [set() for _ in range(cols)]
    for i, r in enumerate(rows):
        for j in r:
            in_col[j].add(i)
    return in_col


@dataclass(frozen=True)
class SnfDecomposition:
    """U A V = D for a rows x cols matrix A, U and V unimodular, D =
    diag(diagonal) with d_1 | d_2 | ..., kept as the sparse loop leaves it.

    u_rows[i] is row i of U and v_cols[k] is column k of V, each a dict
    {index: value}. The dense u, d and v are built on first use and kept.
    """

    rows: int
    cols: int
    u_rows: tuple[dict, ...]
    diagonal: tuple[int, ...]
    v_cols: tuple[dict, ...]

    @classmethod
    def from_dense(cls, u: IntMatrix, d: IntMatrix, v: IntMatrix) -> SnfDecomposition:
        """The decomposition with dense factors; raises LinalgError when D
        has a nonzero entry off the diagonal."""
        off = [(i, j) for i in range(d.rows) for j in range(d.cols) if i != j and d.at(i, j)]
        if off:
            raise LinalgError(f"Smith form D has a nonzero entry off the diagonal at {off[0]}")
        return cls(
            d.rows,
            d.cols,
            tuple({j: x for j, x in enumerate(u.row(i)) if x} for i in range(u.rows)),
            tuple(d.at(i, i) for i in range(min(d.rows, d.cols))),
            tuple({i: x for i, x in enumerate(v.col(k)) if x} for k in range(v.cols)),
        )

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


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms, nonnegative diagonal, zeros trailing.

    One sparse loop. Each pass pivots on the live entry x of least key
    (|x|, Markowitz cost (row nonzeros - 1) * (column nonzeros - 1), row,
    col), so the +-1 entries come first, the cheapest first. Each row's
    least key is cached; after a pass only the rows whose entries changed
    and the rows of the columns whose count changed are keyed again, so the
    pivot is the least cached key, the same one a scan of every live entry
    would find. Row operations on D and U reduce the pivot column by the
    nearest multiples of x; once the column is clear, column operations on
    V reduce the pivot row, which touches only row p of D. A remainder
    either step leaves is at most |x| / 2, below every live entry, so the
    next pass pivots on it (Euclid) and the loop ends. A pivot alone in its
    row and column retires, its sign folded into U. The units then lead the
    diagonal, and one sweep makes the other pivots a divisor chain: a pair
    (a, b) with a not dividing b becomes (g, ab / g), where g = gcd(a, b) =
    s a + t b, by the rows (s, t), (-b / g, a / g) on U and the columns
    v_a + v_b, -(t b / g) v_a + (s a / g) v_b on V, both of determinant 1.
    U's rows and V's columns go into the result as the dicts they are.
    """
    rows, cols = a.rows, a.cols
    d_rows = [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(rows)]
    in_col = _column_index(d_rows, cols)
    u_rows = [{i: 1} for i in range(rows)]
    v_cols = [{j: 1} for j in range(cols)]
    keys = {}  # live row -> its least (|x|, cost, row, col)
    _key_rows(keys, range(rows), d_rows, in_col)
    pivots = []
    while keys:
        _, _, p, q = min(keys.values())
        pivot_row, pivot_u = d_rows[p], u_rows[p]
        x = pivot_row[q]
        counts = [(j, len(in_col[j])) for j in pivot_row]
        changed = in_col[q] - {p}
        for i in changed:
            f = -((2 * d_rows[i][q] + x) // (2 * x))  # nearest quotient
            _add_scaled(d_rows[i], f, pivot_row, in_col, i)
            _add_scaled(u_rows[i], f, pivot_u)
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
                u_rows[p] = {j: -y for j, y in pivot_u.items()}
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
                ua, ub = u_rows[pa], u_rows[pb]
                u_rows[pa] = _combine(s, ua, t, ub)
                u_rows[pb] = _combine(-(y // g), ua, x // g, ub)
                va, vb = v_cols[qa], v_cols[qb]
                v_cols[qa] = _combine(1, va, 1, vb)
                v_cols[qb] = _combine(-t * (y // g), va, s * (x // g), vb)
    pivots = units + chain

    pivot_rows = {p for p, _ in pivots}
    pivot_cols = {q for _, q in pivots}
    row_order = [p for p, _ in pivots] + [i for i in range(rows) if i not in pivot_rows]
    col_order = [q for _, q in pivots] + [j for j in range(cols) if j not in pivot_cols]
    res = SnfDecomposition(
        rows,
        cols,
        tuple([u_rows[i] for i in row_order]),
        tuple([d_rows[p][q] for p, q in pivots]) + (0,) * (min(rows, cols) - len(pivots)),
        tuple([v_cols[j] for j in col_order]),
    )
    check_smith_form(a, res)
    return res


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


def check_smith_form(a: IntMatrix, snf: SnfDecomposition) -> None:
    """Certificate for a Smith form: D is a nonnegative divisor chain and
    U (A V) == D, computed exactly on U's rows and V's columns as dicts.

    A multiplies first: on a crossing matrix A V stays about as sparse as
    A, so the product with U costs about one sparse row per nonzero of U.
    Raises LinalgError naming the shapes when they do not fit A, or the
    first entry (i, j), in row-major order, that disagrees.
    """
    m, n = a.rows, a.cols
    u_rows, diag, v_cols = snf.u_rows, snf.diagonal, snf.v_cols
    if (len(u_rows), snf.rows, snf.cols, len(diag), len(v_cols)) != (m, m, n, min(m, n), n):
        raise LinalgError(
            f"Smith form shapes do not fit A ({m}x{n}): U is {len(u_rows)}x{len(u_rows)}, "
            f"D is {snf.rows}x{snf.cols} with {len(diag)} diagonal entries, "
            f"V is {len(v_cols)}x{len(v_cols)}"
        )
    for what, vectors, size in (("row {} of U", u_rows, m), ("column {} of V", v_cols, n)):
        for k, vector in enumerate(vectors):
            if vector and not (0 <= min(vector) and max(vector) < size):
                raise LinalgError(f"Smith form {what.format(k)} has an index outside 0..{size - 1}")
    for i, x in enumerate(diag):
        nxt = diag[i + 1] if i + 1 < len(diag) else 0
        if x < 0 or (nxt % x if x else nxt):
            raise LinalgError(f"Smith form diagonal entry {i} = {x} does not start a divisor chain")
    v_rows = [{} for _ in range(n)]
    for k, col in enumerate(v_cols):
        for j, y in col.items():
            v_rows[j][k] = y
    av_rows = []
    for t in range(m):
        acc = {}
        for j, x in enumerate(a.row(t)):
            if x:
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
