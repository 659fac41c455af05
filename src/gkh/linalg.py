"""Exact integer linear algebra: determinants and certified Smith normal forms.

Everything here works over Z, with no floats or rationals. The library
derives C^(-1), the coloring group and the coloring counts from the one
Smith form; the independent inverses the tests compare against live in
the test suite.

A reduced crossing matrix has at most three nonzeros a row, and all but a
few of its pivots can be units. The Smith form therefore first pivots on
+-1 entries of sparse rows, the least Markowitz cost first (Markowitz
1957), and runs the dense smallest-pivot loop only on the block that is
left: at most 9x9 on the fixtures and benchmark inputs. U and V stay
sparse, which keeps the products that use them cheap. Every Smith form
is certified by check_smith_form. The determinant stays on Bareiss
elimination, independent of the Smith form, so that each certifies the
other.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        return cls(n, m, tuple(x for r in rows for x in r))

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
        """Product as row combinations. Zero entries of self cost nothing,
        and a sparse row of other is added entry by entry, so a crossing
        matrix or a sparse Smith transform multiplies in far under n^3 steps."""
        if self.cols != other.rows:
            raise LinalgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = []
        for k in range(other.rows):
            r = other.row(k)
            nonzero = [(j, y) for j, y in enumerate(r) if y]
            rows.append((r, nonzero if 3 * len(nonzero) < other.cols else None))
        out = []
        for i in range(self.rows):
            acc = [0] * other.cols
            for x, (r, nonzero) in zip(self.row(i), rows):
                if not x:
                    continue
                if nonzero is None:
                    acc = [s + x * y for s, y in zip(acc, r)]
                else:
                    for j, y in nonzero:
                        acc[j] += x * y
            out.extend(acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, v) -> tuple[int, ...]:
        v = tuple(v)
        if len(v) != self.cols:
            raise LinalgError(f"vector length {len(v)} != {self.cols}")
        return tuple(sum(x * y for x, y in zip(self.row(i), v)) for i in range(self.rows))

    def mod(self, k: int) -> IntMatrix:
        if k < 1:
            raise LinalgError("modulus must be >= 1")
        return IntMatrix(self.rows, self.cols, tuple(x % k for x in self.entries))

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
    """Exact determinant via Bareiss fraction-free elimination.

    Each row is updated in one pass over its trailing entries; a row with
    0 in the pivot column is only rescaled by pivot / prev, or left alone
    when the two are equal.
    """
    if not a.is_square:
        raise LinalgError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.row_list()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k][k + 1 :]
        pivot = m[k][k]
        for i in range(k + 1, n):
            row = m[i]
            x = row[k]
            # exact division: Bareiss guarantees prev divides every entry
            if x:
                row[k + 1 :] = [(y * pivot - x * z) // prev for y, z in zip(row[k + 1 :], pivot_row)]
            elif pivot != prev:
                row[k + 1 :] = [y * pivot // prev for y in row[k + 1 :]]
        prev = pivot
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SnfDecomposition:
    """Unimodular u, v with u @ a @ v == d, d diagonal with d_1 | d_2 | ..."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.at(i, i) for i in range(min(self.d.rows, self.d.cols)))


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with transforms, nonnegative diagonal, zeros trailing.

    Phase 1 pivots on +-1 entries of sparse rows, the least Markowitz cost
    (row nonzeros - 1) * (column nonzeros - 1) first, ties to the smallest
    (row, col). Row operations touch only the rows with a nonzero in the
    pivot column; the pivot row is then cleared by column operations on V
    alone, since the pivot column of D is already zero off the pivot. A -1
    pivot is negated in U, and a unit needs no divisibility fix-up. Phase 2
    moves the unit pivots onto the leading diagonal and runs the dense
    loop (smallest pivot, reduce, divisibility fix-up) on what is left.
    """
    rows, cols = a.rows, a.cols
    d_rows = [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(rows)]
    in_col = [set() for _ in range(cols)]
    for i, r in enumerate(d_rows):
        for j in r:
            in_col[j].add(i)
    u_rows = [{i: 1} for i in range(rows)]
    v_cols = [{j: 1} for j in range(cols)]
    live = list(range(rows))
    pivots = []
    while True:
        best = None
        for i in live:
            row_cost = len(d_rows[i]) - 1
            for j, x in d_rows[i].items():
                if x == 1 or x == -1:
                    key = (row_cost * (len(in_col[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            if best is not None and best[0] == 0:
                break  # no later row can beat a zero cost
        if best is None:
            break
        _, p, q = best
        if d_rows[p][q] < 0:
            d_rows[p] = {j: -x for j, x in d_rows[p].items()}
            u_rows[p] = {j: -x for j, x in u_rows[p].items()}
        pivot_row, pivot_u = d_rows[p], u_rows[p]
        for i in in_col[q] - {p}:
            f = -d_rows[i][q]
            _add_scaled(d_rows[i], f, pivot_row, in_col, i)
            _add_scaled(u_rows[i], f, pivot_u)
        for j, x in pivot_row.items():
            if j != q:
                _add_scaled(v_cols[j], -x, v_cols[q])
                in_col[j].discard(p)
        d_rows[p] = {q: 1}
        live.remove(p)
        pivots.append((p, q))

    k = len(pivots)
    pivot_cols = {q for _, q in pivots}
    row_order = [p for p, _ in pivots] + live
    col_order = [q for _, q in pivots] + [j for j in range(cols) if j not in pivot_cols]
    d = [[d_rows[i].get(j, 0) for j in col_order] for i in row_order]
    u = [[u_rows[i].get(j, 0) for j in range(rows)] for i in row_order]
    v = [[0] * cols for _ in range(cols)]
    for t, j in enumerate(col_order):
        for i, x in v_cols[j].items():
            v[i][t] = x

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col_i += q * col_j
        for r in d:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def smallest_nonzero(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = k
    while t < min(rows, cols):
        pos = smallest_nonzero(t)
        if pos is None:
            break
        if pos[0] != t:
            swap_rows(t, pos[0])
        if pos[1] != t:
            swap_cols(t, pos[1])
        while True:
            for i in range(t + 1, rows):
                q = d[i][t] // d[t][t]
                if q:
                    add_row(i, t, -q)
            left = [i for i in range(t + 1, rows) if d[i][t] != 0]
            if left:
                # remainder beats the pivot; promote it and redo
                swap_rows(t, min(left, key=lambda i: abs(d[i][t])))
                continue
            for j in range(t + 1, cols):
                q = d[t][j] // d[t][t]
                if q:
                    add_col(j, t, -q)
            left = [j for j in range(t + 1, cols) if d[t][j] != 0]
            if left:
                swap_cols(t, min(left, key=lambda j: abs(d[t][j])))
                continue
            break
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # pull the bad row up so the next pass shrinks the pivot
            add_row(t, offender, 1)
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1

    res = SnfDecomposition(
        IntMatrix(rows, rows, tuple(x for r in u for x in r)),
        IntMatrix(rows, cols, tuple(x for r in d for x in r)),
        IntMatrix(cols, cols, tuple(x for r in v for x in r)),
    )
    check_smith_form(a, res)
    return res


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


def check_smith_form(a: IntMatrix, snf: SnfDecomposition) -> None:
    """Certificate for a Smith form: D is a nonnegative diagonal divisor
    chain and U (A V) == D, computed exactly.

    A multiplies first: on a crossing matrix A V stays about as sparse as
    A, so the product with U costs about one sparse row per nonzero of U.
    Raises LinalgError naming the shapes when they do not fit A, or the
    first entry that disagrees.
    """
    shapes = [(m.rows, m.cols) for m in (snf.u, snf.d, snf.v)]
    if shapes != [(a.rows, a.rows), (a.rows, a.cols), (a.cols, a.cols)]:
        (ur, uc), (dr, dc), (vr, vc) = shapes
        raise LinalgError(
            f"Smith form shapes do not fit A ({a.rows}x{a.cols}): "
            f"U is {ur}x{uc}, D is {dr}x{dc}, V is {vr}x{vc}"
        )
    diag = snf.diagonal
    for i, x in enumerate(diag):
        nxt = diag[i + 1] if i + 1 < len(diag) else 0
        if x < 0 or (nxt % x if x else nxt):
            raise LinalgError(f"Smith form diagonal entry {i} = {x} does not start a divisor chain")
    if sum(map(abs, snf.d.entries)) != sum(diag):
        raise LinalgError("Smith form D has a nonzero entry off the diagonal")
    product = snf.u @ (a @ snf.v)
    if product != snf.d:
        k = next(k for k, (x, y) in enumerate(zip(product.entries, snf.d.entries)) if x != y)
        i, j = divmod(k, product.cols)
        raise LinalgError(
            f"Smith form certificate fails at ({i}, {j}): U A V has {product.entries[k]}, "
            f"D has {snf.d.entries[k]}"
        )
