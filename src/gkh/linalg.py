"""Exact integer linear algebra: determinants and certified Smith normal forms.

Everything here works over Z, with no floats or rationals. The library
derives C^(-1), the coloring group and the coloring counts from the one
Smith form; the independent inverses the tests compare against live in
the test suite.
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
        """Product as row combinations; zero entries of self cost nothing,
        so a crossing matrix (three nonzeros a row) multiplies in O(n^2)."""
        if self.cols != other.rows:
            raise LinalgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = [other.row(k) for k in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [0] * other.cols
            for x, r in zip(self.row(i), rows):
                if x:
                    acc = [s + x * y for s, y in zip(acc, r)]
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
        out = tuple(
            self.at(r, c)
            for r in range(self.rows)
            if r != i
            for c in range(self.cols)
            if c != j
        )
        return IntMatrix(self.rows - 1, self.cols - 1, out)

    def __str__(self) -> str:
        if not self.entries:
            return f"<empty {self.rows}x{self.cols}>"
        width = max(len(str(x)) for x in self.entries)
        return "\n".join(
            " ".join(str(x).rjust(width) for x in self.row(i)) for i in range(self.rows)
        )


def determinant(a: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees prev divides this
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
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
    """Smith normal form with transforms, nonnegative diagonal, zeros trailing."""
    rows, cols = a.rows, a.cols
    d = a.row_list()
    u = IntMatrix.identity(rows).row_list()
    v = IntMatrix.identity(cols).row_list()

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

    t = 0
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

    res = SnfDecomposition(IntMatrix.from_rows(u), IntMatrix.from_rows(d), IntMatrix.from_rows(v))
    check_smith_form(a, res)
    return res


def check_smith_form(a: IntMatrix, snf: SnfDecomposition) -> None:
    """Certificate for a Smith form: D is a nonnegative diagonal divisor
    chain and U (A V) == D, computed exactly.

    A multiplies first, so a sparse A costs one dense product in all.
    Raises LinalgError naming the first entry that disagrees.
    """
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
