"""Independent answers the suite checks the library against.

None of this is product code. Each oracle reaches a quantity that the
library derives from its one Smith form per (diagram, base arc) by
another route: Gauss-Jordan over the rationals, dense Bareiss
elimination, block matrices, the left kernel of C'(D), gcds of minors, the
dense smallest-pivot Smith form, the sparse Smith form's pivots found by
scanning every row's key, the sparse Smith form under the Markowitz pivot
rule it had before, the rows of U and columns of V read off the record
on sparse vectors held by position, faces traced around a PD code, a PD
reader that steps one character at a time, or plain enumeration: every
assignment of colors, every arc pair compared on every column, every
column subset tried in order, a diagram's canonical form and its arcs
read through dicts keyed by edge label. It also keeps the few helpers
that only the tests call: a matrix-vector product, a Fox-coloring check
that validates its input, and the coloring count from the Smith form of
C'.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

from gkh.codec import PdCode, PdSyntaxError
from gkh.coloring import (
    ColoringError,
    ZeroDeterminantError,
    _coloring_box,
    _fox_violation,
    _require_modulus,
    crossing_matrix,
)
from gkh.diagram import Arc, Crossing, Diagram, DiagramError
from gkh.linalg import (
    IntMatrix,
    LinalgError,
    SnfDecomposition,
    SparseMatrix,
    _add_scaled,
    _apply,
    _column_index,
    _combine,
    _xgcd,
    smith_normal_form,
)
from gkh.pseudo import PseudoError
from gkh.verify import VerifyError


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def mul_vector(a: IntMatrix, v) -> tuple[int, ...]:
    """a times the column vector v."""
    v = tuple(v)
    if len(v) != a.cols:
        raise LinalgError(f"vector length {len(v)} != {a.cols}")
    return tuple([sum(x * y for x, y in zip(a.row(i), v)) for i in range(a.rows)])


def is_fox_coloring(d, colors, k: int) -> bool:
    """Check the coloring relation at every crossing, colors indexed by arc."""
    colors = tuple(colors)
    if len(colors) != len(d.arcs):
        raise ColoringError(f"{len(colors)} colors for {len(d.arcs)} arcs")
    _require_modulus(k)
    return _fox_violation(d, colors, k) is None


def count_colorings(d, k: int) -> int:
    """Number of Fox k-colorings, constant colorings included: the product
    of the sides of the Smith-form box of C'(D)."""
    return prod(_coloring_box(d, k)[1])


def check_dense_smith_form(a: IntMatrix, u: IntMatrix, d: IntMatrix, v: IntMatrix) -> None:
    """Certificate for explicit factors, by products and determinants
    alone: U A V = D, D diagonal with a nonnegative divisor chain on it,
    and |det U| = |det V| = 1 by Bareiss. Raises LinalgError naming what
    fails."""
    if u @ a @ v != d:
        raise LinalgError("U A V != D")
    off = [(i, j) for i in range(d.rows) for j in range(d.cols) if i != j and d.at(i, j)]
    if off:
        raise LinalgError(f"D has a nonzero entry off the diagonal at {off[0]}")
    diag = [d.at(i, i) for i in range(min(d.rows, d.cols))]
    for i, (x, y) in enumerate(zip(diag, diag[1:] + [0])):
        if x < 0 or (y % x if x else y):
            raise LinalgError(f"diagonal entry {i} = {x} does not start a divisor chain")
    for name, m in (("U", u), ("V", v)):
        if abs(bareiss_determinant(m)) != 1:
            raise LinalgError(f"{name} is not unimodular")


def without_row_col(a: IntMatrix, i: int, j: int) -> IntMatrix:
    """a with row i and column j deleted."""
    if not (0 <= i < a.rows and 0 <= j < a.cols):
        raise IndexError(f"({i}, {j}) out of range for {a.rows}x{a.cols}")
    out = []
    for r in range(a.rows):
        if r != i:
            row = a.row(r)
            out += row[:j]
            out += row[j + 1 :]
    return IntMatrix(a.rows - 1, a.cols - 1, tuple(out))


def dense_crossing_matrix(d) -> IntMatrix:
    """C'(D) entry by entry from each crossing's edges: 2 at the arc of the
    over edge, -1 at the arc of each under edge, added where arcs meet."""
    arcs = len(d.arcs)
    entries = [0] * (len(d.crossings) * arcs)
    for i, c in enumerate(d.crossings):
        for edge, x in ((c.over_in, 2), (c.under_in, -1), (c.under_out, -1)):
            entries[i * arcs + d.arc_of(edge)] += x
    return IntMatrix(len(d.crossings), arcs, tuple(entries))


def reduced_crossing_matrix(c_prime: IntMatrix, base: int | None = None) -> IntMatrix:
    """C(D) from the dense C'(D): the base row and column deleted, base
    the last arc by default."""
    if not c_prime.is_square:
        raise ZeroDeterminantError("the crossing matrix is not square")
    if base is None:
        base = c_prime.rows - 1
    if not 0 <= base < c_prime.rows:
        raise ColoringError(f"base arc {base} out of range for {c_prime.rows} arcs")
    return without_row_col(c_prime, base, base)


class SingularMatrixError(LinalgError):
    pass


class NonIntegralEntryError(LinalgError):
    """A scaled inverse was requested but some entry is not an integer."""

    def __init__(self, row: int, col: int, value: Fraction):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"entry ({row}, {col}) = {value} is not integral")


def rational_inverse(a: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse over Q via Gauss-Jordan elimination."""
    if not a.is_square:
        raise LinalgError("inverse needs a square matrix")
    n = a.rows
    m = [[Fraction(x) for x in a.row(i)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return tuple(tuple(r[n:]) for r in m)


def scaled_inverse(a: IntMatrix, m: int) -> IntMatrix:
    """Return m * a^(-1) as an integer matrix, or report the offending entry."""
    inv = rational_inverse(a)
    out = []
    for i, r in enumerate(inv):
        for j, x in enumerate(r):
            y = m * x
            if y.denominator != 1:
                raise NonIntegralEntryError(i, j, y)
            out.append(int(y))
    return IntMatrix(a.rows, a.cols, tuple(out))


def laplace_determinant(rows) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * x * laplace_determinant(minor)
    return total


def bareiss_determinant(a: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination, dense.

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


def pd_euler_characteristic(quads) -> tuple[int, int]:
    """(V - E + F, connected pieces) of the surface a PD code's rotations span.

    Each X(a, b, c, d) lists its edges counterclockwise, so a face is
    traced by following an edge to its other end and turning one slot
    on. A code drawn in the plane gives 2 per connected piece.
    """
    ends = {}
    for k, quad in enumerate(quads):
        for i, e in enumerate(quad):
            ends.setdefault(e, []).append((k, i))
    other = {}
    for a, b in ends.values():
        other[a], other[b] = b, a
    seen = set()
    faces = 0
    for start in other:
        if start in seen:
            continue
        faces += 1
        slot = start
        while slot not in seen:
            seen.add(slot)
            k, i = other[slot]
            slot = (k, (i + 1) % 4)
    piece = list(range(len(quads)))

    def root(k):
        while piece[k] != k:
            k = piece[k]
        return k

    for (k, _), (m, _) in ends.values():
        piece[root(k)] = root(m)
    pieces = len({root(k) for k in range(len(quads))})
    return len(quads) - len(ends) + faces, pieces


def determinantal_divisors(a: IntMatrix) -> tuple[int, ...]:
    """The Smith diagonal from its definition: d_1 ... d_k is the gcd g_k
    of the k x k minors, so d_k = g_k / g_(k-1), and 0 once g_k is 0."""
    out = []
    previous = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in combinations(range(a.rows), k):
            for cols in combinations(range(a.cols), k):
                g = gcd(g, laplace_determinant([[a.at(i, j) for j in cols] for i in rows]))
        out.append(g // previous if previous else 0)
        previous = g
    return tuple(out)


def dense_smith_factors(a: IntMatrix) -> tuple[SnfDecomposition, IntMatrix, IntMatrix]:
    """Smith form by the dense loop alone: at every step the smallest
    nonzero entry of the trailing block is the pivot, its row and column
    are reduced, and a row that the pivot does not divide is added to it.
    Its U and V are another valid choice than the library's.

    Each step is recorded in the library's format, a swap as the 2x2 step
    (a, b, 0, 1, 1, 0) of determinant -1, which the library's own loop
    never takes; the decomposition is that record, uncertified, returned
    with the U and V accumulated alongside."""
    rows, cols = a.rows, a.cols
    d = a.row_list()
    u = identity(rows).row_list()
    v = identity(cols).row_list()
    u_ops, v_ops = [], []

    def add_row(i, j, q):
        if q:
            d[i] = [x + q * y for x, y in zip(d[i], d[j])]
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            u_ops.append((i, q, j))

    def add_col(i, j, q):
        if q:
            for r in d + v:
                r[i] += q * r[j]
            v_ops.append((i, q, j))

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]
            u_ops.append((i, j, 0, 1, 1, 0))

    def swap_cols(i, j):
        if i != j:
            for r in d + v:
                r[i], r[j] = r[j], r[i]
            v_ops.append((i, j, 0, 1, 1, 0))

    t = 0
    while t < min(rows, cols):
        block = [(abs(d[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]]
        if not block:
            break
        _, i, j = min(block)
        swap_rows(t, i)
        swap_cols(t, j)
        while True:
            for i in range(t + 1, rows):
                add_row(i, t, -(d[i][t] // d[t][t]))
            left = [i for i in range(t + 1, rows) if d[i][t]]
            if left:
                swap_rows(t, min(left, key=lambda i: abs(d[i][t])))
                continue
            for j in range(t + 1, cols):
                add_col(j, t, -(d[t][j] // d[t][t]))
            left = [j for j in range(t + 1, cols) if d[t][j]]
            if left:
                swap_cols(t, min(left, key=lambda j: abs(d[t][j])))
                continue
            break
        offender = next(
            (i for i in range(t + 1, rows) for j in range(t + 1, cols) if d[i][j] % d[t][t]),
            None,
        )
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
            u_ops.append((t, -2, t))
        t += 1
    snf = SnfDecomposition(
        rows,
        cols,
        tuple(d[i][i] for i in range(min(rows, cols))),
        (u_ops, list(range(rows)), v_ops, list(range(cols))),
    )
    return snf, IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def dense_smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """The dense loop's recorded decomposition, uncertified, in place of
    the library's smith_normal_form."""
    return dense_smith_factors(a)[0]


def full_scan_smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The library's sparse Smith form loop with its keys kept in a plain
    dict: each row's key (least |x|, entries, fewest entries among the
    columns of its least entries, row) is made at the start and again when
    a pass changes the row, and every pass finds the least one by a scan of
    them all, with no heap, then pivots in that row at the least entry of
    the fewest-entry column, lowest first. No pivot takes a shortcut for
    +-1. U, D and V, accumulated as it goes, are written out densely at the
    end, uncertified. The library must pick the same pivots, so its U, D
    and V must equal these exactly."""
    rows, cols = a.rows, a.cols
    d_rows = [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(rows)]
    in_col = _column_index(d_rows, cols)
    u_rows = [{i: 1} for i in range(rows)]
    v_cols = [{j: 1} for j in range(cols)]
    keys = {}

    def key_rows(changed):
        for i in changed:
            row = d_rows[i]
            if row:
                m = min(abs(x) for x in row.values())
                c = min(len(in_col[j]) for j, x in row.items() if abs(x) == m)
                keys[i] = (m, len(row), c, i)
            else:
                keys.pop(i, None)

    key_rows(range(rows))
    pivots = []
    while keys:
        m, _, _, p = min(keys.values())
        pivot_row, pivot_u = d_rows[p], u_rows[p]
        q = min((len(in_col[j]), j) for j, x in pivot_row.items() if abs(x) == m)[1]
        x = pivot_row[q]
        changed = in_col[q] - {p}
        for i in changed:
            f = -((2 * d_rows[i][q] + x) // (2 * x))
            _add_scaled(d_rows[i], f, pivot_row, in_col, i)
            _add_scaled(u_rows[i], f, pivot_u)
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
        if len(pivot_row) == 1 and len(in_col[q]) == 1:
            if x < 0:
                pivot_row[q] = -x
                u_rows[p] = {j: -y for j, y in pivot_u.items()}
            del keys[p]
            pivots.append((p, q))
        else:
            changed.add(p)
        key_rows(changed)

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
    v = [0] * (cols * cols)
    for k, j in enumerate(col_order):
        for i, x in v_cols[j].items():
            v[i * cols + k] = x
    return (
        IntMatrix(rows, rows, tuple(u_rows[i].get(j, 0) for i in row_order for j in range(rows))),
        IntMatrix(rows, cols, tuple(d_rows[i].get(j, 0) for i in row_order for j in col_order)),
        IntMatrix(cols, cols, tuple(v)),
    )


def markowitz_smith_normal_form(a: IntMatrix | SparseMatrix) -> SnfDecomposition:
    """The library's sparse Smith form loop with the pivot rule it had
    before its keys were made row-local, recorded in the library's format,
    uncertified: each pass pivots on the live entry of least (|x|,
    Markowitz cost (row entries - 1) * (column entries - 1), row, col),
    kept as each row's least key on a heap, and after each pass also
    re-keys the rows that saw one of their columns change count. Its U and
    V are another valid choice than the library's; the diagonal and all
    that does not depend on that choice must come out the same."""
    from heapq import heappop, heappush

    rows, cols = a.rows, a.cols
    d_rows = [dict(r) for r in (a if isinstance(a, SparseMatrix) else a.sparse()).row_maps]
    in_col = _column_index(d_rows, cols)
    u_ops, v_ops = [], []
    keys = {}  # live row -> its least (|x|, cost, row, col), the very tuple on the heap
    heap = []

    def key_rows(changed):
        for i in changed:
            row = d_rows[i]
            if not row:
                keys.pop(i, None)
                continue
            cost = len(row) - 1
            key = min((abs(y), cost * (len(in_col[j]) - 1), i, j) for j, y in row.items())
            if key != keys.get(i):
                keys[i] = key
                heappush(heap, key)

    key_rows(range(rows))
    pivots = []
    while keys:
        key = heap[0]
        while keys.get(key[2]) is not key:  # stale: its row was keyed again or left
            heappop(heap)
            key = heap[0]
        _, _, p, q = key
        pivot_row = d_rows[p]
        x = pivot_row[q]
        counts = [(j, len(in_col[j])) for j in pivot_row]
        changed = in_col[q] - {p}
        for i in changed:
            f = -((2 * d_rows[i][q] + x) // (2 * x))
            _add_scaled(d_rows[i], f, pivot_row, in_col, i)
            u_ops.append((i, f, p))
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
        # only the pivot row's columns can change count; a row that shares
        # one whose count moved may have a new least key
        for j, k in counts:
            if len(in_col[j]) != k:
                changed |= in_col[j] - {p}
        key_rows(changed)

    units = [(p, q) for p, q in pivots if d_rows[p][q] == 1]
    chain = [(p, q) for p, q in pivots if d_rows[p][q] != 1]
    for k, (pa, qa) in enumerate(chain):
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
    return SnfDecomposition(
        rows,
        cols,
        tuple([d_rows[p][q] for p, q in pivots]) + (0,) * (min(rows, cols) - len(pivots)),
        (
            u_ops,
            [p for p, _ in pivots] + [i for i in range(rows) if i not in pivot_rows],
            v_ops,
            [q for _, q in pivots] + [j for j in range(cols) if j not in pivot_cols],
        ),
    )


def backward_read(snf: SnfDecomposition, side: int, indices) -> list[dict]:
    """Rows of U (side 0) or columns of V (side 2) of snf at indices, as
    {index: value}, read as the library read them before its dense lists:
    all of them in one pass, held by position, at[j] being {vector: value},
    index k placed once at position order[k] and the record's operations
    replayed on them transposed, last first, by linalg._apply. Nothing is
    checked against a certificate."""
    indices = list(indices)
    new = list(dict.fromkeys(indices))
    vectors = [{} for _ in new]
    if new:
        ops, order = snf.record[side : side + 2]
        at = [None] * len(order)
        for t, k in enumerate(new):
            at[order[k]] = {t: 1}
        _apply(at, ops, "column" if side else "row", transpose=True)
        for j, entries in enumerate(at):
            for t, z in (entries or {}).items():
                vectors[t][j] = z
    read = dict(zip(new, vectors))
    return [read[k] for k in indices]


def reduced_mod(a: IntMatrix, k: int) -> IntMatrix:
    """Every entry of a reduced into [0, k)."""
    return IntMatrix(a.rows, a.cols, tuple(x % k for x in a.entries))


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix(
        a.cols, a.rows, tuple(a.at(i, j) for j in range(a.cols) for i in range(a.rows))
    )


def permuted(a: IntMatrix, row_perm, col_perm) -> IntMatrix:
    """Relabel: entry (i, j) moves to (row_perm[i], col_perm[j])."""
    row_perm = tuple(row_perm)
    col_perm = tuple(col_perm)
    if sorted(row_perm) != list(range(a.rows)) or sorted(col_perm) != list(range(a.cols)):
        raise LinalgError("not a permutation")
    out = [0] * (a.rows * a.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            out[row_perm[i] * a.cols + col_perm[j]] = a.at(i, j)
    return IntMatrix(a.rows, a.cols, tuple(out))


def block_diag(blocks) -> IntMatrix:
    """Direct sum of matrices."""
    blocks = list(blocks)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] = b.at(i, j)
        r0 += b.rows
        c0 += b.cols
    return IntMatrix(rows, cols, tuple(x for r in out for x in r))


@dataclass(frozen=True)
class RowRelation:
    """Primitive integer vector r with r . rows of C'(D) = 0."""

    coefficients: tuple[int, ...]


def _normalized(vector: tuple[int, ...]) -> tuple[int, ...]:
    content = 0
    for x in vector:
        content = gcd(content, x)
    if content > 1:
        vector = tuple(x // content for x in vector)
    lead = next((x for x in vector if x), 0)
    if lead < 0:
        vector = tuple(-x for x in vector)
    return vector


def row_relation_basis(d) -> tuple[RowRelation, ...]:
    """A lattice basis for the left kernel of C'(D), each vector normalized."""
    transposed = transpose(crossing_matrix(d))
    snf = smith_normal_form(transposed)
    diag = snf.diagonal
    out = []
    for i in range(transposed.cols):
        if i >= len(diag) or diag[i] == 0:
            vector = snf.v.col(i)
            if any(mul_vector(transposed, vector)):
                raise PseudoError(
                    f"column {i} of V is not a relation among the crossing matrix rows"
                )
            out.append(RowRelation(_normalized(tuple(vector))))
    return tuple(out)


def row_relation(d) -> RowRelation:
    """The relation among the rows of C'(D), when it is unique up to scale."""
    basis = row_relation_basis(d)
    if len(basis) != 1:
        raise PseudoError(
            f"left kernel of the crossing matrix has rank {len(basis)}, not 1"
        )
    return basis[0]


def brute_force_colorings(d, k: int, limit: int = 1 << 24) -> list[tuple[int, ...]]:
    """Every Fox k-coloring, found by checking every assignment in
    lexicographic order, no linear algebra.

    Deliberately dumb so it can stand as an oracle against the Smith-form
    count and listing; the assignment space k**arcs is capped by limit.
    """
    arcs = len(d.arcs)
    if k < 1:
        raise VerifyError("modulus must be >= 1")
    if k ** arcs > limit:
        raise VerifyError(f"{k}**{arcs} assignments exceed the limit {limit}")
    triples = [
        (d.arc_of(c.over_in), d.arc_of(c.under_in), d.arc_of(c.under_out))
        for c in d.crossings
    ]
    return [
        colors
        for colors in product(range(k), repeat=arcs)
        if all((2 * colors[b] - colors[a] - colors[c]) % k == 0 for b, a, c in triples)
    ]


def brute_force_coloring_count(d, k: int, limit: int = 1 << 24) -> int:
    return len(brute_force_colorings(d, k, limit))


def pair_separators(rows):
    """Compare every arc pair on every column of the rows of L mod n1.

    Returns the separators (i, j, least separating column or None) in
    combinations order, the column masks with bit p set when the column
    separates pair p, and the columns that give every arc its own color.
    """
    arcs = len(rows)
    width = len(rows[0]) if rows else 0
    separators = []
    masks = [0] * width
    for p, (i, j) in enumerate(combinations(range(arcs), 2)):
        least = None
        for col in range(width):
            if rows[i][col] != rows[j][col]:
                if least is None:
                    least = col
                masks[col] |= 1 << p
        separators.append((i, j, least))
    perfect = tuple(
        col for col in range(width) if len({r[col] for r in rows}) == arcs
    )
    return tuple(separators), masks, perfect


def minimum_cover(masks, pair_count):
    """Smallest column set covering all pairs: every subset, by size, in order."""
    full = (1 << pair_count) - 1
    if full == 0:
        return 0, ()
    for size in range(1, len(masks) + 1):
        for combo in combinations(range(len(masks)), size):
            acc = 0
            for c in combo:
                acc |= masks[c]
            if acc == full:
                return size, combo
    return None, ()


class _Scanner:
    """One character at a time over PD text, whitespace skipped before every token."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise PdSyntaxError(f"expected {ch!r}, found {found!r}", self.pos)
        self.pos += 1

    def accept(self, ch: str) -> bool:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        match = re.compile(r"[0-9]+").match(self.text, self.pos)
        if match is None:
            raise PdSyntaxError("expected an edge label", self.pos)
        self.pos = match.end()
        try:
            return int(match.group())
        except ValueError:  # longer than the interpreter's int-string limit
            raise PdSyntaxError("edge label too long", match.start()) from None


def scanner_parse_pd(text: str) -> PdCode:
    """parse_pd by the character scanner: the same language, errors and
    positions as the library's one-match-per-crossing reader."""
    sc = _Scanner(text)
    wrapped = False
    sc.skip_ws()
    if sc.text[sc.pos : sc.pos + 2].upper() == "PD":
        sc.pos += 2
        sc.expect("[")
        wrapped = True
    quads = []
    while True:
        sc.skip_ws()
        if sc.text[sc.pos : sc.pos + 1].upper() != "X":
            raise PdSyntaxError("expected a crossing 'X'", sc.pos)
        sc.pos += 1
        open_ch = sc.peek()
        if open_ch not in ("(", "["):
            raise PdSyntaxError("expected '(' or '[' after 'X'", sc.pos)
        sc.pos += 1
        close_ch = ")" if open_ch == "(" else "]"
        quad = []
        for i in range(4):
            if i:
                sc.expect(",")
            quad.append(sc.integer())
        sc.expect(close_ch)
        quads.append(tuple(quad))
        sc.accept(",")
        nxt = sc.peek()
        if nxt == "" or (wrapped and nxt == "]"):
            break
    if wrapped:
        sc.expect("]")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise PdSyntaxError("trailing input", sc.pos)
    return PdCode(tuple(quads))


# The canonical form through dicts keyed by edge label: the reference for
# gkh.diagram's label-indexed tables and strand walk.


def orient(passages) -> list[int]:
    """Assign a direction to every passage (x, y, dir or None) by a
    breadth-first search from the fixed ones.

    Direction 0 means the strand enters at x and leaves at y, 1 the
    reverse. Each edge id must occur exactly twice over all passages and
    must enter one passage and leave the other; fixed directions propagate
    and remaining free components are seeded deterministically.
    """
    occ: dict[object, list[tuple[int, int]]] = {}
    for p, (x, y, _) in enumerate(passages):
        occ.setdefault(x, []).append((p, 0))
        occ.setdefault(y, []).append((p, 1))
    for e, uses in occ.items():
        if len(uses) != 2:
            raise DiagramError(f"edge {e!r} is used {len(uses)} times, expected 2")
    dirs: list[int | None] = [d for (_, _, d) in passages]
    queue = deque(p for p, d in enumerate(dirs) if d is not None)
    while True:
        if not queue:
            seed = next((p for p, d in enumerate(dirs) if d is None), None)
            if seed is None:
                break
            dirs[seed] = 0
            queue.append(seed)
        p = queue.popleft()
        x, y, _ = passages[p]
        for slot, e in ((0, x), (1, y)):
            uses = occ[e]
            q, sq = uses[1] if uses[0] == (p, slot) else uses[0]
            # the edge enters exactly one of its two passages
            want = sq if dirs[p] != slot else 1 - sq
            if dirs[q] is None:
                dirs[q] = want
                queue.append(q)
            elif dirs[q] != want:
                raise DiagramError(f"strands do not close up at edge {e!r}")
    return dirs


def assemble(quads, junction_pairs=()) -> Diagram:
    """Canonicalize (over_in, over_out, under_in, under_out) quadruples whose
    edge ids may be anything sortable: relabeled 1..2n along the strands,
    each component starting at its smallest id, crossings renumbered by
    first visit."""
    heads: dict[object, int] = {}
    tails: dict[object, int] = {}
    cont: dict[object, object] = {}
    for i, (oi, oo, ui, uo) in enumerate(quads):
        for e in (oi, ui):
            if e in heads:
                raise DiagramError(f"edge {e!r} enters two crossings")
            heads[e] = i
        for e in (oo, uo):
            if e in tails:
                raise DiagramError(f"edge {e!r} leaves two crossings")
            tails[e] = i
        cont[oi] = oo
        cont[ui] = uo
    if set(heads) != set(tails):
        raise DiagramError("strands do not close up")
    label: dict[object, int] = {}
    number: dict[int, int] = {}
    spans = []
    nxt = 1
    for start in sorted(heads):
        if start in label:
            continue
        first = nxt
        e = start
        while True:
            label[e] = nxt
            nxt += 1
            number.setdefault(heads[e], len(number))
            e = cont[e]
            if e == start:
                break
        spans.append((first, nxt - 1))
    crossings: list[Crossing | None] = [None] * len(quads)
    for i, (oi, oo, ui, uo) in enumerate(quads):
        crossings[number[i]] = Crossing(label[oi], label[oo], label[ui], label[uo])
    pairs = tuple((label[f], label[g]) for f, g in junction_pairs)
    return Diagram(tuple(crossings), tuple(spans), pairs)


def from_pd(code: PdCode) -> Diagram:
    passages = []
    for a, b, c, d in code.crossings:
        passages.append((a, c, 0))
        passages.append((b, d, None))
    dirs = orient(passages)
    quads = [
        (b, d, a, c) if dirs[2 * i + 1] == 0 else (d, b, a, c)
        for i, (a, b, c, d) in enumerate(code.crossings)
    ]
    return assemble(quads)


def braid_closure(word) -> Diagram:
    k = word.strands
    cur = list(range(1, k + 1))
    nxt = k + 1
    quads = []
    for letter in word.letters:
        p = abs(letter)
        li, ri = cur[p - 1], cur[p]
        lo, ro = nxt, nxt + 1
        nxt += 2
        quads.append((li, ro, ri, lo) if letter > 0 else (ri, lo, li, ro))
        cur[p - 1], cur[p] = lo, ro
    repl = {cur[j]: j + 1 for j in range(k)}
    return assemble([tuple(repl.get(e, e) for e in quad) for quad in quads])


def pretzel(*twists: int) -> Diagram:
    """Points named (column, side, height), a joined pair by its smaller name."""
    k = len(twists)
    joined: dict[tuple, tuple] = {}
    for i, t in enumerate(twists):
        nx = (i + 1) % k
        for a, b in (((i, "R", 0), (nx, "L", 0)), ((i, "R", abs(t)), (nx, "L", abs(twists[nx])))):
            joined[a] = joined[b] = min(a, b)

    def point(*end):
        return joined.get(end, end)

    passages = []
    for i, t in enumerate(twists):
        for j in range(abs(t)):
            passages.append((point(i, "L", j), point(i, "R", j + 1), None))
            passages.append((point(i, "R", j), point(i, "L", j + 1), None))
    dirs = orient(passages)
    ends = [(x, y) if d == 0 else (y, x) for (x, y, _), d in zip(passages, dirs)]
    quads = []
    for i, t in enumerate(t for t in twists for _ in range(abs(t))):
        left, right = ends[2 * i], ends[2 * i + 1]
        over, under = (left, right) if t > 0 else (right, left)
        quads.append((*over, *under))
    return assemble(quads)


def connected_sum(d1: Diagram, d2: Diagram) -> Diagram:
    """The splice of gkh.diagram.connected_sum, its arcs read by arcs()."""
    arcs1, arcs2 = arcs(d1), arcs(d2)
    join1 = {a for f, g in d1.junction_edge_pairs for a in (arc_of(arcs1, f), arc_of(arcs1, g))}
    join2 = {a for f, g in d2.junction_edge_pairs for a in (arc_of(arcs2, f), arc_of(arcs2, g))}
    e1 = next((a for a in reversed(arcs1) if a.index not in join1), arcs1[-1]).edges[-1]
    e2 = next((a for a in arcs2 if a.index not in join2), arcs2[0]).edges[-1]
    off = d1.edge_count
    f, g = off + d2.edge_count + 1, off + d2.edge_count + 2
    quads = [
        (g if c.over_in == e1 else c.over_in, f if c.over_out == e1 else c.over_out,
         g if c.under_in == e1 else c.under_in, f if c.under_out == e1 else c.under_out)
        for c in d1.crossings
    ]
    quads += [
        (f if c.over_in == e2 else c.over_in + off, g if c.over_out == e2 else c.over_out + off,
         f if c.under_in == e2 else c.under_in + off, g if c.under_out == e2 else c.under_out + off)
        for c in d2.crossings
    ]
    pairs = [p for p in d1.junction_edge_pairs if e1 not in p]
    pairs += [(a + off, b + off) for a, b in d2.junction_edge_pairs if e2 not in (a, b)]
    return assemble(quads, pairs + [(f, g)])


def strand_maps(d: Diagram):
    """succ, and the (crossing, "over" or "under") each edge enters and leaves."""
    succ, head_of, tail_of = {}, {}, {}
    for i, c in enumerate(d.crossings):
        succ[c.over_in] = c.over_out
        succ[c.under_in] = c.under_out
        head_of[c.over_in], head_of[c.under_in] = (i, "over"), (i, "under")
        tail_of[c.over_out], tail_of[c.under_out] = (i, "over"), (i, "under")
    return succ, head_of, tail_of


def is_alternating(d: Diagram) -> bool:
    _, head_of, _ = strand_maps(d)
    for start, end in d.spans:
        flags = [head_of[e][1] for e in range(start, end + 1)]
        if len(flags) == 1 or any(a == b for a, b in zip(flags, flags[1:] + flags[:1])):
            return False
    return True


def arcs(d: Diagram) -> tuple[Arc, ...]:
    """The runs between under-passages walked edge by edge; sorted by their
    over-crossing when alternating (each must have exactly one), else by
    smallest edge."""
    succ, head_of, _ = strand_maps(d)
    runs = []
    for start, end in d.spans:
        cuts = [e for e in range(start, end + 1) if head_of[e][1] == "under"]
        if not cuts:
            runs.append(tuple(range(start, end + 1)))
            continue
        for i, cut in enumerate(cuts):
            run = [succ[cuts[i - 1]]]
            while run[-1] != cut:
                run.append(succ[run[-1]])
            runs.append(tuple(run))
    over_at = {
        run: tuple(sorted(head_of[e][0] for e in run if head_of[e][1] == "over")) for run in runs
    }
    if is_alternating(d):
        runs.sort(key=over_at.get)
        if [over_at[run] for run in runs] != [(i,) for i in range(len(d.crossings))]:
            raise DiagramError("an alternating arc passes over other than one crossing")
    else:
        runs.sort(key=min)
    return tuple(Arc(i, run, over_at[run]) for i, run in enumerate(runs))


def arc_of(arc_list, e: int) -> int:
    return next(a.index for a in arc_list if e in a.edges)


def crossing_arcs(d: Diagram) -> tuple[tuple[int, int, int], ...]:
    index = {e: a.index for a in arcs(d) for e in a.edges}
    return tuple((index[c.over_in], index[c.under_in], index[c.under_out]) for c in d.crossings)


def multigraph(d: Diagram):
    """Per crossing, the (neighbour crossing, edge id) of every edge end, edge id k
    being label k + 1, listed by edge id."""
    _, head_of, tail_of = strand_maps(d)
    adj = [[] for _ in d.crossings]
    for k in range(d.edge_count):
        u, v = tail_of[k + 1][0], head_of[k + 1][0]
        adj[u].append((v, k))
        adj[v].append((u, k))
    return tuple(tuple(ends) for ends in adj)


def passages(d: Diagram):
    """Per component, the (crossing, passes under) of each edge's head."""
    _, head_of, _ = strand_maps(d)
    return tuple(
        tuple((head_of[e][0], head_of[e][1] == "under") for e in range(start, end + 1))
        for start, end in d.spans
    )
