"""Independent answers the suite checks the library against.

None of this is product code. Each oracle reaches a quantity that the
library derives from its one Smith form per (diagram, base arc) by
another route: Gauss-Jordan over the rationals, dense Bareiss
elimination, block matrices, the left kernel of C'(D), gcds of minors, the
dense smallest-pivot Smith form, the sparse Smith form's pivots found by
scanning every live row, faces traced around a PD code, a PD reader
that steps one character at a time, or plain enumeration: every
assignment of colors, every arc pair compared on every column, every
column subset tried in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from gkh.codec import PdCode, PdSyntaxError
from gkh.coloring import ColoringError, ZeroDeterminantError, crossing_matrix
from gkh.linalg import (
    IntMatrix,
    LinalgError,
    SnfDecomposition,
    _add_scaled,
    _column_index,
    _combine,
    _xgcd,
    check_smith_form,
    smith_normal_form,
)
from gkh.pseudo import PseudoError
from gkh.verify import VerifyError


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def snf_from_dense(u: IntMatrix, d: IntMatrix, v: IntMatrix) -> SnfDecomposition:
    """The decomposition with dense factors; raises LinalgError when D has
    a nonzero entry off the diagonal."""
    off = [(i, j) for i in range(d.rows) for j in range(d.cols) if i != j and d.at(i, j)]
    if off:
        raise LinalgError(f"Smith form D has a nonzero entry off the diagonal at {off[0]}")
    return SnfDecomposition(
        d.rows,
        d.cols,
        tuple({j: x for j, x in enumerate(u.row(i)) if x} for i in range(u.rows)),
        tuple(d.at(i, i) for i in range(min(d.rows, d.cols))),
        tuple({i: x for i, x in enumerate(v.col(k)) if x} for k in range(v.cols)),
    )


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


def dense_smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith form by the dense loop alone: at every step the smallest
    nonzero entry of the trailing block is the pivot, its row and column
    are reduced, and a row that the pivot does not divide is added to it.
    Its U and V are another valid choice than the library's."""
    rows, cols = a.rows, a.cols
    d = a.row_list()
    u = identity(rows).row_list()
    v = identity(cols).row_list()

    def add_row(i, j, q):
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        for r in d + v:
            r[i] += q * r[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d + v:
            r[i], r[j] = r[j], r[i]

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
        t += 1
    res = snf_from_dense(
        IntMatrix(rows, rows, tuple(x for r in u for x in r)),
        IntMatrix(rows, cols, tuple(x for r in d for x in r)),
        IntMatrix(cols, cols, tuple(x for r in v for x in r)),
    )
    check_smith_form(a, res)
    return res


def full_scan_smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """The library's sparse Smith form loop as it was before its pivot keys
    were cached: every pass scans every entry of every live row for the
    least key (|x|, Markowitz cost, row, col), and U, D and V are written
    out densely at the end. The library must pick the same pivots, so its
    U, D and V must equal these exactly."""
    rows, cols = a.rows, a.cols
    d_rows = [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(rows)]
    in_col = _column_index(d_rows, cols)
    u_rows = [{i: 1} for i in range(rows)]
    v_cols = [{j: 1} for j in range(cols)]
    live = list(range(rows))
    pivots = []
    while True:
        best = None
        for i in live:
            row_cost = len(d_rows[i]) - 1
            for j, x in d_rows[i].items():
                x = abs(x)
                if best is None or x <= best[0]:
                    key = (x, row_cost * (len(in_col[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            if best is not None and best[:2] == (1, 0):
                break  # a unit of cost 0: no later row can beat it
        if best is None:
            break
        _, _, p, q = best
        pivot_row, pivot_u = d_rows[p], u_rows[p]
        x = pivot_row[q]
        for i in in_col[q] - {p}:
            f = -((2 * d_rows[i][q] + x) // (2 * x))
            _add_scaled(d_rows[i], f, pivot_row, in_col, i)
            _add_scaled(u_rows[i], f, pivot_u)
        if len(in_col[q]) > 1:
            continue
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
        if len(pivot_row) > 1:
            continue
        if x < 0:
            pivot_row[q] = -x
            u_rows[p] = {j: -y for j, y in pivot_u.items()}
        live.remove(p)
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

    pivot_cols = {q for _, q in pivots}
    row_order = [p for p, _ in pivots] + live
    col_order = [q for _, q in pivots] + [j for j in range(cols) if j not in pivot_cols]
    v = [0] * (cols * cols)
    for k, j in enumerate(col_order):
        for i, x in v_cols[j].items():
            v[i * cols + k] = x
    res = snf_from_dense(
        IntMatrix(rows, rows, tuple(u_rows[i].get(j, 0) for i in row_order for j in range(rows))),
        IntMatrix(rows, cols, tuple(d_rows[i].get(j, 0) for i in row_order for j in col_order)),
        IntMatrix(cols, cols, tuple(v)),
    )
    check_smith_form(a, res)
    return res


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
            if any(transposed.mul_vector(vector)):
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
        if open_ch not in "([":
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
