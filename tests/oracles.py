"""Independent answers the suite checks the library against.

None of this is product code. Each oracle reaches a quantity that the
library derives from its one Smith form per (diagram, base arc) by
another route: Gauss-Jordan over the rationals, block matrices, the left
kernel of C'(D), or plain enumeration: every arc pair compared on every
column, every column subset tried in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from gkh.coloring import crossing_matrix
from gkh.linalg import IntMatrix, LinalgError, smith_normal_form
from gkh.pseudo import PseudoError
from gkh.verify import VerifyError


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


def brute_force_coloring_count(d, k: int, limit: int = 1 << 24) -> int:
    """Count Fox k-colorings by checking every assignment, no linear algebra.

    Deliberately dumb so it can stand as an oracle against the Smith-form
    count; the assignment space k**arcs is capped by limit.
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
    count = 0
    for colors in product(range(k), repeat=arcs):
        if all((2 * colors[b] - colors[a] - colors[c]) % k == 0 for b, a, c in triples):
            count += 1
    return count


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
