"""Fox colorings: crossing matrices, coloring groups, distinguishing data.

A Fox k-coloring assigns an element of Z_k to every arc so that twice the
over-arc color equals the sum of the two under-arc colors at each crossing.
The crossing matrix C' encodes these relations with one row per crossing
and one column per arc; deleting a base row and column gives the reduced
matrix C whose |det| is the diagram determinant and whose cokernel is the
reduced coloring group. Both are built as sparse rows straight from the
diagram's crossing arcs, at most three nonzeros a row, and stay sparse
through the determinant, the Smith form and its certificate; only
crossing_matrix, for what is printed and for the tests, is dense.

With n1 the largest invariant factor of that group, L = n1 * C^(-1) is an
integer matrix and its columns mod n1 are Fox n1-colorings with the base
arc colored 0. The distinguishing report keeps one bitset per column it
reads, of the arc pairs that column separates, and reads the unseparated
pairs and each pair's least separator off them. ColoringAnalysis factors
C once per (diagram, base) and derives all of this from that one Smith
form, certified by replaying the record of its operations: one table of
its s non-unit factors, each row of U and column of V in it checked
against the certificate, gives the minimal set, the class of each e_j in
coker C (0 exactly for the integral columns of C^(-1)) and column j of L
mod n1, built by index when first read. Exact columns of L are built only
where asked for, all from one read of U's columns, scaled and placed by
V's column order, and one transposed replay of V's column operations on
them, which reads no column of V. Every column is checked at the crossings
before it is read: mod n1 by the Fox relation, exactly by C col = n1
e_j. The report stops reading at the first perfect column. The
certified diagonal's product is |det C|, which verify_gkh reads off it;
link_determinant computes the determinant apart, by linalg.determinant,
and never factors.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import combinations, compress, count, product
from math import gcd, prod

from ._record import record
from .diagram import Diagram
from .linalg import (
    IntMatrix,
    LinalgError,
    SnfDecomposition,
    SparseMatrix,
    _apply,
    check_smith_form,
    determinant,
    smith_normal_form,
)

# search nodes (columns placed in a slot or scanned for the last one) the
# exact minimum cover may spend: pretzel 3^15 (t = 10) needs 149 thousand,
# its mirror 294 thousand, 3^16 466 thousand and 3^18 5.6 million, the
# benchmark's pretzels at most 5 thousand; spending it all takes about 10 s
# on a 2-core Xeon (pretzel 3^20)
COVER_BUDGET = 16_000_000

# bin() digits to the bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")


class ColoringError(Exception):
    pass


class ZeroDeterminantError(ColoringError):
    pass


class CoverBudgetError(ColoringError):
    """The exact cover search spent COVER_BUDGET nodes; t lies in [lower, upper].

    When the greedy cover is as small as the size being searched, t is
    known and only the lexicographically first witness is missing.
    """

    def __init__(self, lower: int, upper: int):
        self.lower = lower
        self.upper = upper
        if lower == upper:
            bound = f"t is exactly {lower}; only the lexicographically first witness is missing"
        else:
            bound = f"t is between {lower} and {upper}"
        super().__init__(f"minimum cover search passed {COVER_BUDGET} nodes; {bound}")


class EnumerationLimitError(ColoringError):
    """Enumeration space too large; carries the count as a fallback."""

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        super().__init__(
            f"enumeration space exceeds {limit}; the count alone is {count}"
        )


@record
class FoxColoring:
    """Arc colors in Z_modulus; modulus 1 means only the zero coloring."""

    modulus: int
    colors: tuple[int, ...]

    def __post_init__(self):
        _require_modulus(self.modulus)
        # from a list, not a generator: see IntMatrix.from_rows
        object.__setattr__(
            self, "colors", tuple([c % self.modulus for c in self.colors])
        )


@record
class ColoringGroup:
    """Reduced coloring group as invariant factors n1 >= ... >= ns >= 2."""

    invariant_factors: tuple[int, ...]

    @property
    def determinant(self) -> int:
        return prod(self.invariant_factors)

    @property
    def annihilator(self) -> int:
        """The largest factor n1; 1 for the trivial group."""
        return self.invariant_factors[0] if self.invariant_factors else 1

    @property
    def s(self) -> int:
        return len(self.invariant_factors)


def crossing_matrix(d: Diagram) -> IntMatrix:
    """C'(D), dense: rows crossings, columns arcs, row 2*over - under_in - under_out."""
    return _crossing_rows(d).dense()


def _crossing_rows(d: Diagram, base: int | None = None) -> SparseMatrix:
    """C'(D) as one {arc: coefficient} dict per crossing, 2 at the over
    arc and -1 at each under arc, summed where an arc repeats (a kink or a
    loop) and zeros dropped; with a base arc, C(D): row and column base
    left out, the later columns moved one to the left.
    """
    arcs = len(d.arcs)
    if base is None:
        column = range(arcs)
    else:
        column = [*range(base), -1, *range(base, arcs - 1)]
    rows = []
    for i, (over, under_in, under_out) in enumerate(d.crossing_arcs):
        if i == base:
            continue
        if over != under_in and over != under_out and under_in != under_out:
            row = {column[over]: 2, column[under_in]: -1, column[under_out]: -1}
        else:
            row = {}
            for arc, x in ((over, 2), (under_in, -1), (under_out, -1)):
                row[column[arc]] = row.get(column[arc], 0) + x
            row = {j: x for j, x in row.items() if x}
        row.pop(-1, None)
        rows.append(row)
    return SparseMatrix(len(rows), arcs - (base is not None), tuple(rows))


def _reduced(d: Diagram, base: int | None) -> tuple[SparseMatrix, int]:
    """C(D) and the base arc it drops, by default the last arc; the row of
    the same index goes with it, which matches moving the base to the end
    and dropping the final row and column."""
    if len(d.crossings) != len(d.arcs):
        raise ZeroDeterminantError(
            "some component never passes under; the crossing matrix is not square"
        )
    base = _base_arc(d, base)
    return _crossing_rows(d, base), base


def _base_arc(d: Diagram, base: int | None) -> int:
    """The base arc: base, by default the last arc; ColoringError names a
    base that is not an arc of d."""
    arcs = len(d.arcs)
    if base is None:
        base = arcs - 1
    if not 0 <= base < arcs:
        raise ColoringError(f"base arc {base} out of range for {arcs} arcs")
    return base


def link_determinant(d: Diagram) -> int:
    """delta(D) = |det C(D)| at any base arc; 0 when the crossing matrix is
    not square."""
    try:
        return abs(determinant(_reduced(d, None)[0]))
    except ZeroDeterminantError:
        return 0


@record(omit_repr=("masks",))
class DistinguishingReport:
    """Which arc pairs the columns of L mod n1 tell apart, and how few suffice.

    masks holds one bitset per column the report read, in column order:
    bit p is set when the column colors the two arcs of pair p apart, the
    pairs (i, j), i < j, numbered in lexicographic order. Each is built
    with O(arcs) big-int operations from the arcs of each color, as the
    columns are built. A perfect column, one that gives every arc its own
    color, has every pair's bit and ends the reading: t is 1 with it as
    witness, and no later column is built. Otherwise every column gets its
    bitset, and t, the size of a smallest set of columns separating all
    pairs, with t_columns the first such set in lexicographic order, comes
    from a pruned search that raises CoverBudgetError past COVER_BUDGET
    nodes; both are None and () when some pair is never separated. The
    search first drops every column whose bitset lies inside an earlier
    column's, since swapping it for that column gives a cover no larger
    and lexicographically smaller, and fills the last slot only from the
    columns that separate the lowest uncovered pair, since a column
    completing the cover must separate it; neither changes t or the first
    witness. failures and separators are read off the masks on first use.
    ColoringAnalysis.perfect_columns lists every perfect column.
    """

    base_arc: int
    modulus: int
    arc_count: int
    masks: tuple[int, ...]
    t: int | None
    t_columns: tuple[int, ...]

    @cached_property
    def failures(self) -> tuple[tuple[int, int], ...]:
        """The arc pairs that no mask covers, in (i, j) order; the pairs
        are not enumerated when every one is covered."""
        arcs = self.arc_count
        uncovered = (1 << arcs * (arcs - 1) // 2) - 1
        for mask in self.masks:
            uncovered &= ~mask
        return tuple(compress(combinations(range(arcs), 2), _bit_flags(uncovered)))

    @cached_property
    def separators(self) -> tuple[tuple[int, int, int | None], ...]:
        """Every arc pair i < j with the least column whose mask covers it,
        or None, in (i, j) order."""
        arcs = self.arc_count
        least = [None] * (arcs * (arcs - 1) // 2)
        remaining = (1 << len(least)) - 1
        for col, mask in enumerate(self.masks):
            new = mask & remaining
            remaining ^= new
            for p in compress(count(), _bit_flags(new)):
                least[p] = col
        return tuple([(i, j, c) for (i, j), c in zip(combinations(range(arcs), 2), least)])

    @property
    def injective(self) -> bool:
        return not self.failures


class ColoringAnalysis:
    """C(D) for one base arc, as sparse rows, and its Smith form U C V = D,
    factored and certified once, on first use.

    linalg.check_smith_form certifies the factorization by replaying the
    record of its row and column operations, which makes U and V
    unimodular, so |det C| is the product of the diagonal; no row of U or
    column of V is built for it. Everything else is a lazy field derived
    from that one certified factorization: U's rows and columns and V's
    columns are read off the record, and no dense U, D or V is built.
    With D = diag(d_i): the group is the d_i > 1, and _factors, one table
    of them, gives the minimal distinguishing set, the class of each e_j
    in coker C, whether column j of C^(-1) is integral (the class is 0)
    and column j of L mod n1; the rows of U and columns of V it takes are
    replayed together, on dense lists, and checked against the
    certificate's products. Those
    columns, one Fox n1-coloring of every arc each, are built and checked
    in index order on first read and kept in one list; the report keeps
    one pair bitset per column up to the first perfect column when there
    is one, while perfect_columns, l_mod and extended_rows read every
    column.
    The columns of L = n1 * C^(-1) = V diag(n1/d_i) U that a reader asks
    for are built together by _exact_columns, from those columns of U and
    the record of V's column operations, replayed transposed on the rows
    of L[:, J] without reading a column of V, each column checked against
    C col = n1 e_j: l asks for every column, inverse_pseudos for the
    integral columns of C^(-1), each then divided by n1.
    """

    def __init__(self, d: Diagram, base: int | None = None):
        self.diagram = d
        self.c, self.base_arc = _reduced(d, base)
        self.arc_count = len(d.arcs)
        self._built_columns: list[tuple[int, ...]] = []  # L mod n1, columns 0, 1, ...
        self._zero_column = (0,) * self.arc_count  # shared by the columns with a zero class

    @cached_property
    def snf(self) -> SnfDecomposition:
        snf = smith_normal_form(self.c)
        check_smith_form(self.c, snf)
        return snf

    @cached_property
    def group(self) -> ColoringGroup:
        diag = self.snf.diagonal
        if any(x == 0 for x in diag):
            raise ZeroDeterminantError("determinant 0: the reduced coloring group is infinite")
        return ColoringGroup(tuple(sorted((x for x in diag if x > 1), reverse=True)))

    @property
    def modulus(self) -> int:
        return self.group.annihilator

    @cached_property
    def l(self) -> IntMatrix:
        n = self.c.cols
        columns = self._exact_columns(range(n))
        return IntMatrix(n, n, tuple([col[k] for k in range(n) for col in columns]))

    def _on_arcs(self, values: list[int]) -> list[int]:
        """values, given on the arcs but the base arc, with 0 put in there."""
        return [*values[: self.base_arc], 0, *values[self.base_arc :]]

    def _exact_columns(self, indices) -> list[list[int]]:
        """The columns of L at indices, exactly: L[:, J] = V_0 Q diag(n1 /
        d_i) U[:, J], with V = V_0 Q, Q placing entry i at col_order[i].

        The columns of U come from one read of the record, and (n1 / d_i)
        U[i, J] is placed at row col_order[i] of one matrix held by rows;
        the column operations, transposed and last first, make its rows
        the rows of L[:, J], and no column of V is read. An empty J
        replays nothing. Extended by 0 on the base arc, column j's crossing
        defects are C' col; without the base row they must be C col = n1
        e_j, or LinalgError names the column.
        """
        n1 = self.modulus
        indices = list(indices)
        if not indices:
            return []
        snf = self.snf
        n = self.c.cols
        _, _, v_ops, col_order = snf.record
        rows = [None] * n
        for t, u_col in enumerate(snf.u_cols_at(indices)):
            for i, u in u_col.items():
                row = rows[col_order[i]]
                if row is None:
                    row = rows[col_order[i]] = {}
                row[t] = n1 // snf.diagonal[i] * u
        _apply(rows, v_ops, "column", transpose=True)
        columns = [[0] * n for _ in indices]
        for k, row in enumerate(rows):
            for t, x in (row or {}).items():
                columns[t][k] = x
        for j, lift in zip(indices, columns):
            image = list(_crossing_defects(self.diagram, self._on_arcs(lift)))
            del image[self.base_arc]
            if any(x != n1 * (i == j) for i, x in enumerate(image)):
                raise LinalgError(f"C times column {j} of L is not {n1} e_{j}")
        return columns

    @cached_property
    def _factors(self) -> tuple[tuple[int, int, dict, list[int]], ...]:
        """(d_i, i, U[i, :], (n1 / d_i) V[:, i] mod n1 on every arc) for each
        d_i > 1, in diagonal order.

        The scaled columns are the minimal set. The class of e_j in coker C
        = + Z_{d_i} is (U[i, j] mod d_i) over these rows. A unit d_i adds
        n1 V[:, i] U[i, :] to L, 0 mod n1, and d_i (n1 / d_i) V[:, i] is 0
        mod n1, so column j of L mod n1 is the class times the scaled
        columns, reduced mod n1.
        """
        n1 = self.modulus
        snf = self.snf
        found = []
        factors = [i for i, x in enumerate(snf.diagonal) if x > 1]
        for i, u_row, v_col in zip(factors, snf.u_rows_at(factors), snf.v_cols_at(factors)):
            x = snf.diagonal[i]
            scale = n1 // x
            colors = [0] * self.c.cols
            for k, y in v_col.items():
                colors[k] = scale * y % n1
            found.append((x, i, u_row, self._on_arcs(colors)))
        return tuple(found)

    def _column(self, j: int) -> tuple[int, ...]:
        """Column j of L mod n1, one Fox n1-coloring of every arc.

        Builds, checks and keeps the columns up to j in index order on the
        first read, from the class of e_j and the scaled columns of
        _factors. Every column with a nonzero class must satisfy the Fox
        relation mod n1 at every crossing, or LinalgError names it.
        """
        built = self._built_columns
        if j < len(built):
            return built[j]
        n1 = self.modulus
        for k in range(len(built), j + 1):
            acc = None  # the class entries of e_k times the scaled columns
            for x, _, u_row, colors in self._factors:
                f = u_row.get(k, 0) % x
                if f:
                    if acc is None:
                        acc = [f * y for y in colors]
                    else:
                        acc = [z + f * y for z, y in zip(acc, colors)]
            if acc is None:
                column = self._zero_column
            else:
                column = tuple([z % n1 for z in acc])
                bad = _fox_violation(self.diagram, column, n1)
                if bad is not None:
                    raise LinalgError(
                        f"column {k} of L mod {n1} breaks the Fox relation at crossing {bad}"
                    )
            built.append(column)
        return built[j]

    @cached_property
    def l_mod(self) -> IntMatrix:
        return IntMatrix.from_rows(
            [row for k, row in enumerate(self.extended_rows()) if k != self.base_arc]
        )

    def extended_rows(self) -> tuple[tuple[int, ...], ...]:
        """One row of L mod n1 per arc, the base arc contributing zeros."""
        columns = [self._column(j) for j in range(self.c.cols)]
        return tuple(zip(*columns)) if columns else ((),) * self.arc_count

    @cached_property
    def perfect_columns(self) -> tuple[int, ...]:
        """The columns of L mod n1 that give every arc its own color; reads
        every column."""
        arcs = self.arc_count
        # entries of L mod n1 lie in [0, n1), so differing mod n1 is differing
        return tuple([j for j in range(self.c.cols) if len(set(self._column(j))) == arcs])

    @cached_property
    def report(self) -> DistinguishingReport:
        arcs = self.arc_count
        all_arcs = (1 << arcs) - 1
        # pair (i, j > i) is bit offsets[i] + j - i - 1, after the offsets[i] pairs (k < i, l)
        offsets = [i * (2 * arcs - 1 - i) // 2 for i in range(arcs)]
        pair_count = arcs * (arcs - 1) // 2
        masks = []
        remaining = (1 << pair_count) - 1
        t, t_columns = None, ()
        for col in range(self.c.cols):
            values = self._column(col)
            arcs_of = {}
            for i, v in enumerate(values):
                arcs_of[v] = arcs_of.get(v, 0) | 1 << i
            if len(arcs_of) == arcs:
                # a perfect column separates every pair, so it is a cover,
                # and no smaller set is while pairs exist; no later column is read
                masks.append((1 << pair_count) - 1)
                t, t_columns = 1, (col,)
                break
            mask = 0
            for i, v in enumerate(values):
                mask |= ((all_arcs ^ arcs_of[v]) >> (i + 1)) << offsets[i]
            masks.append(mask)
            remaining &= ~mask
        if t is None and not remaining:
            t, t_columns = _minimum_cover(masks, pair_count)
        return DistinguishingReport(
            base_arc=self.base_arc,
            modulus=self.modulus,
            arc_count=arcs,
            masks=tuple(masks),
            t=t,
            t_columns=t_columns,
        )

    @cached_property
    def minimal_set(self) -> tuple[FoxColoring, ...]:
        """One Fox n1-coloring per invariant factor n_i: (n1 / n_i) V[:, i]."""
        n1 = self.modulus
        colorings = []
        for factor, i, _, colors in sorted(self._factors, key=lambda p: -p[0]):
            bad = _fox_violation(self.diagram, colors, n1)
            if bad is not None:
                raise ColoringError(
                    f"distinguishing coloring {len(colorings)} (factor {factor}, "
                    f"column {i} of V) breaks the Fox relation mod {n1} at crossing {bad}"
                )
            colorings.append(FoxColoring(n1, tuple(colors)))
        return tuple(colorings)

    @cached_property
    def minimal_set_failures(self) -> tuple[tuple[int, int], ...]:
        """Arc pairs that every coloring of the minimal set colors alike.

        Arcs with equal color tuples form one group; the pairs inside the
        groups, in (i, j) order, are the failures.
        """
        colors = [f.colors for f in self.minimal_set]
        keys = list(zip(*colors)) if colors else [()] * self.arc_count
        groups = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        failures = []
        for i, key in enumerate(keys):
            members = groups[key]
            del members[0]  # members[0] is i; the rest are the later arcs of its group
            failures.extend((i, j) for j in members)
        return tuple(failures)

    # PseudoColoring is pseudo's, which imports this module: the annotation
    # names it but is never evaluated
    @cached_property
    def inverse_pseudos(self) -> tuple[PseudoColoring, ...]:
        """Pseudo colorings read off the integral columns of C^(-1).

        Column j is integral when the class of e_j in coker C is 0, so
        only U's s rows in _factors are read to find them. Each is built
        exactly and checked, then must be divisible by n1, or LinalgError
        names it. Extended by 0 on the base arc, it has defect +1 at its
        own crossing; the base row defect follows from the row relation
        and the classification keeps exactly the unit cases.
        """
        from .pseudo import classify_assignment  # pseudo imports this module

        n1 = self.modulus
        zero_class = range(self.c.cols)  # the j with every class entry of e_j 0
        for x, _, u_row, _ in self._factors:
            zero_class = [j for j in zero_class if u_row.get(j, 0) % x == 0]
        found = []
        for j, lift in zip(zero_class, self._exact_columns(zero_class)):
            if any(x % n1 for x in lift):
                raise LinalgError(f"e_{j} is 0 in coker C, but column {j} of L is not divisible by {n1}")
            colors = self._on_arcs([x // n1 for x in lift])
            result = classify_assignment(self.diagram, colors, column=j)
            if result.kind == "pseudo":
                found.append(result.pseudo)
        return tuple(found)


def coloring_group(d: Diagram) -> ColoringGroup:
    """The reduced coloring group, the same at every base arc."""
    return ColoringAnalysis(d).group


def coloring_matrix(d: Diagram, base: int | None = None) -> ColoringAnalysis:
    analysis = ColoringAnalysis(d, base)
    analysis.l  # n1 annihilates the cokernel, so n1 * C^(-1) is integral
    return analysis


def _require_modulus(k: int) -> None:
    if k < 1:
        raise ColoringError("modulus must be >= 1")


def _crossing_defects(d: Diagram, colors) -> tuple[int, ...]:
    """C'(D) . colors, read off the crossings: 2 * over - under_in - under_out."""
    return tuple([2 * colors[o] - colors[a] - colors[b] for o, a, b in d.crossing_arcs])


def _bit_flags(x: int) -> bytes:
    """One byte per binary digit of x >= 0, lowest first: 1 where the bit
    is set, else 0, as itertools.compress reads flags."""
    return bin(x)[:1:-1].encode().translate(_BITS)


def _fox_violation(d: Diagram, colors, k: int) -> int | None:
    """Index of the first crossing where the coloring relation fails mod k."""
    return next(
        (i for i, x in enumerate(_crossing_defects(d, colors)) if x % k), None
    )


def _coloring_box(d: Diagram, k: int) -> tuple[SnfDecomposition, list[int]]:
    """The Smith form U C' V = D and the sides of the box of y with V y
    running over all Fox k-colorings.

    Axis i has gcd(d_i, k) points (k for a zero or missing d_i, and
    gcd(0, k) = k), so the count is the product of the sides.
    """
    _require_modulus(k)
    cprime = _crossing_rows(d)
    snf = smith_normal_form(cprime)
    check_smith_form(cprime, snf)
    sides = [gcd(x, k) for x in snf.diagonal]
    sides.extend([k] * (cprime.cols - len(sides)))
    return snf, sides


def enumerate_colorings(d: Diagram, k: int, limit: int = 1 << 24) -> tuple[FoxColoring, ...]:
    """All Fox k-colorings, read off the Smith form of the crossing matrix,
    in sorted order of their color tuples, so the listing does not depend
    on the choice of V.

    Each is the sum of y_i V[:, i] over the axes of more than one point,
    the columns of V replayed together from the record and checked
    against the certificate. Bails out when the count passes limit;
    the error carries the count, so callers can fall back to it.
    """
    snf, sides = _coloring_box(d, k)
    count = prod(sides)
    if count > limit:
        raise EnumerationLimitError(count, limit)
    wide = [i for i, side in enumerate(sides) if side > 1]
    axes = [(range(0, k, k // sides[i]), v_col) for i, v_col in zip(wide, snf.v_cols_at(wide))]
    found = []
    for ys in product(*[points for points, _ in axes]):
        colors = [0] * len(sides)
        for y, (_, v_col) in zip(ys, axes):
            for arc, x in v_col.items():
                colors[arc] += y * x
        found.append(FoxColoring(k, colors))
    return tuple(sorted(found, key=lambda f: f.colors))


def distinguishing_report(d: Diagram, base: int | None = None) -> DistinguishingReport:
    return ColoringAnalysis(d, base).report


def _minimum_cover(masks, pair_count):
    """Smallest column set covering all pairs, exact, lexicographic first.

    masks[c] has bit p set when column c separates pair p. Every column
    whose mask lies inside an earlier column's mask (equal masks included)
    is dropped first: a minimum cover holding such a column b and not the
    earlier a becomes a lexicographically smaller one by swapping b for a,
    and one holding both is not minimum without b, so the first witness
    never holds b. A column inside only a later column's mask stays. For
    sizes 1, 2, ... a depth-first search then walks the column sets of that
    size in lexicographic order, so the first cover found is the answer.
    With suffix[c] the union of masks[c:], a prefix whose union acc has
    acc | suffix[c] != full can be completed by no later column, and the
    branch ends there. The last slot scans only the columns at or after
    the cursor that separate the lowest pair acc leaves uncovered, since a
    column completing the cover must separate it; each pair's column list
    is built the first time it is asked for. The search runs on an
    explicit stack and counts every column it places or scans against
    COVER_BUDGET; past it, CoverBudgetError carries the size being searched
    and the size of a greedy cover. The caller guarantees that all columns
    together cover every pair.
    """
    full = (1 << pair_count) - 1
    if full == 0:
        return 0, ()
    # transitively, a column inside a dropped one's mask is inside a kept one's
    kept = []
    for c, mask in enumerate(masks):
        if all(mask | masks[k] != masks[k] for k in kept):
            kept.append(c)
    masks = [masks[c] for c in kept]
    n = len(masks)
    suffix = [0] * (n + 1)
    for c in range(n - 1, -1, -1):
        suffix[c] = suffix[c + 1] | masks[c]
    separating = {}  # pair -> the columns that separate it, in order
    nodes = 0
    for size in range(1, n + 1):
        chosen = []  # the columns in slots 0 .. depth-1
        unions = [0]  # unions[d] is the union of the masks in slots < d
        c = 0
        while True:
            if nodes > COVER_BUDGET:
                raise CoverBudgetError(size, len(_greedy_cover(masks, full)))
            depth = len(chosen)
            acc = unions[depth]
            if depth == size - 1:
                p = (~acc & (acc + 1)).bit_length() - 1
                cols = separating.get(p)
                if cols is None:
                    cols = separating[p] = [col for col in range(n) if masks[col] >> p & 1]
                start = bisect_left(cols, c)
                nodes += len(cols) - start
                for col in cols[start:]:
                    if acc | masks[col] == full:
                        return size, tuple([kept[k] for k in (*chosen, col)])
            elif c <= n - size + depth and acc | suffix[c] == full:
                nodes += 1
                chosen.append(c)
                unions.append(acc | masks[c])
                c += 1
                continue
            if not chosen:
                break
            c = chosen.pop() + 1
            unions.pop()
    return None, ()


def _greedy_cover(masks, full) -> list[int]:
    """Columns picked by most newly covered pairs until all are covered.

    Ties go to the lower index, so a column whose mask lies inside an
    earlier column's is never picked, and the columns _minimum_cover keeps
    give the same picks as all of them.
    """
    picked = []
    acc = 0
    while acc != full:
        col = max(range(len(masks)), key=lambda c: (masks[c] & ~acc).bit_count())
        picked.append(col)
        acc |= masks[col]
    return picked
