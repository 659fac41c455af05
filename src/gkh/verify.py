"""End-to-end verification that coloring matrices distinguish arcs.

The property under test, for a reduced alternating prime diagram with
nonzero determinant: (a) arcs map injectively into the rows of the
coloring matrix mod n1, (b) every arc pair is separated by some column,
and (c) s = number of invariant factors colorings built from the Smith
form suffice to separate everything. Reports are total: hypotheses are
recorded, the checks run regardless, and failures are listed rather than
raised. verify_gkh builds the sparse reduced crossing matrix C once, from
the diagram's crossing arcs, and factors it once, U C V = D; no dense
matrix is built. The factorization's certificate replays the record of
its operations, which makes U and V unimodular, so the determinant is the
product of the certified diagonal and no second elimination is run.
Composite diagrams are checked against
the direct sum of their summands' groups, the Smith form of their
invariant factors as sparse diagonal rows, and random_alternating_diagram
draws the seeded inputs of `kh fuzz`.
"""

from __future__ import annotations

import random
from math import prod

from ._record import record
from .codec import BraidWord
from .coloring import (
    ColoringAnalysis,
    ColoringError,
    ColoringGroup,
    FoxColoring,
    ZeroDeterminantError,
    link_determinant,
)
from .diagram import Diagram, braid_closure, connected_sum
from .linalg import LinalgError, SparseMatrix, check_smith_form, smith_normal_form
from .pseudo import PseudoColoring


class VerifyError(Exception):
    pass


class GenerationError(VerifyError):
    pass


@record
class Hypotheses:
    """What the theorems assume; prime means the diagrammatic cut test."""

    alternating: bool
    reduced: bool
    prime: bool
    determinant: int
    components: int

    @property
    def satisfied(self) -> bool:
        return self.alternating and self.reduced and self.prime and self.determinant != 0


@record
class VerificationReport:
    name: str | None
    hypotheses: Hypotheses
    group: ColoringGroup
    base_arc: int
    part_a: bool
    failures: tuple[tuple[int, int], ...]
    t: int | None
    t_columns: tuple[int, ...]
    part_c: bool
    s: int
    distinguishing: tuple[FoxColoring, ...]
    inverse_pseudos: tuple[PseudoColoring, ...]

    @property
    def part_b(self) -> bool:
        """Every arc pair has a separating column: the same fact as (a)."""
        return self.part_a

    @property
    def passed(self) -> bool:
        return self.part_a and self.part_b and self.part_c

    @property
    def guaranteed(self) -> bool:
        """Whether the hypotheses promise a pass in the first place."""
        return self.hypotheses.satisfied

    @property
    def inverse_pseudo_count(self) -> int:
        return len(self.inverse_pseudos)

    @property
    def pseudo_free(self) -> bool:
        return self.inverse_pseudo_count == 0


def hypotheses_of(d: Diagram) -> Hypotheses:
    """The theorems' hypotheses, the determinant by link_determinant."""
    return _hypotheses(d, link_determinant(d))


def _hypotheses(d: Diagram, determinant: int) -> Hypotheses:
    return Hypotheses(
        alternating=d.is_alternating,
        reduced=d.is_reduced,
        prime=d.is_prime_diagram,
        determinant=determinant,
        components=len(d.spans),
    )


def _analysis_of(d: Diagram, base: int | None = None) -> tuple[ColoringAnalysis | None, Hypotheses]:
    """The ColoringAnalysis of d at base, None where C'(D) is not square or
    base is out of range, and the hypotheses. Where the analysis exists,
    their determinant is the product of its certified Smith diagonal: U C
    V = D with U and V unimodular makes |det C| = prod d_i."""
    try:
        analysis = ColoringAnalysis(d, base)  # builds C(D), factors it on first use
    except ColoringError:
        return None, hypotheses_of(d)
    return analysis, _hypotheses(d, prod(analysis.snf.diagonal))


def verify_gkh(d: Diagram, name: str | None = None, base: int | None = None) -> VerificationReport:
    """Run parts (a), (b), (c) and the pseudo-coloring nonexistence check.

    Never aborts on failed hypotheses, so non-examples produce readable
    reports; a zero determinant is the one hard error. A certificate that
    does not hold (the Smith form's replayed record, a row of U or column
    of V read against it, L mod n1 against the minimal set) raises
    LinalgError.
    """
    analysis, hyp = _analysis_of(d, base)
    if hyp.determinant == 0:
        raise ZeroDeterminantError("determinant 0: nothing to verify")
    analysis = analysis or ColoringAnalysis(d, base)  # raises the base error
    group = analysis.group
    report = analysis.report
    # the columns of L mod n1 and the minimal set span the same group of
    # n1-colorings, so they must leave the same arc pairs together
    failures = report.failures
    minimal_failures = analysis.minimal_set_failures
    if failures != minimal_failures:
        first = min(set(failures) ^ set(minimal_failures))
        side = "L mod n1" if first in failures else "the minimal set"
        raise LinalgError(
            f"arc pair {first} is left together by {side} only: L mod n1 and "
            f"the minimal distinguishing set must separate the same pairs"
        )
    return VerificationReport(
        name=name,
        hypotheses=hyp,
        group=group,
        base_arc=analysis.base_arc,
        # rows of L mod n1 are pairwise distinct exactly when every pair is separated
        part_a=report.injective,
        failures=failures,
        t=report.t,
        t_columns=report.t_columns,
        part_c=not minimal_failures,
        s=group.s,
        distinguishing=analysis.minimal_set,
        inverse_pseudos=analysis.inverse_pseudos,
    )


@record
class ConnectedSumReport:
    """Checks specific to composite diagrams built as iterated sums."""

    diagram: Diagram
    group: ColoringGroup
    direct_sum_factors: tuple[int, ...]
    junction_pairs: tuple[tuple[int, int], ...]
    joining_equal: bool
    failures: tuple[tuple[int, int], ...]

    @property
    def group_matches(self) -> bool:
        return self.group.invariant_factors == self.direct_sum_factors

    @property
    def failures_are_junctions(self) -> bool:
        return {frozenset(p) for p in self.failures} == {
            frozenset(p) for p in self.junction_pairs
        }

    @property
    def passed(self) -> bool:
        return self.joining_equal and self.failures_are_junctions and self.group_matches


def verify_connected_sum(parts: list[Diagram]) -> ConnectedSumReport:
    """Verify the composite picture: summands keep their groups, and only
    the arcs joining consecutive summands resist distinguishing.

    Each part must be nonempty with nonzero determinant; a single part
    degenerates to the plain distinguishing checks with no junctions. The
    expected group is the direct sum of the summands' groups: the Smith
    form of the diagonal matrix of all their invariant factors.
    """
    if not parts:
        raise VerifyError("need at least one summand")
    # .group raises ZeroDeterminantError on a summand with determinant 0
    factors = [n for part in parts for n in ColoringAnalysis(part).group.invariant_factors]
    total = parts[0]
    for part in parts[1:]:
        total = connected_sum(total, part)
    analysis = ColoringAnalysis(total)
    diagonal = SparseMatrix(len(factors), len(factors), tuple([{i: x} for i, x in enumerate(factors)]))
    combined = smith_normal_form(diagonal)
    check_smith_form(diagonal, combined)
    direct_sum = tuple(sorted((x for x in combined.diagonal if x > 1), reverse=True))
    junction_pairs = total.junction_arc_pairs
    rows = analysis.extended_rows()
    return ConnectedSumReport(
        diagram=total,
        group=analysis.group,
        direct_sum_factors=direct_sum,
        junction_pairs=junction_pairs,
        joining_equal=all(rows[a] == rows[b] for a, b in junction_pairs),
        failures=analysis.report.failures,
    )


_MAX_ATTEMPTS = 400
# a bound on the braid length: verify_gkh on one 4-strand draw takes
# about 7 ms at 197 crossings and 18 ms at 391 on a 2-core Xeon, of which
# the Smith form is 3 and 9 ms; L mod n1 is built and Fox-checked only up
# to the first perfect column, and kh fuzz passes the user's
# --max-crossings straight through
_MAX_CROSSINGS = 200


def random_alternating_diagram(max_crossings: int, seed: int) -> Diagram:
    """A random reduced alternating prime diagram with nonzero determinant.

    Draws braid words whose letter signs follow generator parity, which
    makes the closure alternating, then filters on the three diagram
    predicates. Deterministic per seed. The determinant needs no check: a
    prime diagram is connected, and a connected alternating diagram is the
    medial graph of its Tait graph, whose spanning trees its determinant
    counts up to sign (Kirchhoff's matrix-tree theorem); there is at least
    one. A bound below 3 or above _MAX_CROSSINGS raises GenerationError.
    """
    if max_crossings < 3:
        raise GenerationError("need at least 3 crossings")
    if max_crossings > _MAX_CROSSINGS:
        raise GenerationError(
            f"max crossings {max_crossings} is above the limit of {_MAX_CROSSINGS}"
        )
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        strands = rng.randint(2, 4)
        length = rng.randint(3, max_crossings)
        polarity = rng.choice((0, 1))
        letters = []
        for _ in range(length):
            g = rng.randint(1, strands - 1)
            letters.append(g if g % 2 == polarity else -g)
        if {abs(x) for x in letters} != set(range(1, strands)):
            continue
        d = braid_closure(BraidWord(strands, tuple(letters)))
        if d.is_alternating and d.is_reduced and d.is_prime_diagram:
            return d
    raise GenerationError(f"no usable diagram after {_MAX_ATTEMPTS} attempts")
