"""Pseudo colorings: integer assignments failing the Fox relation at two crossings.

An epsilon-pseudo coloring satisfies the crossing relation everywhere
except at two crossings, where 2b - a - c equals +1 and epsilon (+1 or
-1). Reduced prime alternating diagrams admit none, so finding one
certifies non-alternation; conversely every non-alternating diagram
yields one through a tunnel, a stretch of strand passing under twice in
a row. Integral columns of C^(-1) are the other source. Either way the
defects C'(D) . colors are read off the crossings, never from a matrix.
"""

from __future__ import annotations

from ._record import record
from .coloring import ColoringAnalysis, _crossing_defects
from .diagram import Diagram


class PseudoError(Exception):
    pass


@record
class PseudoColoring:
    """Integer arc colors whose defect is +1 at one crossing, epsilon at another."""

    colors: tuple[int, ...]
    defects: tuple[int, ...]
    plus_crossing: int
    eps_crossing: int
    epsilon: int
    column: int | None = None

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise PseudoError("epsilon must be +1 or -1")
        if self.plus_crossing == self.eps_crossing:
            raise PseudoError("the two defective crossings must differ")
        expected = {self.plus_crossing: 1, self.eps_crossing: self.epsilon}
        actual = {i: v for i, v in enumerate(self.defects) if v}
        if actual != expected:
            raise PseudoError(f"defects {actual} do not match {expected}")


@record
class Classification:
    """What an integer arc assignment is: a Fox coloring over Z, a pseudo
    coloring, or neither."""

    kind: str
    colors: tuple[int, ...]
    defects: tuple[int, ...]
    pseudo: PseudoColoring | None = None


def classify_assignment(
    d: Diagram, colors, column: int | None = None
) -> Classification:
    """Compute the defects C'(D) . colors and classify the assignment.

    Defects {-1,-1} are negated to {+1,+1} so the reported convention is
    always +1 and epsilon; on a +1/+1 tie the lower crossing index is the
    plus crossing.
    """
    colors = tuple(colors)
    if len(colors) != len(d.arcs):
        raise PseudoError(f"{len(colors)} colors for {len(d.arcs)} arcs")
    defects = _crossing_defects(d, colors)
    nonzero = [(i, v) for i, v in enumerate(defects) if v]
    if not nonzero:
        return Classification("fox", colors, defects)
    if len(nonzero) == 2 and {abs(v) for _, v in nonzero} == {1}:
        if all(v == -1 for _, v in nonzero):
            # from lists, not generators: see linalg.IntMatrix.from_rows
            colors = tuple([-x for x in colors])
            defects = tuple([-x for x in defects])
            nonzero = [(i, -v) for i, v in nonzero]
        plus = min(i for i, v in nonzero if v == 1)
        eps_i, epsilon = next((i, v) for i, v in nonzero if i != plus)
        pseudo = PseudoColoring(
            colors=colors,
            defects=defects,
            plus_crossing=plus,
            eps_crossing=eps_i,
            epsilon=epsilon,
            column=column,
        )
        return Classification("pseudo", colors, defects, pseudo)
    return Classification("neither", colors, defects)


def pseudo_from_inverse_columns(
    d: Diagram, base: int | None = None
) -> tuple[PseudoColoring, ...]:
    """Pseudo colorings read off the integral columns of C(D)^(-1).

    Those columns are the columns of L that vanish mod n1, divided by n1;
    see ColoringAnalysis.inverse_pseudos.
    """
    return ColoringAnalysis(d, base).inverse_pseudos


def _passages(d: Diagram) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """Per component, the crossings met along the strand with an under flag."""
    return tuple(
        [
            tuple(zip(d._enters[start : end + 1], map(bool, d._under[start : end + 1])))
            for start, end in d.spans
        ]
    )


def tunnel_pseudo(d: Diagram) -> PseudoColoring:
    """A +1-pseudo coloring from a tunnel, two consecutive underpasses.

    The arc between the two underpasses gets color -1 and every other arc
    0, leaving defect +1 at both tunnel crossings. Alternating diagrams
    have no tunnel and are rejected.
    """
    if d.is_alternating:
        raise PseudoError("alternating diagram: no tunnel exists")
    for (start, _), walk in zip(d.spans, _passages(d)):
        if len(walk) < 2:
            # a lone underpass wraps onto itself and gives defect 2
            continue
        for i, (_, under_here) in enumerate(walk):
            j = (i + 1) % len(walk)
            if under_here and walk[j][1]:
                tunnel_arc = d.arc_of(start + j)
                colors = [0] * len(d.arcs)
                colors[tunnel_arc] = -1
                result = classify_assignment(d, colors)
                if result.kind != "pseudo":
                    bad = {i: v for i, v in enumerate(result.defects) if v}
                    raise PseudoError(
                        f"tunnel arc {tunnel_arc} colored -1 leaves defects {bad} "
                        "by crossing, not a pseudo coloring"
                    )
                return result.pseudo
    raise PseudoError("no usable tunnel: only degenerate underpass loops")
