"""Search for row/column relabelings carrying one integer matrix onto another.

Crossing matrices are only defined up to the choice of crossing and arc
orderings, so figure comparisons ask whether some simultaneous relabeling
makes two matrices equal entry for entry. Sizes here are diagram sized
(tens of rows), so plain backtracking with multiset signatures is enough.
"""

from __future__ import annotations

from collections import Counter

from .linalg import IntMatrix, LinalgError


def find_matrix_bijection(
    source: IntMatrix, target: IntMatrix, tie: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Permutations (rho, alpha) with source.permuted(rho, alpha) == target.

    rho sends source row i to target row rho[i], alpha the same for
    columns. With tie=True the two permutations are forced equal, which
    is the right notion when rows and columns share one labeling (arc i
    is the over-arc of crossing i). Returns None when no pair exists.
    """
    if source.rows != target.rows or source.cols != target.cols:
        return None
    if tie and not source.is_square:
        return None
    row_candidates = _candidates(
        [source.row(i) for i in range(source.rows)],
        [target.row(i) for i in range(target.rows)],
    )
    if row_candidates is None:
        return None
    if not tie:
        col_candidates = _candidates(
            [source.col(j) for j in range(source.cols)],
            [target.col(j) for j in range(target.cols)],
        )
        if col_candidates is None:
            return None
    rho: list[int | None] = [None] * source.rows
    used = [False] * target.rows

    def feasible_columns(rows_assigned: list[int]) -> list[list[int]] | None:
        # column j may map to c only if every assigned row agrees on it
        sets = []
        for j in range(source.cols):
            allowed = [
                c
                for c in (range(source.cols) if tie else col_candidates[j])
                if all(source.at(i, j) == target.at(rho[i], c) for i in rows_assigned)
            ]
            if not allowed:
                return None
            sets.append(allowed)
        return sets

    def extend(order: list[int], pos: int) -> tuple[int, ...] | None:
        if pos == len(order):
            assigned = [i for i in range(source.rows) if rho[i] is not None]
            sets = feasible_columns(assigned)
            if sets is None:
                return None
            if tie:
                sets = [
                    [c for c in s if c == rho[j]] for j, s in enumerate(sets)
                ]
                if any(not s for s in sets):
                    return None
            return _perfect_matching(sets)
        i = order[pos]
        for r in row_candidates[i]:
            if used[r]:
                continue
            rho[i] = r
            used[r] = True
            if feasible_columns([j for j in order[: pos + 1]]) is not None:
                alpha = extend(order, pos + 1)
                if alpha is not None:
                    return alpha
            rho[i] = None
            used[r] = False
        return None

    order = sorted(range(source.rows), key=lambda i: len(row_candidates[i]))
    alpha = extend(order, 0)
    if alpha is None:
        return None
    out_rho = tuple(rho)
    image = source.permuted(out_rho, alpha)
    for i in range(target.rows):
        if image.row(i) != target.row(i):
            raise LinalgError(
                f"relabeling sends a source row to target row {i} as {image.row(i)}, "
                f"not {target.row(i)}"
            )
    return out_rho, alpha


def _candidates(source_lines, target_lines):
    """target indices whose entry multiset matches, per source index."""
    sig = [Counter(line) for line in target_lines]
    out = []
    for line in source_lines:
        own = Counter(line)
        matches = [t for t, s in enumerate(sig) if s == own]
        if not matches:
            return None
        out.append(matches)
    return out


def _perfect_matching(sets: list[list[int]]) -> tuple[int, ...] | None:
    """Assign each index a distinct value from its set, or None."""
    order = sorted(range(len(sets)), key=lambda j: len(sets[j]))
    taken: set[int] = set()
    choice: dict[int, int] = {}

    def go(pos: int) -> bool:
        if pos == len(order):
            return True
        j = order[pos]
        for c in sets[j]:
            if c not in taken:
                taken.add(c)
                choice[j] = c
                if go(pos + 1):
                    return True
                taken.remove(c)
        return False

    if not go(0):
        return None
    return tuple(choice[j] for j in range(len(sets)))
