"""Facts about diagrams computed without the gkh package.

The benchmark checks gkh's answers against these. Everything here reads
planar diagram codes as plain tuples, so a defect in gkh's parser,
canonical form or linear algebra cannot hide itself.

PD convention (the one gkh reads): X(a, b, c, d) lists the edges around a
crossing counterclockwise from the incoming under-edge a; c is the
outgoing under-edge and b, d carry the over-strand.
"""

from __future__ import annotations


def format_pd(quads) -> str:
    return "PD[" + ",".join("X({},{},{},{})".format(*q) for q in quads) + "]"


def braid_pd(strands: int, letters) -> tuple[tuple[int, int, int, int], ...]:
    """PD code of a braid closure; letter +i takes strand i over strand i+1.

    Strands run downward; at each letter the strand entering top-left
    leaves bottom-right and the one entering top-right leaves bottom-left.
    """
    cur = list(range(1, strands + 1))
    nxt = strands + 1
    quads = []
    for letter in letters:
        p = abs(letter)
        li, ri = cur[p - 1], cur[p]
        lo, ro = nxt, nxt + 1
        nxt += 2
        if letter > 0:
            quads.append((ri, li, lo, ro))
        else:
            quads.append((li, lo, ro, ri))
        cur[p - 1], cur[p] = lo, ro
    # close up: the bottom edge of each position is the top edge of it
    close = {cur[j]: j + 1 for j in range(strands)}
    quads = [tuple(close.get(e, e) for e in q) for q in quads]
    compact = {e: i + 1 for i, e in enumerate(sorted({e for q in quads for e in q}))}
    return tuple(tuple(compact[e] for e in q) for q in quads)


def arc_of_edges(quads) -> dict[int, int]:
    """Arc index per edge label: edges b and d of a crossing share an arc."""
    parent = {e: e for q in quads for e in q}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, b, _, d in quads:
        parent[find(b)] = find(d)
    roots = sorted({find(e) for e in parent})
    index = {r: i for i, r in enumerate(roots)}
    return {e: index[find(e)] for e in parent}


def crossing_rows(quads, arc_of=None) -> list[list[int]]:
    """Fox relation rows 2*over - under_in - under_out, one per crossing."""
    arc_of = arc_of or arc_of_edges(quads)
    width = len(set(arc_of.values()))
    rows = []
    for a, b, c, _ in quads:
        row = [0] * width
        row[arc_of[b]] += 2
        row[arc_of[a]] -= 1
        row[arc_of[c]] -= 1
        rows.append(row)
    return rows


def bareiss_det(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mik = m[i], m[i][k]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def reduced_abs_det(rows) -> int:
    """|det| of a crossing matrix with its last row and column deleted.

    Any base gives the same value; a non-square matrix (some component
    never passes under) has determinant 0 by convention.
    """
    if not rows or len(rows) != len(rows[0]):
        return 0
    return abs(bareiss_det([r[:-1] for r in rows[:-1]]))


def determinant(quads) -> int:
    return reduced_abs_det(crossing_rows(quads))


def is_alternating(quads) -> bool:
    """Every edge runs from an over-passage into an under-passage."""
    slots: dict[int, list[bool]] = {}
    for q in quads:
        for pos, e in enumerate(q):
            slots.setdefault(e, []).append(pos % 2 == 0)
    return all(sorted(s) == [False, True] for s in slots.values())


def _edge_ends(quads) -> list[tuple[int, int]]:
    where: dict[int, list[int]] = {}
    for i, q in enumerate(quads):
        for e in q:
            where.setdefault(e, []).append(i)
    return [tuple(v) for _, v in sorted(where.items())]


def _connected_without_bridge(n: int, edges, skip: int) -> bool:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if i != skip and u != v:
            adj[u].append((v, i))
            adj[v].append((u, i))
    disc = [-1] * n
    low = [0] * n
    disc[0] = low[0] = 0
    timer = 1
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        u, via, it = stack[-1]
        for v, i in it:
            if i == via:
                continue
            if disc[v] == -1:
                disc[v] = low[v] = timer
                timer += 1
                stack.append((v, i, iter(adj[v])))
                break
            low[u] = min(low[u], disc[v])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] > disc[p]:
                    return False
    return timer == n


def is_prime_diagram(quads) -> bool:
    """Connected and no two edges disconnect the crossing graph.

    In a 3-edge-connected 4-regular graph with at least two crossings no
    crossing is nugatory either, so this also implies reduced.
    """
    n = len(quads)
    edges = _edge_ends(quads)
    if not _connected_without_bridge(n, edges, -1):
        return False
    return all(
        _connected_without_bridge(n, edges, i)
        for i, (u, v) in enumerate(edges)
        if u != v
    )


def lucas(m: int) -> int:
    a, b = 2, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def turks_head_determinant(n: int) -> int:
    """Determinant of the closure of (s1 s2^-1)^n: L_{2n} - 2."""
    return lucas(2 * n) - 2


def pretzel_determinant(twists) -> int:
    total = 0
    for i in range(len(twists)):
        p = 1
        for j, x in enumerate(twists):
            if j != i:
                p *= x
        total += p
    return abs(total)


def min_columns(modulus: int, arcs: int) -> int | None:
    """Least t with modulus**t >= arcs: one column takes at most modulus values."""
    if modulus < 2:
        return 0 if arcs <= 1 else None
    t, reach = 0, 1
    while reach < arcs:
        t += 1
        reach *= modulus
    return t


def matmul(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a]
