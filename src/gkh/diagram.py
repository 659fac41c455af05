"""Link diagrams as directed crossing data with a canonical edge labeling.

A crossing records the four directed edges meeting it: the over strand runs
over_in -> over_out, the under strand under_in -> under_out. Edges are
labeled 1..2n, contiguous along each component in strand order, components
ordered by their smallest label; crossings are numbered by first visit of
the same traversal. Every constructor returns this canonical form, so equal
diagrams compare equal.

Arcs are the maximal strand runs between consecutive under-passages. In an
alternating diagram every arc passes over exactly one crossing and arcs are
indexed by that crossing; otherwise arcs are ordered by smallest edge label.

Diagrams are taken to be planar: the crossing data must come from a link
drawn in the plane, as every braid closure, pretzel and connected sum here
does, and as a PD code does when it follows its counterclockwise
convention. The reduced and prime predicates rely on planarity and give
no meaningful answer for crossing data that cannot be drawn so.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from ._record import record
from .codec import BraidWord, PdCode


class DiagramError(Exception):
    pass


@record
class Crossing:
    over_in: int
    over_out: int
    under_in: int
    under_out: int


@record
class Arc:
    """A maximal strand run between two under-passages."""

    index: int
    edges: tuple[int, ...]
    over_at: tuple[int, ...]


@record
class Diagram:
    crossings: tuple[Crossing, ...]
    spans: tuple[tuple[int, int], ...]
    junction_edge_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = len(self.crossings)
        if n == 0:
            raise DiagramError("a diagram needs at least one crossing")
        expected = 1
        for start, end in self.spans:
            if start != expected or end < start:
                raise DiagramError(f"bad component span ({start}, {end})")
            expected = end + 1
        if expected != 2 * n + 1:
            raise DiagramError("component spans do not cover the edges")
        ins = sorted(e for c in self.crossings for e in (c.over_in, c.under_in))
        outs = sorted(e for c in self.crossings for e in (c.over_out, c.under_out))
        if ins != list(range(1, 2 * n + 1)) or outs != list(range(1, 2 * n + 1)):
            raise DiagramError("each edge must enter one crossing and leave one")
        succ = self._succ
        for start, end in self.spans:
            if succ[end] != start or any(succ[e] != e + 1 for e in range(start, end)):
                raise DiagramError("edge labels do not follow the strands")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def edge_count(self) -> int:
        return 2 * len(self.crossings)

    @property
    def component_count(self) -> int:
        return len(self.spans)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def _succ(self) -> dict[int, int]:
        m = {}
        for c in self.crossings:
            m[c.over_in] = c.over_out
            m[c.under_in] = c.under_out
        return m

    def succ(self, e: int) -> int:
        """The next edge along the strand."""
        return self._succ[e]

    @cached_property
    def _head_of(self) -> dict[int, tuple[int, str]]:
        m = {}
        for i, c in enumerate(self.crossings):
            m[c.over_in] = (i, "over")
            m[c.under_in] = (i, "under")
        return m

    @cached_property
    def _tail_of(self) -> dict[int, tuple[int, str]]:
        m = {}
        for i, c in enumerate(self.crossings):
            m[c.over_out] = (i, "over")
            m[c.under_out] = (i, "under")
        return m

    @cached_property
    def is_alternating(self) -> bool:
        for start, end in self.spans:
            flags = [self._head_of[e][1] for e in range(start, end + 1)]
            if len(flags) == 1:
                return False
            for a, b in zip(flags, flags[1:] + flags[:1]):
                if a == b:
                    return False
        return True

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        runs = []
        for start, end in self.spans:
            cuts = [e for e in range(start, end + 1) if self._head_of[e][1] == "under"]
            if not cuts:
                # a component passing over everything stays one closed arc
                runs.append(tuple(range(start, end + 1)))
                continue
            for i, cut in enumerate(cuts):
                run = []
                e = self.succ(cuts[i - 1])
                while True:
                    run.append(e)
                    if e == cut:
                        break
                    e = self.succ(e)
                runs.append(tuple(run))
        over_at = {
            run: tuple(
                sorted(self._head_of[e][0] for e in run if self._head_of[e][1] == "over")
            )
            for run in runs
        }
        if self.is_alternating:
            # alternation puts exactly one over-passage on every arc
            runs.sort(key=lambda r: over_at[r])
            for i, run in enumerate(runs):
                if over_at[run] != (i,):
                    raise DiagramError(
                        f"alternating arc {i} (edges {list(run)}) passes over crossings "
                        f"{list(over_at[run])}, not exactly crossing {i}"
                    )
            if len(runs) != len(self.crossings):
                raise DiagramError(
                    f"alternating diagram has {len(runs)} arcs for {len(self.crossings)} crossings"
                )
        else:
            runs.sort(key=min)
        # from a list, not a generator: see linalg.IntMatrix.from_rows
        return tuple([Arc(i, run, over_at[run]) for i, run in enumerate(runs)])

    @cached_property
    def _arc_of(self) -> dict[int, int]:
        return {e: a.index for a in self.arcs for e in a.edges}

    def arc_of(self, e: int) -> int:
        """Index of the arc containing edge e."""
        return self._arc_of[e]

    @cached_property
    def crossing_arcs(self) -> tuple[tuple[int, int, int], ...]:
        """Per crossing, the arc indices (over, under_in, under_out)."""
        arc_of = self._arc_of
        return tuple(
            [(arc_of[c.over_in], arc_of[c.under_in], arc_of[c.under_out]) for c in self.crossings]
        )

    @cached_property
    def junction_arc_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple([(self.arc_of(f), self.arc_of(g)) for f, g in self.junction_edge_pairs])

    @cached_property
    def joining_arcs(self) -> tuple[int, ...]:
        return tuple(sorted({a for pair in self.junction_arc_pairs for a in pair}))

    @cached_property
    def _multigraph(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per crossing, the (neighbour crossing, edge id) of every edge end.

        Edge id k is edge label k + 1. Parallel edges stay distinct and a
        loop (kink) appears twice in its crossing's list.
        """
        adj: list[list[tuple[int, int]]] = [[] for _ in self.crossings]
        for k in range(self.edge_count):
            u = self._tail_of[k + 1][0]
            v = self._head_of[k + 1][0]
            adj[u].append((v, k))
            adj[v].append((u, k))
        return tuple([tuple(ends) for ends in adj])

    @cached_property
    def _reduced_and_prime(self) -> tuple[bool, bool]:
        return _cut_search(self._multigraph)

    @cached_property
    def is_reduced(self) -> bool:
        """True when no crossing is nugatory.

        In a planar diagram a crossing is nugatory exactly when it carries a
        loop (a kink) or is a cut vertex: the pieces left by a cut vertex
        take two adjacent ends each, since an opposite split would need two
        closed curves crossing once, so a simple closed curve separates
        them through that crossing alone. One lowpoint search, O(V + E),
        finds both and decides is_prime_diagram as well.
        """
        return self._reduced_and_prime[0]

    @cached_property
    def is_prime_diagram(self) -> bool:
        """Connected, and no two edges disconnect the underlying graph.

        An edge set disconnects a connected graph exactly when it contains
        a nonempty cut, and over GF(2) the cuts are the edge sets orthogonal
        to every cycle. Label each edge by the fundamental cycles of a DFS
        tree through it: a non-tree edge by its own bit, a tree edge by the
        bits of the non-tree edges leaving its subtree. {e} is a cut when
        its label is 0 and {e, f} when the two labels are equal. Non-tree
        labels are distinct single bits, so a 2-cut holds a tree edge whose
        label repeats another tree label or is a single bit. The search of
        is_reduced builds every label: O(V + E) XORs of E-bit integers.
        """
        return self._reduced_and_prime[1]

    def mirrored(self) -> Diagram:
        """Swap over and under at every crossing; labels are preserved."""
        flipped = tuple(
            [Crossing(c.under_in, c.under_out, c.over_in, c.over_out) for c in self.crossings]
        )
        return Diagram(flipped, self.spans, self.junction_edge_pairs)

    def to_pd(self) -> PdCode:
        return PdCode(
            tuple(
                [(c.under_in, c.over_in, c.under_out, c.over_out) for c in self.crossings]
            )
        )


def _cut_search(adj) -> tuple[bool, bool]:
    """(reduced, prime) of a multigraph from one iterative DFS.

    adj lists per vertex the (neighbour, edge id) of every edge end, a loop
    twice. Lowpoints (Tarjan 1974) find the cut vertices: the search skips
    the edge id it arrived by, not the parent vertex, so a parallel edge
    back to the parent is a second path; a root is a cut vertex when it has
    two DFS children; the search restarts at every vertex not yet reached.
    Non-tree edge k XORs 1 << k into acc at each end it is seen from, so a
    loop cancels itself; when u finishes, acc[u] is the label of the tree
    edge into u and goes into its parent's acc.
    """
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    acc = [0] * len(adj)
    labels = set()
    timer = root = 0
    reduced = prime = True
    while timer < len(adj):
        root = disc.index(-1, root)  # every vertex before the last root is reached
        if timer:
            prime = False
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, via, ends = stack[-1]
            for v, k in ends:
                if k == via:
                    continue
                if disc[v] < 0:
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, k, iter(adj[v])))
                    break
                if v == u:
                    reduced = False
                acc[u] ^= 1 << k
                if disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    label = acc[u]
                    if label == 0 or label.bit_count() == 1 or label in labels:
                        prime = False
                    labels.add(label)
                    acc[p] ^= label
                    if low[u] >= disc[p]:
                        if p != root:
                            reduced = False
                        else:
                            root_children += 1
                    if low[u] < low[p]:
                        low[p] = low[u]
        if root_children > 1:
            reduced = False
    return reduced, prime


def _orient(passages) -> list[int]:
    """Assign a direction to every passage (x, y, dir or None).

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
            entering_here = dirs[p] == slot
            want = sq if not entering_here else 1 - sq
            if dirs[q] is None:
                dirs[q] = want
                queue.append(q)
            elif dirs[q] != want:
                raise DiagramError(f"strands do not close up at edge {e!r}")
    return dirs


def _assemble(quads, junction_pairs=()) -> Diagram:
    """Canonicalize (over_in, over_out, under_in, under_out) quadruples.

    Edge ids may be anything sortable; they are relabeled 1..2n along the
    strands, each component starting at its smallest id, and crossings are
    renumbered by first visit.
    """
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
            q = heads[e]
            if q not in number:
                number[q] = len(number)
            e = cont[e]
            if e == start:
                break
        spans.append((first, nxt - 1))
    crossings: list[Crossing | None] = [None] * len(quads)
    for i, (oi, oo, ui, uo) in enumerate(quads):
        crossings[number[i]] = Crossing(label[oi], label[oo], label[ui], label[uo])
    pairs = tuple([(label[f], label[g]) for f, g in junction_pairs])
    return Diagram(tuple(crossings), tuple(spans), pairs)


def from_pd(code: PdCode) -> Diagram:
    """Build a diagram from a PD code, solving the over-strand directions."""
    passages = []
    for a, b, c, d in code.crossings:
        passages.append((a, c, 0))
        passages.append((b, d, None))
    dirs = _orient(passages)
    quads = []
    for i, (a, b, c, d) in enumerate(code.crossings):
        if dirs[2 * i + 1] == 0:
            quads.append((b, d, a, c))
        else:
            quads.append((d, b, a, c))
    return _assemble(quads)


def braid_closure(word: BraidWord) -> Diagram:
    """Close a braid; letter +i takes strand i over strand i+1."""
    k = word.strands
    used = {abs(x) for x in word.letters}
    for j in range(1, k + 1):
        if j not in used and j - 1 not in used:
            raise DiagramError(
                f"strand {j} crosses nothing; its closure would be a bare circle"
            )
    top = list(range(1, k + 1))
    cur = top[:]
    nxt = k + 1
    quads = []
    for letter in word.letters:
        p = abs(letter)
        li, ri = cur[p - 1], cur[p]
        lo, ro = nxt, nxt + 1
        nxt += 2
        if letter > 0:
            quads.append((li, ro, ri, lo))
        else:
            quads.append((ri, lo, li, ro))
        cur[p - 1], cur[p] = lo, ro
    repl = {cur[j]: top[j] for j in range(k)}
    quads = [tuple([repl.get(e, e) for e in quad]) for quad in quads]
    return _assemble(quads)


def pretzel(*twists: int) -> Diagram:
    """Pretzel link: vertical twist columns joined cyclically at top and bottom.

    A positive column twists its left strand over its right; negative the
    reverse. Strand orientations are chosen by constraint propagation.
    """
    if not twists:
        raise DiagramError("a pretzel needs at least one twist column")
    if any(t == 0 for t in twists):
        raise DiagramError("twist counts must be nonzero")
    k = len(twists)
    # a right end at height 0 or |t_i| meets the next column's left end at
    # height 0 or |t_{i+1}|; each end meets exactly one other, so the pair's
    # smaller label names the joined point
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
            a = point(i, "L", j)
            b = point(i, "R", j)
            c = point(i, "L", j + 1)
            d = point(i, "R", j + 1)
            # the strand entering top-left leaves bottom-right and vice versa
            passages.append((a, d, None))
            passages.append((b, c, None))
    dirs = _orient(passages)
    quads = []
    idx = 0
    for i, t in enumerate(twists):
        for j in range(abs(t)):
            first, second = passages[idx], passages[idx + 1]
            over, over_dir = (first, dirs[idx]) if t > 0 else (second, dirs[idx + 1])
            under, under_dir = (second, dirs[idx + 1]) if t > 0 else (first, dirs[idx])
            oi, oo = (over[0], over[1]) if over_dir == 0 else (over[1], over[0])
            ui, uo = (under[0], under[1]) if under_dir == 0 else (under[1], under[0])
            quads.append((oi, oo, ui, uo))
            idx += 2
    return _assemble(quads)


def turks_head(n: int) -> Diagram:
    """The closed three-strand weave with n repeats of the basic pattern."""
    if n < 2:
        raise DiagramError("a closed three-strand weave needs at least two repeats")
    return braid_closure(BraidWord(3, (1, -2) * n))


def connected_sum(d1: Diagram, d2: Diagram) -> Diagram:
    """Splice the two diagrams along one arc of each.

    The cut falls on the last arc of d1 and the first arc of d2, skipping
    arcs created by earlier splices so their junction records stay valid.
    Cutting the last edge of both arcs keeps an alternating sum alternating:
    arc-final edges always run from an over-passage into an under-passage.
    """
    skip1 = set(d1.joining_arcs)
    arc1 = next((a for a in reversed(d1.arcs) if a.index not in skip1), d1.arcs[-1])
    skip2 = set(d2.joining_arcs)
    arc2 = next((a for a in d2.arcs if a.index not in skip2), d2.arcs[0])
    return _connected_sum_at(d1, arc1.edges[-1], d2, arc2.edges[-1])


def _connected_sum_at(d1: Diagram, e1: int, d2: Diagram, e2: int) -> Diagram:
    """Cut edge e1 of d1 and edge e2 of d2 and cross-join the loose ends.

    The two fresh edges are recorded as a junction pair; junction records
    that referred to a cut edge are discarded.
    """
    if not 1 <= e1 <= d1.edge_count:
        raise DiagramError(f"edge {e1} outside the first diagram")
    if not 1 <= e2 <= d2.edge_count:
        raise DiagramError(f"edge {e2} outside the second diagram")
    off = d1.edge_count
    f = off + d2.edge_count + 1
    g = off + d2.edge_count + 2

    def conv(c: Crossing, in_map, out_map) -> tuple:
        return (
            in_map(c.over_in),
            out_map(c.over_out),
            in_map(c.under_in),
            out_map(c.under_out),
        )

    quads = [
        conv(c, lambda e: g if e == e1 else e, lambda e: f if e == e1 else e)
        for c in d1.crossings
    ]
    quads += [
        conv(c, lambda e: f if e == e2 else e + off, lambda e: g if e == e2 else e + off)
        for c in d2.crossings
    ]
    pairs = [(a, b) for a, b in d1.junction_edge_pairs if e1 not in (a, b)]
    pairs += [
        (a + off, b + off) for a, b in d2.junction_edge_pairs if e2 not in (a, b)
    ]
    pairs.append((f, g))
    return _assemble(quads, pairs)
