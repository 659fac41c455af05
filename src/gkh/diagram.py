"""Link diagrams as directed crossing data with a canonical edge labeling.

A crossing records the four directed edges meeting it: the over strand runs
over_in -> over_out, the under strand under_in -> under_out. Edges are
labeled 1..2n, contiguous along each component in strand order, components
ordered by their smallest label; crossings are numbered by first visit of
the same traversal. Every constructor returns this canonical form, so equal
diagrams compare equal.

Every table a Diagram reads is a list indexed by edge label, built once by
the check in Diagram.__post_init__, and rests on that invariant: labels
1..2n run contiguously along each span (start, end), so the edge after e is
e + 1, or start after end. An arc is then a label range ending at an
under-passage, wrapping at its span's end.

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

from functools import cached_property
from itertools import compress

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
        # per label e: the edge after it, the crossing it enters and 1 when
        # it enters as the under strand; slot 0 is unused
        following = list(range(1, 2 * n + 2))
        for start, end in self.spans:
            following[end] = start
        enters = [-1] * (2 * n + 1)
        under = bytearray(2 * n + 1)
        try:
            for i, c in enumerate(self.crossings):
                e, f = c.over_in, c.under_in
                if e < 1 or f < 1 or following[e] != c.over_out or following[f] != c.under_out:
                    break
                enters[e] = enters[f] = i
                under[f] = 1
            else:
                if enters.count(-1) == 1:  # every label enters one crossing
                    vars(self).update(_next=following, _enters=enters, _under=under)
                    return
        except (IndexError, TypeError):  # a label outside 1..2n or not an integer
            pass
        ins = sorted(e for c in self.crossings for e in (c.over_in, c.under_in))
        outs = sorted(e for c in self.crossings for e in (c.over_out, c.under_out))
        if ins != list(range(1, 2 * n + 1)) or outs != list(range(1, 2 * n + 1)):
            raise DiagramError("each edge must enter one crossing and leave one")
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

    def succ(self, e: int) -> int:
        """The next edge along the strand."""
        return self._next[e]

    @cached_property
    def is_alternating(self) -> bool:
        """No strand passes under twice in a row, the wrap from a span's end
        to its start included. There are n under- and n over-passages, and a
        cycle with no two unders in a row has at least as many overs, so
        every span then alternates, and none is a lone passage."""
        under = self._under
        for start, end in self.spans:
            if under[start] and under[end] or under.find(b"\x01\x01", start, end + 1) >= 0:
                return False
        return True

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        if self.is_alternating:
            # each arc is one over-passage and the under-passage after it
            return tuple(
                [Arc(i, (c.over_in, c.over_out), (i,)) for i, c in enumerate(self.crossings)]
            )
        enters, under = self._enters, self._under
        labels = tuple(range(2 * len(self.crossings) + 1))
        arcs = []
        for start, end in self.spans:
            cuts = list(compress(labels[start : end + 1], under[start : end + 1]))
            if not cuts:
                # a component passing over everything stays one closed arc
                over = tuple(sorted(enters[start : end + 1]))
                arcs.append(Arc(len(arcs), labels[start : end + 1], over))
                continue
            # the run through the span's start first, then the ranges
            # between cuts, so that each span's arcs come by smallest label;
            # every label of a run passes over but the cut that closes it
            a, b = cuts[-1], cuts[0]
            run = labels[a + 1 : end + 1] + labels[start : b + 1]
            over = enters[a + 1 : end + 1] + enters[start:b]
            arcs.append(Arc(len(arcs), run, tuple(sorted(over))))
            for a, b in zip(cuts, cuts[1:]):
                arcs.append(Arc(len(arcs), labels[a + 1 : b + 1], tuple(sorted(enters[a + 1 : b]))))
        return tuple(arcs)

    @cached_property
    def _arc_of(self) -> list[int]:
        arc_of = [0] * (2 * len(self.crossings) + 1)
        for a in self.arcs:
            for e in a.edges:
                arc_of[e] = a.index
        return arc_of

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

        Edge id k is edge label k + 1, which leaves the crossing its
        predecessor enters. Parallel edges stay distinct and a loop (kink)
        appears twice in its crossing's list.
        """
        enters = self._enters
        adj: list[list[tuple[int, int]]] = [[] for _ in self.crossings]
        for start, end in self.spans:
            u = enters[end]
            for e in range(start, end + 1):
                v = enters[e]
                adj[u].append((v, e - 1))
                adj[v].append((u, e - 1))
                u = v
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


def _orient(ends: list[int], fixed: int) -> list[int]:
    """The direction of every passage (ends[2p], ends[2p + 1]): 0 when the
    strand enters passage p at ends[2p], 1 when at ends[2p + 1].

    The labels are 1..m, each at exactly two ends, and the first `fixed`
    passages run forward. Each strand is walked once, in the direction of
    the first passage on it not yet walked, which runs forward: fixed
    passages before free ones, so a strand without a fixed passage starts
    at its lowest. A walk that enters a fixed passage backwards raises.
    """
    # the two ends carrying label e sit at uses[2e - 2] and uses[2e - 1]
    uses = sorted(range(len(ends)), key=ends.__getitem__)
    dirs = [-1] * (len(ends) // 2)
    for p in range(len(dirs)):
        if dirs[p] >= 0:
            continue
        dirs[p] = 0
        s = start = 2 * p  # the end the strand enters by
        while True:
            x = s ^ 1  # the end it leaves by
            i = 2 * ends[x] - 2
            t = uses[i]
            if t == x:
                t = uses[i + 1]
            if t == start:  # strands are cycles of passages
                break
            if t & 1 and t < 2 * fixed:
                raise DiagramError(f"strands do not close up at edge {ends[x]!r}")
            dirs[t >> 1] = t & 1
            s = t
    return dirs


def _canonical(quads, size: int, junction_pairs=()) -> Diagram:
    """Canonicalize (over_in, over_out, under_in, under_out) quadruples.

    Labels are integers below size, each entering one crossing and leaving
    one; they are relabeled 1..2n along the strands, each component starting
    at its smallest label, and crossings are renumbered by first visit.
    """
    enters = [-1] * size
    after = [0] * size
    for i, (oi, oo, ui, uo) in enumerate(quads):
        enters[oi] = enters[ui] = i
        after[oi] = oo
        after[ui] = uo
    label = [0] * size
    number = [-1] * len(quads)
    spans = []
    visited = 0
    nxt = 1
    for start in range(size):
        if enters[start] < 0 or label[start]:
            continue
        first = nxt
        e = start
        while True:
            label[e] = nxt
            nxt += 1
            q = enters[e]
            if number[q] < 0:
                number[q] = visited
                visited += 1
            e = after[e]
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
    pd = code.crossings
    n = len(pd)
    flat = [x for quad in pd for x in quad]
    # passage i < n is crossing i's under strand a -> c, fixed by the code;
    # passage n + i its over strand b - d
    ends = flat[:]
    ends[0 : 2 * n : 2], ends[1 : 2 * n : 2] = flat[0::4], flat[2::4]
    ends[2 * n :: 2], ends[2 * n + 1 :: 2] = flat[1::4], flat[3::4]
    dirs = _orient(ends, n)
    quads = [
        (d, b, a, c) if flip else (b, d, a, c) for (a, b, c, d), flip in zip(pd, dirs[n:])
    ]
    return _canonical(quads, 2 * n + 1)


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
    # the edges leaving the bottom of the braid are its top edges
    close = list(range(nxt))
    for j in range(k):
        close[cur[j]] = top[j]
    quads = [(oi, close[oo], ui, close[uo]) for oi, oo, ui, uo in quads]
    return _canonical(quads, nxt)


def pretzel(*twists: int) -> Diagram:
    """Pretzel link: vertical twist columns joined cyclically at top and bottom.

    A positive column twists its left strand over its right; negative the
    reverse. Strand orientations are chosen by walking the strands.
    """
    if not twists:
        raise DiagramError("a pretzel needs at least one twist column")
    if any(t == 0 for t in twists):
        raise DiagramError("twist counts must be nonzero")
    # column i has points at heights 0..|t_i| on its left and right; its
    # right ends at heights 0 and |t_i| are the next column's left ends,
    # the last column's are column 0's. Labels are given in the order of
    # (column, side, height), a joined point taking its smaller name, so
    # that the canonical labels depend on nothing else.
    ends, positive = [], []
    nxt = 1
    for i, t in enumerate(twists):
        height = abs(t)
        if i == 0:
            left = first_left = list(range(nxt, nxt + height + 1))
            nxt += height + 1
        else:
            left = [right[0], *range(nxt, nxt + height - 1), right[-1]]
            nxt += height - 1
        if i < len(twists) - 1:
            right = list(range(nxt, nxt + height + 1))
            nxt += height + 1
        else:
            right = [first_left[0], *range(nxt, nxt + height - 1), first_left[-1]]
            nxt += height - 1
        for j in range(height):
            # the strand entering top-left leaves bottom-right and vice versa
            ends += (left[j], right[j + 1], right[j], left[j + 1])
        positive += [t > 0] * height
    dirs = _orient(ends, 0)
    for p in compress(range(len(dirs)), dirs):  # entered at the second end
        ends[2 * p], ends[2 * p + 1] = ends[2 * p + 1], ends[2 * p]
    # each crossing's ends now run (in, out) along its left strand, then its right
    quads = []
    for i, left_over in enumerate(positive):
        first, second = ends[4 * i : 4 * i + 2], ends[4 * i + 2 : 4 * i + 4]
        quads.append((*first, *second) if left_over else (*second, *first))
    return _canonical(quads, nxt)


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
    # d2's labels move up by off; the cut edges' heads become g and f, their
    # tails f and g
    ins1, outs1 = list(range(f)), list(range(f))
    ins2, outs2 = list(range(off, f)), list(range(off, f))
    ins1[e1], outs1[e1], ins2[e2], outs2[e2] = g, f, f, g
    quads = [
        (ins[c.over_in], outs[c.over_out], ins[c.under_in], outs[c.under_out])
        for d, ins, outs in ((d1, ins1, outs1), (d2, ins2, outs2))
        for c in d.crossings
    ]
    pairs = [(a, b) for a, b in d1.junction_edge_pairs if e1 not in (a, b)]
    pairs += [
        (a + off, b + off) for a, b in d2.junction_edge_pairs if e2 not in (a, b)
    ]
    pairs.append((f, g))
    return _canonical(quads, g + 1, pairs)
