from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkh.codec import BraidWord, PdCode, parse_braid, parse_pd, serialize_pd
from gkh.diagram import (
    Crossing,
    Diagram,
    DiagramError,
    _cut_search,
    braid_closure,
    connected_sum,
    from_pd,
    pretzel,
    turks_head,
)
from gkh.fixtures import fixture, fixture_diagram, fixture_names
from gkh.pseudo import _passages
import oracles
from oracles import pd_euler_characteristic


def trefoil():
    return braid_closure(parse_braid("1 1 1"))


@st.composite
def closable_braids(draw, max_strands=4, min_size=1, max_size=10):
    strands = draw(st.integers(min_value=2, max_value=max_strands))
    letters = draw(
        st.lists(
            st.integers(min_value=1, max_value=strands - 1).flatmap(
                lambda i: st.sampled_from([i, -i])
            ),
            min_size=min_size,
            max_size=max_size,
        )
    )
    used = {abs(x) for x in letters}
    assume(all(j in used or j - 1 in used for j in range(1, strands + 1)))
    return BraidWord(strands, tuple(letters))


def test_trefoil_shape():
    d = trefoil()
    assert d.crossing_count == 3
    assert d.component_count == 1
    assert d.edge_count == 6
    assert d.is_alternating and d.is_reduced and d.is_prime_diagram
    assert len(d.arcs) == 3
    # alternating: arc i passes over crossing i and nothing else
    assert [a.over_at for a in d.arcs] == [(0,), (1,), (2,)]


def test_hopf_from_pd_is_canonical():
    d = from_pd(parse_pd("PD[X(1,3,2,4),X(3,1,4,2)]"))
    assert d.crossing_count == 2
    assert d.component_count == 2
    assert d.spans == ((1, 2), (3, 4))
    assert d.is_alternating and d.is_reduced and d.is_prime_diagram
    assert d.crossings == (
        Crossing(over_in=4, over_out=3, under_in=1, under_out=2),
        Crossing(over_in=2, over_out=1, under_in=3, under_out=4),
    )


def test_three_strand_weaves():
    fig8 = turks_head(2)
    assert fig8.crossing_count == 4
    assert fig8.component_count == 1
    assert fig8.is_alternating and fig8.is_reduced and fig8.is_prime_diagram
    w6 = turks_head(6)
    assert w6.crossing_count == 12
    assert w6.component_count == 3
    assert w6.is_alternating and w6.is_reduced and w6.is_prime_diagram
    with pytest.raises(DiagramError):
        turks_head(1)


def test_pretzels():
    for twists, crossings in [((1, 1, 1), 3), ((3, 1, 1), 5), ((3, 3, 3, 3, 3), 15)]:
        d = pretzel(*twists)
        assert d.crossing_count == crossings
        assert d.component_count == 1
        assert d.is_alternating and d.is_reduced and d.is_prime_diagram
    mixed = pretzel(3, 3, -2)
    assert mixed.crossing_count == 8
    assert not mixed.is_alternating
    assert mixed.is_reduced and mixed.is_prime_diagram
    with pytest.raises(DiagramError):
        pretzel()
    with pytest.raises(DiagramError):
        pretzel(2, 0, 2)


# the labels fix the order of the arcs, so the columns of L and the frozen
# t_columns of every pretzel report depend on them
FROZEN_PRETZEL_PD = {
    (3, 3, 3): "PD[X(12,1,13,2),X(2,11,3,12),X(10,3,11,4),X(4,15,5,16),X(14,5,15,6),"
    "X(6,13,7,14),X(18,7,1,8),X(8,17,9,18),X(16,9,17,10)]",
    (-2, 3, 7): "PD[X(1,14,2,15),X(13,2,14,3),X(18,3,19,4),X(4,19,5,20),X(20,5,21,6),"
    "X(6,21,7,22),X(22,7,23,8),X(8,23,9,24),X(24,9,1,10),X(10,15,11,16),"
    "X(16,11,17,12),X(12,17,13,18)]",
    (5,): "PD[X(10,1,1,2),X(2,9,3,10),X(8,3,9,4),X(4,7,5,8),X(6,5,7,6)]",
    (1, -1, 2, -2): "PD[X(6,1,7,2),X(5,2,6,3),X(12,3,9,4),X(4,9,5,10),X(7,10,8,11),"
    "X(11,8,12,1)]",
}


@pytest.mark.parametrize("twists", list(FROZEN_PRETZEL_PD), ids=str)
def test_pretzel_pd_is_frozen(twists):
    assert serialize_pd(pretzel(*twists).to_pd()) == FROZEN_PRETZEL_PD[twists]


def test_kink_is_not_reduced():
    d = from_pd(parse_pd("PD[X(2,1,1,2)]"))
    assert d.crossing_count == 1
    assert not d.is_reduced
    kinked = braid_closure(parse_braid("1 1 1 2"))
    assert not kinked.is_reduced
    assert not kinked.is_prime_diagram
    assert trefoil().is_reduced


def test_split_diagram():
    d = from_pd(parse_pd("PD[X(2,1,1,2),X(4,3,3,4)]"))
    assert d.component_count == 2
    assert not d.is_prime_diagram
    assert not d.is_reduced


def test_braid_closure_rejects_unused_strand():
    with pytest.raises(DiagramError):
        braid_closure(BraidWord(3, (1, 1)))
    with pytest.raises(DiagramError):
        braid_closure(BraidWord(4, (1, -1, 1)))


def test_connected_sum_square_knot():
    t = trefoil()
    sq = connected_sum(t.mirrored(), t)
    assert sq.crossing_count == 6
    assert sq.component_count == 1
    assert sq.is_alternating and sq.is_reduced
    assert not sq.is_prime_diagram
    assert len(sq.junction_edge_pairs) == 1
    (f, g), = sq.junction_edge_pairs
    assert sq.arc_of(f) != sq.arc_of(g)
    assert len(sq.joining_arcs) == 2


def test_iterated_connected_sum_tracks_junctions():
    t = trefoil()
    s3 = connected_sum(connected_sum(t.mirrored(), t), t)
    assert s3.crossing_count == 9
    assert s3.is_alternating and s3.is_reduced
    assert not s3.is_prime_diagram
    assert len(s3.junction_edge_pairs) == 2
    assert len(s3.joining_arcs) == 4


def test_mirror_is_involution_and_preserves_predicates():
    for d in [trefoil(), turks_head(2), pretzel(3, 1, 1), pretzel(3, 3, -2)]:
        m = d.mirrored()
        assert m.mirrored() == d
        assert m.is_alternating == d.is_alternating
        assert m.is_reduced == d.is_reduced
        assert m.is_prime_diagram == d.is_prime_diagram


def test_inconsistent_pd_rejected():
    # both under strands run 1 -> 3, and the trefoil with the labels of its
    # second crossing's under strand swapped runs one strand both ways
    for code in (((1, 2, 3, 4), (1, 2, 3, 4)), ((1, 5, 2, 4), (4, 1, 3, 6), (5, 3, 6, 2))):
        for build in (from_pd, oracles.from_pd):
            with pytest.raises(DiagramError, match="strands do not close up"):
                build(PdCode(code))


PD_FIXTURES = [n for n in fixture_names() if fixture(n).input_text.startswith("pd:")]


@pytest.mark.parametrize("name", PD_FIXTURES)
def test_pd_fixtures_are_planar(name):
    code = parse_pd(fixture(name).input_text.partition(":")[2])
    chi, pieces = pd_euler_characteristic(code.crossings)
    assert chi == 2 * pieces


def test_face_tracer_sees_the_old_genus_two_7_7b_code():
    # the table's 7_7b row before its rotations at crossings 0, 1 and 4 were
    # flipped: the same Diagram, but a surface of genus 2, not a plane
    old = parse_pd(
        "PD[X(12,1,13,2),X(2,5,3,6),X(10,3,11,4),X(4,9,5,10),X(6,11,7,12),X(14,7,1,8),X(8,13,9,14)]"
    )
    assert pd_euler_characteristic(old.crossings) == (-2, 1)
    assert from_pd(old) == fixture_diagram("7_7b")


def test_diagram_invariant_validation():
    c = Crossing(1, 2, 2, 1)
    with pytest.raises(DiagramError):
        Diagram((), ())
    with pytest.raises(DiagramError):
        Diagram((c,), ((1, 3),))
    with pytest.raises(DiagramError):
        Diagram((c, c), ((1, 2), (3, 4)))
    # each edge enters one crossing and leaves one, but the strands run
    # 1 -> 3 and 2 -> 4, across the spans
    hopf = (Crossing(1, 3, 2, 4), Crossing(3, 1, 4, 2))
    for spans in (((1, 2), (3, 4)), ((1, 4),)):
        with pytest.raises(DiagramError, match="labels do not follow the strands"):
            Diagram(hopf, spans)
    # 1 -> 2 and 3 -> 4 follow their spans; only the wrap 2 -> 3 breaks one
    with pytest.raises(DiagramError, match="labels do not follow the strands"):
        Diagram((Crossing(1, 2, 3, 4), Crossing(2, 3, 4, 1)), ((1, 2), (3, 4)))


@settings(max_examples=60, deadline=None)
@given(closable_braids())
def test_pd_roundtrip_preserves_diagram(word):
    d = braid_closure(word)
    back = from_pd(d.to_pd())
    # junction records are construction metadata and not part of a PD code
    assert back.crossings == d.crossings
    assert back.spans == d.spans


@settings(max_examples=60, deadline=None)
@given(closable_braids())
def test_arcs_partition_under_cut_edges(word):
    d = braid_closure(word)
    seen = sorted(e for a in d.arcs for e in a.edges)
    assert seen == list(range(1, d.edge_count + 1))
    for a in d.arcs:
        for e, nxt in zip(a.edges, a.edges[1:]):
            assert d.succ(e) == nxt
    # every crossing is passed over by exactly one arc
    overs = sorted(q for a in d.arcs for q in a.over_at)
    assert overs == list(range(d.crossing_count))


@settings(max_examples=60, deadline=None)
@given(closable_braids())
def test_mirror_roundtrip_random(word):
    d = braid_closure(word)
    assert d.mirrored().mirrored() == d
    assert d.mirrored().is_alternating == d.is_alternating


def pairwise_prime_oracle(d):
    """Brute force: one BFS for every pair of removed edges, O(E^3)."""
    n = d.crossing_count
    tail = {e: i for i, c in enumerate(d.crossings) for e in (c.over_out, c.under_out)}
    head = {e: i for i, c in enumerate(d.crossings) for e in (c.over_in, c.under_in)}
    ends = [(tail[e], head[e]) for e in range(1, d.edge_count + 1)]

    def reaches_all(skip):
        adj = {i: [] for i in range(n)}
        for k, (u, v) in enumerate(ends):
            if k not in skip:
                adj[u].append(v)
                adj[v].append(u)
        queue = deque([0])
        seen = {0}
        while queue:
            q = queue.popleft()
            for r in adj[q]:
                if r not in seen:
                    seen.add(r)
                    queue.append(r)
        return len(seen) == n

    if not reaches_all(()):
        return False
    return all(
        reaches_all((i, j)) for i in range(len(ends)) for j in range(i + 1, len(ends))
    )


def per_crossing_reduced_oracle(d):
    """Brute force: per crossing, one BFS per adjacent pairing of its ends.

    A crossing is nugatory when a simple closed curve meets the diagram
    only there. Such a curve separates an adjacent pair of the four ends
    (an over end with an under end) from the other pair, which we test in
    the graph with that crossing removed; O(V E) in all.
    """
    tail = {e: i for i, c in enumerate(d.crossings) for e in (c.over_out, c.under_out)}
    head = {e: i for i, c in enumerate(d.crossings) for e in (c.over_in, c.under_in)}
    adj = {i: [] for i in range(len(d.crossings))}
    for e in tail:
        adj[tail[e]].append(head[e])
        adj[head[e]].append(tail[e])

    def nugatory(ci):
        c = d.crossings[ci]
        # each end: its edge and the crossing at the edge's far end
        far = {
            "oi": (c.over_in, tail[c.over_in]),
            "oo": (c.over_out, head[c.over_out]),
            "ui": (c.under_in, tail[c.under_in]),
            "uo": (c.under_out, head[c.under_out]),
        }
        for side_a, side_b in ((("oi", "ui"), ("oo", "uo")), (("oi", "uo"), ("oo", "ui"))):
            if {far[s][0] for s in side_a} & {far[s][0] for s in side_b}:
                continue  # a loop at ci joins the two sides
            anchors = [{far[s][1] for s in side} - {ci} for side in (side_a, side_b)]
            if not anchors[0] or not anchors[1]:
                return True  # a loop at ci closes one side on itself
            queue = deque(anchors[0])
            seen = set(anchors[0])
            while queue:
                q = queue.popleft()
                for r in adj[q]:
                    if r != ci and r not in seen:
                        seen.add(r)
                        queue.append(r)
            if not seen & anchors[1]:
                return True
        return False

    return not any(nugatory(i) for i in range(len(d.crossings)))


@pytest.mark.parametrize("name", fixture_names())
def test_prime_matches_oracle_on_fixtures(name):
    d = fixture_diagram(name)
    assert d.is_prime_diagram == pairwise_prime_oracle(d)
    assert d.is_reduced == per_crossing_reduced_oracle(d)


def split_closure(w1, w2):
    """w2's strands to the right of w1's, never crossing them."""
    shifted = tuple(x + w1.strands if x > 0 else x - w1.strands for x in w2.letters)
    return braid_closure(BraidWord(w1.strands + w2.strands, w1.letters + shifted))


# mixed signs on up to 5 strands: non-alternating, kinked and split closures all occur
@settings(max_examples=60, deadline=None)
@given(closable_braids(5, 3, 16), closable_braids(5, 3, 16), closable_braids(4, 1, 8))
def test_prime_matches_oracle_random(w1, w2, w3):
    d = braid_closure(w1)
    s = connected_sum(d, braid_closure(w2))
    for x in (d, s, connected_sum(s, braid_closure(w3)), split_closure(w1, w3)):
        assert x.is_prime_diagram == pairwise_prime_oracle(x)
        assert x.is_reduced == per_crossing_reduced_oracle(x)


def two_k4_and_a_bridge():
    edges = [(a, b) for low in (0, 4) for a, b in combinations(range(low, low + 4), 2)]
    edges.append((3, 7))
    adj = [[] for _ in range(8)]
    for k, (u, v) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    return adj


def test_prime_conditions_one_at_a_time():
    # four ends at every crossing make every cut of a diagram even, so a
    # bridge needs a plain multigraph: its one small cut is edge 3-7, whose
    # tree label is 0
    assert _cut_search(two_k4_and_a_bridge()) == (False, False)
    # the summands' two joining edges: in 3_1 # 3_1 the search takes one
    # into the tree and its label is the other's single bit; in 4_1 # 3_1
    # it takes both, and their labels are equal
    tree_and_back = connected_sum(fixture_diagram("3_1"), fixture_diagram("3_1"))
    tree_and_tree = connected_sum(fixture_diagram("4_1"), fixture_diagram("3_1"))
    # two trefoils side by side: no cut vertex, but the search stops halfway
    split = braid_closure(BraidWord(4, (1, 1, 1, 3, 3, 3)))
    for d in (tree_and_back, tree_and_tree, split):
        assert d.is_reduced and not d.is_prime_diagram
    # a loop is listed twice at its crossing and cancels; only reduced sees it
    kink = from_pd(parse_pd("PD[X(2,1,1,2)]"))
    assert kink.is_prime_diagram and not kink.is_reduced
    # parallel edges: the Hopf link's four and the bigons of a pretzel
    hopf = braid_closure(parse_braid("1 1"))
    bigons = pretzel(3, 3, 3)
    for d in (hopf, bigons):
        assert d.is_reduced and d.is_prime_diagram
    for d in (tree_and_back, tree_and_tree, split, kink, hopf, bigons):
        assert d.is_prime_diagram == pairwise_prime_oracle(d)
        assert d.is_reduced == per_crossing_reduced_oracle(d)


def test_prime_and_reduced_at_2000_crossings():
    # 2000 crossings: one search takes about 0.01 s, the E + 1 searches it
    # replaced about 7 s
    d = turks_head(1000)
    assert d.is_reduced and d.is_prime_diagram


def test_disjoint_hopf_links_are_reduced_and_not_prime():
    # 2000 disjoint copies, 4000 components: checking the spans and
    # restarting the search once per piece must stay linear in the pieces
    copies = [
        f"X({4 * i + 1},{4 * i + 3},{4 * i + 2},{4 * i + 4}),"
        f"X({4 * i + 3},{4 * i + 1},{4 * i + 4},{4 * i + 2})"
        for i in range(2000)
    ]
    d = from_pd(parse_pd(f"PD[{','.join(copies)}]"))
    assert d.component_count == 4000
    assert d.is_reduced and not d.is_prime_diagram


def test_prime_deterministic_cases():
    bigons = pretzel(3, 3, 3)
    assert bigons.is_prime_diagram and pairwise_prime_oracle(bigons)
    # the two edges joining the summands are an exact 2-edge cut
    sum31 = connected_sum(fixture_diagram("3_1"), fixture_diagram("3_1"))
    assert not sum31.is_prime_diagram and not pairwise_prime_oracle(sum31)
    big = turks_head(60)
    assert big.is_prime_diagram and big.is_reduced
    kink = from_pd(parse_pd("PD[X(2,1,1,2)]"))
    # the kink of 1 1 1 2 sits on no cut vertex, so only its loop shows it
    kinked = braid_closure(parse_braid("1 1 1 2"))
    # 1 1 1 2 3 3 3 relabeled so that its nugatory crossing, a cut vertex
    # with no loop, is crossing 0 and roots the search
    rooted = from_pd(parse_pd(
        "PD[X(9,12,10,13),X(13,10,14,11),X(11,14,12,1),X(8,1,9,2),"
        "X(5,2,6,3),X(3,6,4,7),X(7,4,8,5)]"
    ))
    assert rooted.crossings[0].over_in == 1 and not rooted.is_reduced
    for d in (bigons, sum31, big, pretzel(3, 3, -2), kink, kinked, rooted):
        assert d.is_reduced == per_crossing_reduced_oracle(d)
        assert d.mirrored().is_prime_diagram == d.is_prime_diagram
        assert d.mirrored().is_reduced == d.is_reduced


twist_lists = st.lists(
    st.integers(min_value=1, max_value=5).flatmap(lambda t: st.sampled_from([t, -t])),
    min_size=1,
    max_size=5,
)


@st.composite
def source_diagrams(draw):
    """Mixed-sign braid closures on 2-5 strands (several components among
    them), pretzels, connected sums, split closures and fixtures."""
    kind = draw(st.sampled_from(("braid", "pretzel", "sum", "split", "fixture")))
    if kind == "braid":
        return braid_closure(draw(closable_braids(5, 1, 16)))
    if kind == "pretzel":
        return pretzel(*draw(twist_lists))
    if kind == "sum":
        d = braid_closure(draw(closable_braids(5, 1, 12)))
        d = connected_sum(d, pretzel(*draw(twist_lists)))
        return connected_sum(d, braid_closure(draw(closable_braids(4, 1, 8))))
    if kind == "split":
        return split_closure(draw(closable_braids(4, 1, 8)), draw(closable_braids(4, 1, 8)))
    return fixture_diagram(draw(st.sampled_from(fixture_names())))


def assert_tables_match_the_oracle(d):
    """Every field read off the label tables equals the dict oracle's."""
    succ, _, _ = oracles.strand_maps(d)
    assert [d.succ(e) for e in range(1, d.edge_count + 1)] == [succ[e] for e in sorted(succ)]
    assert d.is_alternating == oracles.is_alternating(d)
    assert d.arcs == oracles.arcs(d)
    assert d.crossing_arcs == oracles.crossing_arcs(d)
    assert d.joining_arcs == tuple(
        sorted({oracles.arc_of(d.arcs, e) for pair in d.junction_edge_pairs for e in pair})
    )
    assert d._multigraph == oracles.multigraph(d)
    assert (d.is_reduced, d.is_prime_diagram) == _cut_search(oracles.multigraph(d))
    assert _passages(d) == oracles.passages(d)


def shuffled_code(d, rnd):
    quads = list(d.to_pd().crossings)
    rnd.shuffle(quads)
    return PdCode(tuple(quads))


@settings(max_examples=80, deadline=None)
@given(source_diagrams(), st.randoms(use_true_random=False))
def test_from_pd_and_its_tables_match_the_dict_oracle(d, rnd):
    code = shuffled_code(d, rnd)
    got = from_pd(code)
    assert got == oracles.from_pd(code)
    for x in (got, d, d.mirrored()):
        assert_tables_match_the_oracle(x)


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_matches_the_dict_oracle(name):
    d = fixture_diagram(name)
    code = shuffled_code(d, random.Random(name))
    assert from_pd(code) == oracles.from_pd(code)
    assert_tables_match_the_oracle(d)


@settings(max_examples=60, deadline=None)
@given(closable_braids(5, 1, 16), closable_braids(4, 1, 8), twist_lists)
def test_constructors_match_the_dict_oracle(w1, w2, twists):
    d1, d2, p = braid_closure(w1), braid_closure(w2), pretzel(*twists)
    assert d1 == oracles.braid_closure(w1) and d2 == oracles.braid_closure(w2)
    assert p == oracles.pretzel(*twists)
    for a, b in ((d1, d2), (d1, p), (p, d1), (connected_sum(d1, p), d2)):
        assert connected_sum(a, b) == oracles.connected_sum(a, b)


@settings(max_examples=80, deadline=None)
@given(source_diagrams(), st.randoms(use_true_random=False))
def test_swapped_labels_fail_on_both_sides_or_agree(d, rnd):
    # two labels swapped keep every label used twice; when the strands can
    # no longer close, both the strand walk and the dict oracle refuse
    flat = [x for quad in shuffled_code(d, rnd).crossings for x in quad]
    i, j = rnd.sample(range(len(flat)), 2)
    flat[i], flat[j] = flat[j], flat[i]
    code = PdCode(tuple(zip(*[iter(flat)] * 4)))
    try:
        want = oracles.from_pd(code)
    except DiagramError:
        with pytest.raises(DiagramError, match="strands do not close up at edge"):
            from_pd(code)
    else:
        assert from_pd(code) == want
