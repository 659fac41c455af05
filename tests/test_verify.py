from __future__ import annotations

import random
import tracemalloc
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkh.coloring
from gkh import _record
from gkh.codec import BraidWord, parse_pd, serialize_pd
from gkh.coloring import (
    ColoringAnalysis,
    ColoringError,
    ZeroDeterminantError,
    link_determinant,
)
from gkh.diagram import braid_closure, from_pd
from gkh.fixtures import fixture_diagram, fixture_names
from gkh.linalg import smith_normal_form
from gkh.verify import (
    _MAX_CROSSINGS,
    GenerationError,
    VerifyError,
    hypotheses_of,
    random_alternating_diagram,
    verify_connected_sum,
    verify_gkh,
)
from oracles import (
    bareiss_determinant,
    block_diag,
    brute_force_coloring_count,
    count_colorings,
    dense_smith_normal_form,
    is_fox_coloring,
)
from test_diagram import closable_braids

# name -> (t, t_columns, s, perfect column count)
EXPECTED_REPORTS = {
    "3_1": (1, (0,), 1, 2),
    "4_1": (1, (0,), 1, 3),
    "5_2": (1, (0,), 1, 4),
    "7_7": (1, (0,), 1, 5),
    "7_7b": (1, (0,), 1, 5),
    "10_123": (1, (2,), 2, 1),
    "w6": (1, (3,), 2, 2),
    "p33333": (3, (1, 4, 6), 4, 0),
    "p3336": (2, (4, 7), 3, 0),
}


def test_fixture_reports_frozen():
    for name, (t, t_columns, s, perfect) in EXPECTED_REPORTS.items():
        r = verify_gkh(fixture_diagram(name), name=name)
        assert r.passed and r.guaranteed and r.pseudo_free, name
        perfect_columns = ColoringAnalysis(fixture_diagram(name)).perfect_columns
        assert (r.t, r.t_columns, r.s, len(perfect_columns)) == (
            t,
            t_columns,
            s,
            perfect,
        ), name
        assert r.s < len(fixture_diagram(name).crossings), name
        assert len(r.distinguishing) == r.s, name


def test_part_implications():
    # the three parts are loyal to each other: b <=> a and c => b
    for name in ["3_1", "w6", "p33333", "square", "granny"]:
        r = verify_gkh(fixture_diagram(name), name=name)
        assert r.part_a == r.part_b, name
        if r.part_c:
            assert r.part_b, name


def test_square_knot_fails_on_junction_pair():
    sq = fixture_diagram("square")
    r = verify_gkh(sq, name="square")
    assert not r.guaranteed  # composite, so primeness fails
    assert not r.passed
    assert r.failures == ((1, 5),)
    assert r.failures == sq.junction_arc_pairs
    assert r.t is None and r.t_columns == ()


def test_hypotheses_labels():
    conway = hypotheses_of(fixture_diagram("conway"))
    assert not conway.alternating and conway.reduced and conway.prime
    assert conway.determinant == 1 and not conway.satisfied
    kink = hypotheses_of(fixture_diagram("kink"))
    assert kink.alternating and not kink.reduced
    square = hypotheses_of(fixture_diagram("square"))
    assert square.alternating and square.reduced and not square.prime


def test_verify_rejects_zero_determinant():
    with pytest.raises(ZeroDeterminantError):
        verify_gkh(fixture_diagram("split"))


def test_verify_names_a_zero_determinant_before_a_bad_base():
    # the determinant is decided first, at any base, as the CLI reports it
    with pytest.raises(ZeroDeterminantError, match="nothing to verify"):
        verify_gkh(fixture_diagram("split"), base=2)
    with pytest.raises(ColoringError, match="base arc 9 out of range for 3 arcs"):
        verify_gkh(fixture_diagram("3_1"), base=9)


def test_second_seven_seven_diagram():
    # same knot as 7_7 drawn with a different arc order; in that order the
    # individually perfect columns sit at 2, 4, 5, 6 one-based
    d = fixture_diagram("7_7b")
    r = verify_gkh(d, name="7_7b", base=2)
    assert r.passed
    order = (0, 5, 6, 3, 2, 4, 1)
    ours = [a for a in range(7) if a != 2]
    tabulated = [a for a in range(7) if a != 6]
    translated = {
        tabulated.index(order[ours[j]]) for j in ColoringAnalysis(d, 2).perfect_columns
    }
    assert translated == {1, 3, 4, 5}
    # one coloring using the seven values 0,1,2,4,7,12,20 separates all arcs
    shown = (2, 7, 12, 20, 4, 1, 0)
    assert is_fox_coloring(d, shown, 21)
    assert len(set(shown)) == 7


def test_connected_sum_square():
    r = verify_connected_sum(
        [fixture_diagram("3_1_mirror"), fixture_diagram("3_1")]
    )
    assert r.passed
    assert r.group.invariant_factors == (3, 3)
    assert r.direct_sum_factors == (3, 3)
    assert r.junction_pairs == ((1, 5),)
    assert r.failures == ((1, 5),)
    assert r.joining_equal


def test_connected_sum_mixed_parts():
    r = verify_connected_sum([fixture_diagram("3_1"), fixture_diagram("4_1")])
    assert r.passed
    assert r.group.invariant_factors == (15,)
    assert r.junction_pairs == ((2, 5),)


def test_connected_sum_three_parts():
    r = verify_connected_sum(
        [fixture_diagram("3_1"), fixture_diagram("4_1"), fixture_diagram("5_2")]
    )
    assert r.passed
    assert r.group.invariant_factors == (105,)
    assert r.junction_pairs == ((2, 5), (6, 11))


def test_connected_sum_single_part_degenerates():
    r = verify_connected_sum([fixture_diagram("4_1")])
    assert r.passed
    assert r.group.invariant_factors == (5,)
    assert r.junction_pairs == () and r.failures == ()


def test_connected_sum_errors():
    with pytest.raises(VerifyError):
        verify_connected_sum([])
    with pytest.raises(ZeroDeterminantError):
        verify_connected_sum([fixture_diagram("split")])


SUMMAND_FIXTURES = ["3_1", "3_1_mirror", "4_1", "5_2", "7_7", "10_123", "w6", "conway"]
summands = st.one_of(
    st.integers(0, 10_000).map(lambda seed: random_alternating_diagram(8, seed)),
    st.sampled_from(SUMMAND_FIXTURES).map(fixture_diagram),
)


@given(st.lists(summands, min_size=2, max_size=3))
@settings(max_examples=25, deadline=None)
def test_connected_sum_factors_match_block_diagonal_oracle(parts):
    r = verify_connected_sum(parts)
    blocks = block_diag(ColoringAnalysis(part).c.dense() for part in parts)
    expected = smith_normal_form(blocks).diagonal
    assert r.direct_sum_factors == tuple(sorted((x for x in expected if x > 1), reverse=True))
    assert r.group_matches


SMALL_FIXTURES = [
    "3_1",
    "3_1_mirror",
    "4_1",
    "5_2",
    "7_7",
    "7_7b",
    "8_19",
    "square",
    "granny",
    "hopf",
    "kink",
    "split",
]


def test_brute_force_matches_closed_form():
    for name in SMALL_FIXTURES:
        d = fixture_diagram(name)
        assert len(d.arcs) <= 8, name
        for k in range(2, 7):
            brute = brute_force_coloring_count(d, k)
            assert brute == count_colorings(d, k), (name, k)


def test_brute_force_examples():
    assert brute_force_coloring_count(fixture_diagram("3_1"), 3) == 9
    assert brute_force_coloring_count(fixture_diagram("hopf"), 2) == 4


def test_brute_force_respects_limit():
    with pytest.raises(VerifyError):
        brute_force_coloring_count(fixture_diagram("p33333"), 5)


def test_random_diagram_deterministic():
    a = random_alternating_diagram(8, seed=1)
    b = random_alternating_diagram(8, seed=1)
    assert serialize_pd(a.to_pd()) == serialize_pd(b.to_pd())


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_random_diagram_properties(seed):
    d = random_alternating_diagram(10, seed)
    assert d.is_alternating and d.is_reduced and d.is_prime_diagram
    assert 3 <= len(d.crossings) <= 10
    r = verify_gkh(d)
    assert r.passed and r.pseudo_free


@given(st.integers(0, 10**6), st.integers(3, 32))
@settings(max_examples=60, deadline=None)
def test_random_diagram_determinant_is_nonzero(seed, max_crossings):
    # the generator filters on the diagram predicates alone; a connected
    # alternating diagram counts the spanning trees of its Tait graph
    d = random_alternating_diagram(max_crossings, seed)
    assert link_determinant(d) != 0


def test_random_diagram_rejects_small_bound():
    with pytest.raises(GenerationError):
        random_alternating_diagram(2, seed=0)


def test_random_diagram_rejects_a_bound_above_the_limit():
    # drawing at the limit only builds the braid (milliseconds); one crossing
    # more, or 10^8, is refused before anything is drawn
    assert len(random_alternating_diagram(_MAX_CROSSINGS, seed=0).crossings) <= _MAX_CROSSINGS
    for bound in (_MAX_CROSSINGS + 1, 10**8):
        with pytest.raises(GenerationError, match=f"above the limit of {_MAX_CROSSINGS}"):
            random_alternating_diagram(bound, seed=0)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_report_ignores_base_arc_and_mirroring(seed):
    # t and the inverse-column pseudo count are left out: both read the
    # columns of L, which change with the base arc. At seed 4440 t is 1 at
    # base 0 and 2 at base 1, and 2 on the mirror at the default base.
    d = random_alternating_diagram(12, seed)

    def summary(report):
        return (report.group, report.passed, report.s, report.failures)

    expected = summary(verify_gkh(d))
    for base in range(len(d.arcs)):
        assert summary(verify_gkh(d, base=base)) == expected, base
    assert summary(verify_gkh(d.mirrored())) == expected


def random_braid_diagrams(count, seed=8):
    """Closures of random mixed-sign braids with nonzero determinant, so
    non-examples (failing pairs, pseudos) are drawn as well."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        strands = rng.randint(2, 4)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(3, 9))
        )
        if {abs(x) for x in letters} != set(range(1, strands)):
            continue
        d = braid_closure(BraidWord(strands, letters))
        if link_determinant(d):
            found.append(d)
    return found


REPORT_DIAGRAMS = [
    fixture_diagram(n) for n in fixture_names() if link_determinant(fixture_diagram(n))
] + [random_alternating_diagram(10, seed) for seed in range(20)] + random_braid_diagrams(20)


@pytest.mark.parametrize("index", range(len(REPORT_DIAGRAMS)))
def test_report_matches_the_dense_smith_form_at_every_base(index, monkeypatch):
    # every field but the minimal set is read off L or the diagonal, which
    # no choice of U and V changes; the minimal set is another basis of the
    # same coloring group, so part_c, the pairs it separates, holds alike
    d = REPORT_DIAGRAMS[index]
    bases = range(len(d.arcs))
    sparse = [verify_gkh(d, base=b) for b in bases]
    monkeypatch.setattr(gkh.coloring, "smith_normal_form", dense_smith_normal_form)
    dense = [verify_gkh(d, base=b) for b in bases]
    for base, (report, expected) in enumerate(zip(sparse, dense)):
        for name in _record.fields(report):
            if name != "distinguishing":
                assert getattr(report, name) == getattr(expected, name), (base, name)
        assert len(report.distinguishing) == len(expected.distinguishing) == report.s


def assert_certified_diagonal_is_the_determinant(d):
    """At every base arc, the product of the certified Smith diagonal is
    |det C| by Bareiss elimination on the dense C, kept as an independent
    oracle, and verify_gkh's hypotheses carry link_determinant's value."""
    expected = link_determinant(d)
    for base in range(len(d.arcs)):
        analysis = ColoringAnalysis(d, base)
        oracle = abs(bareiss_determinant(analysis.c.dense()))
        assert prod(analysis.snf.diagonal) == oracle == expected, base
        if expected:
            assert verify_gkh(d, base=base).hypotheses.determinant == expected, base


@pytest.mark.parametrize("index", range(len(REPORT_DIAGRAMS)))
def test_certified_diagonal_is_the_multi_modular_determinant(index):
    assert_certified_diagonal_is_the_determinant(REPORT_DIAGRAMS[index])


@settings(max_examples=60, deadline=None)
@given(closable_braids(4, 1, 14))
def test_random_closures_certified_diagonal_is_the_multi_modular_determinant(word):
    d = braid_closure(word)
    try:
        ColoringAnalysis(d)
    except ZeroDeterminantError:  # C' is not square
        return
    assert_certified_diagonal_is_the_determinant(d)


def test_hypotheses_of_disjoint_hopf_links_stays_sparse():
    # 250 disjoint Hopf links, 500 crossings: the dense crossing matrix and
    # its reduced copy took 8.1 MB at the traced peak; the sparse rows and
    # their certified Smith form take about 0.8 MB
    crossings = ",".join(
        f"X({4 * i + 1},{4 * i + 3},{4 * i + 2},{4 * i + 4}),"
        f"X({4 * i + 3},{4 * i + 1},{4 * i + 4},{4 * i + 2})"
        for i in range(250)
    )
    d = from_pd(parse_pd(f"PD[{crossings}]"))
    d.is_reduced, d.is_prime_diagram  # the cut search is not what is measured
    tracemalloc.start()
    try:
        hyp = hypotheses_of(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (hyp.determinant, hyp.components) == (0, 500)
    assert peak < 2_000_000, f"{peak} bytes at the peak"
