from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkh.codec import parse_braid
from gkh.coloring import (
    ColoringAnalysis,
    ColoringError,
    EnumerationLimitError,
    FoxColoring,
    ZeroDeterminantError,
    coloring_group,
    coloring_matrix,
    count_colorings,
    crossing_matrix,
    distinguishing_report,
    enumerate_colorings,
    is_fox_coloring,
    link_determinant,
)
from gkh.diagram import braid_closure
from gkh.fixtures import fixture, fixture_diagram, fixture_names
from gkh.linalg import IntMatrix, determinant
from gkh.verify import random_alternating_diagram, verify_gkh
from oracles import brute_force_colorings, transpose

TREFOIL = fixture_diagram("3_1")

# sampled diagrams for property tests: every nonzero-determinant fixture
# plus a band of fuzzed reduced alternating prime diagrams
PROPERTY_NAMES = [n for n in fixture_names() if fixture(n).determinant != 0]


def property_diagram(index: int):
    if index < len(PROPERTY_NAMES):
        return fixture_diagram(PROPERTY_NAMES[index])
    return random_alternating_diagram(9, seed=index)


def test_trefoil_crossing_matrix():
    assert crossing_matrix(TREFOIL).row_list() == [
        [2, -1, -1],
        [-1, 2, -1],
        [-1, -1, 2],
    ]


def test_trefoil_reduced_matrix_and_determinant():
    cm = coloring_matrix(TREFOIL)
    assert cm.base_arc == 2
    assert cm.c.row_list() == [[2, -1], [-1, 2]]
    assert link_determinant(TREFOIL) == 3
    assert coloring_group(TREFOIL).invariant_factors == (3,)


def test_trefoil_coloring_matrix():
    cm = coloring_matrix(TREFOIL)
    assert cm.modulus == 3
    assert cm.l.row_list() == [[2, 1], [1, 2]]
    assert cm.extended_rows() == ((2, 1), (1, 2), (0, 0))


def test_trefoil_distinguishing_report():
    r = distinguishing_report(TREFOIL)
    assert r.separators == ((0, 1, 0), (0, 2, 0), (1, 2, 0))
    assert ColoringAnalysis(TREFOIL).perfect_columns == (0, 1)
    assert (r.t, r.t_columns) == (1, (0,))
    assert r.injective and not r.failures


def test_trefoil_minimal_distinguishing_set():
    (f,) = ColoringAnalysis(TREFOIL).minimal_set
    assert f == FoxColoring(3, (1, 2, 0))


def test_trefoil_counts():
    assert [count_colorings(TREFOIL, k) for k in range(2, 7)] == [2, 9, 4, 5, 18]


def test_trefoil_enumeration_matches_count():
    found = enumerate_colorings(TREFOIL, 3)
    assert len(found) == len(set(found)) == 9
    assert all(is_fox_coloring(TREFOIL, f.colors, 3) for f in found)
    assert FoxColoring(3, (1, 2, 0)) in found


@pytest.mark.parametrize("name", fixture_names())
def test_enumeration_is_sorted_and_equals_brute_force(name):
    # the order no longer depends on V: the listing is sorted by colors
    d = fixture_diagram(name)
    for k in (2, 3, 5, 7):
        if k ** len(d.arcs) <= 1 << 16:
            found = [f.colors for f in enumerate_colorings(d, k)]
            assert found == sorted(found), (name, k)
            assert found == brute_force_colorings(d, k), (name, k)


def test_hopf_degenerate_rows():
    # both crossings have over-arc equal to one under-arc
    hopf = fixture_diagram("hopf")
    assert crossing_matrix(hopf).row_list() == [[2, -2], [-2, 2]]
    assert link_determinant(hopf) == 2


def test_fixture_determinants_and_groups():
    for name in fixture_names():
        e = fixture(name)
        d = fixture_diagram(name)
        assert link_determinant(d) == e.determinant, name
        if e.determinant != 0:
            assert coloring_group(d).invariant_factors == e.factors, name
        else:
            with pytest.raises(ZeroDeterminantError):
                coloring_group(d)


def test_determinant_ignores_base_choice():
    d = fixture_diagram("7_7")
    dets = {abs(determinant(ColoringAnalysis(d, base).c)) for base in range(len(d.arcs))}
    assert dets == {21}


def test_group_ignores_base_choice():
    d = fixture_diagram("w6")
    groups = {ColoringAnalysis(d, base).group.invariant_factors for base in range(4)}
    assert groups == {(40, 8)}


def test_reduced_matrix_requires_square():
    # in the closure of s1 s1^-1 one component passes only over: 2 crossings, 3 arcs
    wide = braid_closure(parse_braid("1 -1"))
    assert crossing_matrix(wide).row_list() == [[2, -1, -1], [2, -1, -1]]
    with pytest.raises(ColoringError):
        ColoringAnalysis(wide)
    assert link_determinant(wide) == 0
    # the split link is square but its determinant is zero
    assert ColoringAnalysis(fixture_diagram("split")).c.row_list() == [[0]]
    assert link_determinant(fixture_diagram("split")) == 0


def test_reduced_matrix_base_range():
    assert ColoringAnalysis(TREFOIL, 0).c.row_list() == [[2, -1], [-1, 2]]
    with pytest.raises(ColoringError):
        ColoringAnalysis(TREFOIL, 3)
    with pytest.raises(ColoringError):
        ColoringAnalysis(TREFOIL, -1)


def test_zero_by_zero_determinant_is_one():
    kink = fixture_diagram("kink")
    assert len(kink.arcs) == 1
    assert link_determinant(kink) == 1
    assert coloring_group(kink).invariant_factors == ()


def test_is_fox_coloring_validates_input():
    with pytest.raises(ColoringError):
        is_fox_coloring(TREFOIL, (1, 2), 3)
    with pytest.raises(ColoringError):
        is_fox_coloring(TREFOIL, (1, 2, 0), 0)
    assert is_fox_coloring(TREFOIL, (1, 2, 0), 3)
    assert not is_fox_coloring(TREFOIL, (1, 2, 1), 3)


def test_enumeration_limit_carries_count():
    # two kinks: C' is the 2x2 zero matrix, so 5000**2 colorings
    d = fixture_diagram("split")
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_colorings(d, 5000)
    assert info.value.count == count_colorings(d, 5000) == 25_000_000
    assert info.value.limit == 1 << 24


def test_enumeration_respects_custom_limit():
    with pytest.raises(EnumerationLimitError):
        enumerate_colorings(TREFOIL, 3, limit=8)
    # the limit bounds the count, 6075, not the 15**15 assignments
    d = fixture_diagram("p33333")
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_colorings(d, 15, limit=6074)
    assert info.value.count == 6075
    found = enumerate_colorings(d, 15, limit=6075)
    assert len(set(found)) == 6075 == count_colorings(d, 15)


def test_count_past_the_word_size_builds_no_range():
    # C'(3_1) has Smith diagonal (1, 3, 0), so the count is gcd(3, k) * k,
    # above 2^63 here, where len() of a range raises OverflowError
    k = 10**20
    assert count_colorings(TREFOIL, k) == k
    assert count_colorings(TREFOIL, 3 * k) == 9 * k
    with pytest.raises(EnumerationLimitError) as info:
        enumerate_colorings(TREFOIL, k)
    assert info.value.count == k


@pytest.mark.parametrize("k", [0, -3])
def test_counting_rejects_modulus_below_one(k):
    for count_or_enumerate in (count_colorings, enumerate_colorings):
        with pytest.raises(ColoringError, match="modulus must be >= 1"):
            count_or_enumerate(TREFOIL, k)


def test_minimal_set_failures_name_the_unseparated_pair():
    square = fixture_diagram("square")
    assert ColoringAnalysis(square).minimal_set_failures == ((1, 5),)
    assert not verify_gkh(square).part_c


def test_base_out_of_range():
    with pytest.raises(ColoringError):
        coloring_matrix(TREFOIL, base=3)


@given(st.integers(0, len(PROPERTY_NAMES) + 40))
@settings(max_examples=40, deadline=None)
def test_crossing_rows_sum_to_zero(index):
    d = property_diagram(index)
    for row in crossing_matrix(d).row_list():
        assert sum(row) == 0


@given(st.integers(0, len(PROPERTY_NAMES) + 40))
@settings(max_examples=40, deadline=None)
def test_l_matrix_inverts_c(index):
    d = property_diagram(index)
    cm = coloring_matrix(d)
    product = cm.c.dense() @ cm.l
    n1 = cm.modulus
    size = cm.c.rows
    assert product == IntMatrix.from_rows(
        [[n1 if i == j else 0 for j in range(size)] for i in range(size)]
    )


@given(st.integers(0, len(PROPERTY_NAMES) + 40))
@settings(max_examples=40, deadline=None)
def test_l_columns_are_colorings(index):
    d = property_diagram(index)
    cm = coloring_matrix(d)
    for j in range(cm.l.cols):
        colors = [row[j] for row in cm.extended_rows()]
        assert is_fox_coloring(d, colors, cm.modulus)


@given(st.integers(0, len(PROPERTY_NAMES) + 40))
@settings(max_examples=40, deadline=None)
def test_mirror_transposes_crossing_matrix(index):
    d = property_diagram(index)
    if not d.is_alternating:
        return
    assert crossing_matrix(d.mirrored()) == transpose(crossing_matrix(d))


@given(st.integers(0, len(PROPERTY_NAMES) + 40), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_count_matches_invariant_factors(index, k):
    from math import gcd, prod

    d = property_diagram(index)
    factors = coloring_group(d).invariant_factors
    assert count_colorings(d, k) == k * prod(gcd(n, k) for n in factors)


@given(st.integers(0, len(PROPERTY_NAMES) + 40))
@settings(max_examples=40, deadline=None)
def test_minimal_set_size_is_group_rank(index):
    d = property_diagram(index)
    group = coloring_group(d)
    analysis = ColoringAnalysis(d)
    if group.s == 0:
        assert analysis.minimal_set == ()
        return
    if d.is_prime_diagram and d.is_alternating:
        assert analysis.minimal_set_failures == ()
    chosen = analysis.minimal_set
    assert len(chosen) == group.s
    assert all(f.modulus == group.annihilator for f in chosen)
