"""The distinguishing report and its minimum cover against the exhaustive oracles.

ColoringAnalysis.report keeps its column masks as bitsets, stops at the
first perfect column when there is one (t = 1) and otherwise finds t with
a pruned lexicographic search; tests/oracles.py compares every arc pair
on every column and tries every column subset in order. Both must give
the same masks for the columns read, separators, perfect columns, t and
first witness.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkh.coloring
import gkh.verify
from gkh import _record
from gkh.cli import main
from gkh.codec import BraidWord, parse_pd, serialize_pd
from gkh.coloring import (
    ColoringAnalysis,
    CoverBudgetError,
    DistinguishingReport,
    _minimum_cover,
    distinguishing_report,
)
from gkh.diagram import braid_closure, connected_sum, from_pd, pretzel, turks_head
from gkh.fixtures import fixture, fixture_diagram, fixture_names
from gkh.verify import random_alternating_diagram, verify_gkh
from oracles import minimum_cover, pair_separators

NONZERO_FIXTURES = [n for n in fixture_names() if fixture(n).determinant != 0]
PRETZELS = [(3,) * 8, (3,) * 9, (3,) * 10, (3,) * 9 + (5,)]
# a reduced alternating prime 4-strand braid of 52 crossings, n1 = 1384806190
BRAID_52 = (
    1, -2, 1, 1, 3, 3, -2, 3, 3, 3, 1, 1, 3, -2, 1, 1, -2, -2, 1, -2, 3, 3, 1, 1, -2, 3,
    1, -2, 1, -2, -2, 3, 1, -2, 1, -2, -2, 1, -2, 1, 3, 3, 3, 1, 1, 3, 3, -2, 3, 1, 3, 3,
)


def assert_report_matches_oracles(d):
    for base in range(len(d.arcs)):
        analysis = ColoringAnalysis(d, base)
        report = analysis.report
        separators, masks, perfect = pair_separators(analysis.extended_rows())
        assert report.separators == separators
        assert analysis.perfect_columns == perfect
        # the report reads up to the first perfect column, whose mask is full
        read = perfect[0] + 1 if perfect else len(masks)
        assert report.masks == tuple(masks[:read])
        if perfect:
            assert report.masks[-1] == (1 << len(separators)) - 1
        if report.failures:
            assert (report.t, report.t_columns) == (None, ())
        else:
            assert (report.t, report.t_columns) == minimum_cover(masks, len(separators))


def test_failures_are_kept_and_a_replaced_report_finds_its_own():
    report = ColoringAnalysis(fixture_diagram("8_19")).report
    assert report.failures is report.failures
    assert report.failures == ((0, 3), (0, 4), (0, 7), (1, 5), (2, 6), (3, 4), (3, 7), (4, 7))
    # pair (0, 1) is bit 0: cleared in every mask, no column separates it
    replaced = _record.replace(report, masks=tuple([m & ~1 for m in report.masks]))
    assert replaced.failures == ((0, 1),) + report.failures
    assert not replaced.injective


@settings(max_examples=30, deadline=None)
@given(st.integers(12, 16), st.integers(0, 10_000))
def test_random_alternating_report_matches_oracles(max_crossings, seed):
    assert_report_matches_oracles(random_alternating_diagram(max_crossings, seed))


@pytest.mark.parametrize("name", NONZERO_FIXTURES)
def test_fixture_report_matches_oracles(name):
    assert_report_matches_oracles(fixture_diagram(name))


@pytest.mark.parametrize("twists", PRETZELS, ids=lambda t: "pretzel" + "".join(map(str, t)))
def test_pretzel_report_matches_oracles(twists):
    assert_report_matches_oracles(pretzel(*twists))


# turks_head(4) and (8) have no perfect column at base 0 (t = 2); 5, 9 and
# 12 have one past column 0 at base 0 (t = 1)
@pytest.mark.parametrize("n", [4, 5, 8, 9, 12])
def test_turks_head_report_matches_oracles(n):
    assert_report_matches_oracles(turks_head(n))


def refuse_cover(masks, pair_count):
    raise AssertionError("a perfect column is a cover of size 1; no search is needed")


@pytest.mark.parametrize(
    "d, witness",
    [
        (turks_head(25), 3),
        (braid_closure(BraidWord(4, BRAID_52)), 0),
    ],
    ids=["turks_head(25)", "braid4x52"],
)
def test_perfect_column_is_the_cover_without_a_search(monkeypatch, d, witness):
    monkeypatch.setattr(gkh.coloring, "_minimum_cover", refuse_cover)
    analysis = ColoringAnalysis(d)
    report = analysis.report
    separators, _, perfect = pair_separators(analysis.extended_rows())
    assert perfect[0] == witness
    assert (report.t, report.t_columns) == (1, (witness,))
    assert report.separators == separators
    assert analysis.perfect_columns == perfect


@pytest.fixture
def verify_analyses(monkeypatch):
    """The ColoringAnalysis objects verify_gkh makes, in order."""
    made = []

    class Recorded(ColoringAnalysis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(gkh.verify, "ColoringAnalysis", Recorded)
    return made


@pytest.mark.parametrize(
    "d, t_columns, built",
    [
        (turks_head(25), (3,), 4),
        (braid_closure(BraidWord(4, BRAID_52)), (0,), 1),
        (pretzel(3, 3, 3, 3, 3), (1, 4, 6), None),  # no perfect column: every column
    ],
    ids=["turks_head(25)", "braid4x52", "pretzel(3,3,3,3,3)"],
)
def test_verify_builds_columns_up_to_the_first_perfect_one(verify_analyses, d, t_columns, built):
    report = verify_gkh(d)
    assert report.passed and report.t_columns == t_columns
    (analysis,) = verify_analyses
    n = analysis.c.cols
    assert len(analysis._built_columns) == (n if built is None else built)
    rows = analysis.extended_rows()
    assert len(analysis._built_columns) == n
    assert len(rows) == analysis.arc_count and all(len(row) == n for row in rows)


def refuse_separators(report):
    raise AssertionError("the verdict reads the failures off the masks, not the separators")


@pytest.mark.parametrize(
    "d, passed",
    [
        (turks_head(25), True),
        (braid_closure(BraidWord(4, BRAID_52)), True),
        (pretzel(3, 3, 3, 3, 3), True),  # no perfect column: the cover search runs
        (fixture_diagram("square"), False),  # pair (1, 5) is never separated
    ],
    ids=["turks_head(25)", "braid4x52", "pretzel(3,3,3,3,3)", "square"],
)
def test_verify_and_distinguish_build_no_separators(monkeypatch, capsys, d, passed):
    pd = serialize_pd(d.to_pd())
    expected = verify_gkh(d)
    assert main(["distinguish", "--pd", pd, "--json"]) == 0
    distinguished = capsys.readouterr().out
    monkeypatch.setattr(DistinguishingReport, "separators", property(refuse_separators))
    report = verify_gkh(d)
    assert report == expected and report.passed == passed
    assert bool(report.failures) != passed
    assert main(["distinguish", "--pd", pd, "--json"]) == 0
    assert capsys.readouterr().out == distinguished


def test_cover_search_builds_a_mask_for_every_column(monkeypatch):
    seen = []

    def spy(masks, pair_count):
        seen.append(len(masks))
        return _minimum_cover(masks, pair_count)

    monkeypatch.setattr(gkh.coloring, "_minimum_cover", spy)
    analysis = ColoringAnalysis(pretzel(*[3] * 8))
    analysis.report  # no column is perfect, so the cover search runs
    assert analysis.perfect_columns == ()
    assert seen == [analysis.c.cols]


def test_no_arc_pairs_need_no_columns():
    # a one-crossing kink has one arc, so C is 0 x 0 and there is nothing to separate
    analysis = ColoringAnalysis(from_pd(parse_pd("X[1,2,2,1]")))
    report = analysis.report
    assert (report.arc_count, report.separators, analysis.perfect_columns) == (1, (), ())
    assert (report.t, report.t_columns) == (0, ())


@pytest.mark.parametrize(
    "masks, answer",
    [
        ([0b1, 0b10, 0b100, 0b1000], (4, (0, 1, 2, 3))),  # every column, to the last
        ([0b0011, 0b0001, 0b0100, 0b1100], (2, (0, 3))),
        ([0b0001, 0b0010, 0b1100, 0b0011], (2, (2, 3))),  # the last two columns only
        ([0b1111], (1, (0,))),
        ([0b01, 0b11, 0b10], (1, (1,))),  # columns 0 and 2 lie inside a later column only
        ([0b0011, 0b1100, 0b0111], (2, (0, 1))),  # kept inside a later column: in the witness
        ([0b0111, 0b0110, 0b1001], (2, (0, 2))),  # column 1 lies inside the earlier column 0
        ([0b1100, 0b0011, 0b0011], (2, (0, 1))),  # equal masks: the witness uses the first
    ],
)
def test_minimum_cover_small_cases(masks, answer):
    pair_count = max(masks).bit_length()
    assert _minimum_cover(masks, pair_count) == answer == minimum_cover(masks, pair_count)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 10) - 1), min_size=1, max_size=9))
def test_minimum_cover_matches_exhaustive_search(masks):
    # the last column takes the pairs no other column covers, so a cover exists
    union = 0
    for mask in masks:
        union |= mask
    masks[-1] |= ((1 << 10) - 1) ^ union
    assert _minimum_cover(masks, 10) == minimum_cover(masks, 10)


@st.composite
def masks_with_dominated_columns(draw):
    """Random masks, then copies and subsets of earlier and later columns spliced in."""
    full = (1 << 10) - 1
    masks = draw(st.lists(st.integers(0, full), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        source = draw(st.sampled_from(masks))
        copy = source if draw(st.booleans()) else source & draw(st.integers(0, full))
        # before or after its source, so the dominating column is earlier or later
        masks.insert(draw(st.integers(0, len(masks))), copy)
    union = 0
    for mask in masks:
        union |= mask
    masks[draw(st.integers(0, len(masks) - 1))] |= full ^ union
    return masks


@settings(max_examples=300, deadline=None)
@given(masks_with_dominated_columns())
def test_minimum_cover_with_dominated_columns_matches_exhaustive_search(masks):
    assert _minimum_cover(masks, 10) == minimum_cover(masks, 10)


@pytest.mark.parametrize(
    "k, t, columns",
    [
        (11, 7, (1, 4, 6, 13, 16, 22, 25)),
        (12, 8, (0, 4, 10, 13, 19, 22, 28, 31)),
        (13, 8, (1, 4, 10, 13, 19, 22, 28, 31)),
        (14, 9, (0, 7, 10, 16, 19, 25, 28, 34, 37)),
        (15, 10, (0, 1, 7, 10, 16, 19, 25, 28, 34, 37)),
        (16, 10, (4, 7, 13, 16, 22, 25, 31, 34, 40, 43)),
    ],
)
def test_large_pretzel_cover_is_frozen(k, t, columns):
    # 3^11-3^13 from the exhaustive search, which takes about 21 s on 3^13;
    # 3^14-3^16 from the pruned search that dropped no column and scanned
    # every column for the last slot, which takes about 4.6 s on 3^16
    report = distinguishing_report(pretzel(*[3] * k))
    assert (report.t, report.t_columns) == (t, columns)


@pytest.mark.parametrize(
    "k, t, columns",
    [
        (13, 8, (4, 7, 13, 16, 22, 25, 31, 34)),
        (15, 10, (1, 3, 10, 13, 19, 22, 28, 31, 37, 40)),
    ],
)
def test_large_mirror_pretzel_cover_is_frozen(k, t, columns):
    # from the pruned search that dropped no column and scanned every column
    # for the last slot, about 2.5 s on the mirror of 3^15
    report = distinguishing_report(pretzel(*[-3] * k))
    assert (report.t, report.t_columns) == (t, columns)


def test_cover_budget_raises_with_bounds(monkeypatch):
    monkeypatch.setattr(gkh.coloring, "COVER_BUDGET", 50)
    with pytest.raises(CoverBudgetError) as info:
        distinguishing_report(pretzel(*[3] * 10))
    err = info.value
    # t = 6, so the search is still below it; greedy can only overshoot
    assert 1 <= err.lower <= 6 <= err.upper
    assert f"between {err.lower} and {err.upper}" in str(err)


@pytest.mark.parametrize("command", ["distinguish", "verify"])
def test_cover_budget_exits_two(monkeypatch, capsys, command):
    monkeypatch.setattr(gkh.coloring, "COVER_BUDGET", 50)
    pd = serialize_pd(pretzel(*[3] * 10).to_pd())
    assert main([command, "--pd", pd]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kh: minimum cover search passed 50 nodes")


# on pretzel 3^10 (t = 6) sizes 1-5 spend 738 nodes and size 6 finds the
# witness at node 2935, so this budget runs out while the search is at size
# 6, where the greedy cover is too
EXACT_T_BUDGET = 1_500


def test_cover_budget_states_exact_t(monkeypatch):
    monkeypatch.setattr(gkh.coloring, "COVER_BUDGET", EXACT_T_BUDGET)
    with pytest.raises(CoverBudgetError) as info:
        distinguishing_report(pretzel(*[3] * 10))
    err = info.value
    assert err.lower == err.upper == 6
    assert str(err).endswith("t is exactly 6; only the lexicographically first witness is missing")


def test_cover_budget_exact_t_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(gkh.coloring, "COVER_BUDGET", EXACT_T_BUDGET)
    pd = serialize_pd(pretzel(*[3] * 10).to_pd())
    assert main(["distinguish", "--pd", pd]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kh: minimum cover search passed {EXACT_T_BUDGET} nodes")
    assert "t is exactly 6;" in err


def old_minimal_set_failures(analysis):
    return tuple(
        (i, j)
        for i, j in combinations(range(analysis.arc_count), 2)
        if all(f.colors[i] == f.colors[j] for f in analysis.minimal_set)
    )


@pytest.mark.parametrize("name", NONZERO_FIXTURES)
def test_minimal_set_failures_match_pair_scan(name):
    analysis = ColoringAnalysis(fixture_diagram(name))
    assert analysis.minimal_set_failures == old_minimal_set_failures(analysis)
    if name == "square":
        assert analysis.minimal_set_failures == ((1, 5),)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_connected_sum_minimal_set_failures_match_pair_scan(seed):
    # a connected sum is not prime, so its minimal set leaves pairs together
    d = connected_sum(random_alternating_diagram(8, seed), random_alternating_diagram(8, seed + 1))
    analysis = ColoringAnalysis(d)
    assert analysis.minimal_set_failures == old_minimal_set_failures(analysis)
