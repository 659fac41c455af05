"""ColoringAnalysis: one certified Smith form per (diagram, base) against the oracles.

L and the inverse-column pseudos are derived from U C V = D; the
Fraction-based rational_inverse and scaled_inverse in tests/oracles.py
are the independent answers they are compared with here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import subprocess
import sys
from itertools import combinations
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gkh
import gkh.verify
from gkh import _record
from gkh.coloring import (
    ColoringAnalysis,
    ColoringError,
    ZeroDeterminantError,
    _crossing_rows,
    coloring_group,
    coloring_matrix,
    crossing_matrix,
    enumerate_colorings,
    link_determinant,
)
from gkh.codec import BraidWord
from gkh.diagram import braid_closure, connected_sum, pretzel, turks_head
from gkh.fixtures import fixture_diagram, fixture_names
from gkh.linalg import (
    IntMatrix,
    LinalgError,
    SnfDecomposition,
    SparseMatrix,
    check_smith_form,
    smith_normal_form,
)
from gkh.pseudo import classify_assignment, pseudo_from_inverse_columns
from gkh.verify import random_alternating_diagram, verify_gkh
from oracles import (
    backward_read,
    bareiss_determinant,
    dense_crossing_matrix,
    markowitz_smith_normal_form,
    rational_inverse,
    reduced_crossing_matrix,
    reduced_mod,
    scaled_inverse,
)
from test_diagram import closable_braids

MODULES = [
    importlib.import_module(f"gkh.{m}")
    for m in ("linalg", "coloring", "diagram", "pseudo", "verify", "cli")
]


def oracle_pseudos(d, base):
    """Pseudo colorings from the integral columns of the Fraction inverse."""
    analysis = ColoringAnalysis(d, base)
    inverse = rational_inverse(analysis.c.dense())
    found = []
    for j in range(analysis.c.cols):
        entries = [row[j] for row in inverse]
        if any(x.denominator != 1 for x in entries):
            continue
        colors = [int(x) for x in entries]
        colors.insert(analysis.base_arc, 0)
        result = classify_assignment(d, colors, column=j)
        if result.kind == "pseudo":
            found.append(result.pseudo)
    return tuple(found)


def assert_matches_oracles(d, base=None):
    analysis = ColoringAnalysis(d, base)
    n1 = analysis.modulus
    assert prod(analysis.snf.diagonal) == abs(bareiss_determinant(analysis.c.dense()))
    oracle_l = scaled_inverse(analysis.c.dense(), n1)
    assert analysis.l_mod == reduced_mod(oracle_l, n1)  # built before l, from the s factors
    assert analysis.l == oracle_l
    assert analysis.inverse_pseudos == oracle_pseudos(d, base)
    assert pseudo_from_inverse_columns(d, base) == analysis.inverse_pseudos


NONZERO_FIXTURES = [n for n in fixture_names() if link_determinant(fixture_diagram(n)) != 0]


@pytest.mark.parametrize("name", NONZERO_FIXTURES)
def test_fixture_every_base_matches_oracles(name):
    d = fixture_diagram(name)
    for base in range(len(d.arcs)):
        assert_matches_oracles(d, base)


@pytest.mark.parametrize(
    "d",
    [turks_head(n) for n in range(5, 11)] + [pretzel(3, 3, 3, 3, 3)],
    ids=[f"turks_head({n})" for n in range(5, 11)] + ["pretzel(3,3,3,3,3)"],
)
def test_families_match_oracles(d):
    assert_matches_oracles(d)


def test_kink_is_empty_with_modulus_one():
    analysis = ColoringAnalysis(fixture_diagram("kink"))
    assert analysis.c.dense() == IntMatrix(0, 0, ())
    assert analysis.modulus == 1
    assert analysis.l == IntMatrix(0, 0, ())
    assert analysis.extended_rows() == ((),)
    assert analysis.inverse_pseudos == ()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_alternating_matches_oracles(seed):
    d = random_alternating_diagram(12, seed)
    assert_matches_oracles(d)
    assert_matches_oracles(d, 0)


def mixed_braids():
    """(strands, letters) of 2-4 strand braid words of up to 14 letters of
    either sign, so the closures are mostly not alternating."""
    return st.integers(2, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.integers(1, k - 1).flatmap(lambda g: st.sampled_from((g, -g))),
                min_size=1,
                max_size=14,
            ),
        )
    )


def same_factors(a, b):
    """The Smith forms of a and b pick the same pivots: the same diagonal, U and V."""
    x, y = smith_normal_form(a), smith_normal_form(b)
    return (x.diagonal, x.u, x.v) == (y.diagonal, y.u, y.v)


def assert_sparse_rows_match_the_dense_matrix(d):
    """At every base arc, the sparse C is the dense oracle's C entry for
    entry, with the Bareiss determinant and the dense input's Smith form;
    C' is checked the same way."""
    cprime = dense_crossing_matrix(d)
    assert crossing_matrix(d) == cprime
    sparse_cprime = _crossing_rows(d)
    assert isinstance(sparse_cprime, SparseMatrix) and sparse_cprime.dense() == cprime
    assert same_factors(sparse_cprime, cprime)
    for base in range(len(d.arcs)):
        try:
            expected = reduced_crossing_matrix(cprime, base)
        except ColoringError as err:  # C' is not square
            with pytest.raises(type(err)):
                ColoringAnalysis(d, base)
            continue
        analysis = ColoringAnalysis(d, base)
        c = analysis.c
        assert isinstance(c, SparseMatrix) and c.dense() == expected, base
        assert prod(analysis.snf.diagonal) == abs(bareiss_determinant(expected)), base
        assert same_factors(c, expected), base


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_sparse_rows_match_the_dense_matrix(name):
    # kink, hopf and split among them: an arc that repeats in a row, and a
    # zero determinant
    assert_sparse_rows_match_the_dense_matrix(fixture_diagram(name))


@settings(max_examples=60, deadline=None)
@given(mixed_braids())
def test_random_mixed_sign_sparse_rows_match_the_dense_matrix(braid):
    strands, letters = braid
    assume({abs(x) for x in letters} == set(range(1, strands)))  # no bare circle
    assert_sparse_rows_match_the_dense_matrix(braid_closure(BraidWord(strands, tuple(letters))))


def rule_independent(d):
    """At every base arc, all that ColoringAnalysis gives and no choice of U
    and V changes, and the Fox 2-, 3- and 5-colorings."""
    facts = [enumerate_colorings(d, k) for k in (2, 3, 5)]
    for base in range(len(d.arcs)):
        try:  # a C that is not square is refused before its Smith form
            analysis = ColoringAnalysis(d, base)
            facts.append(analysis.snf.diagonal)
            report = analysis.report
        except ZeroDeterminantError:
            continue
        facts += [
            analysis.l,
            analysis.l_mod,
            report.failures,
            report.t,
            report.t_columns,
            report.masks,
            analysis.minimal_set_failures,
            analysis.inverse_pseudos,
            analysis.perfect_columns,
        ]
    return facts


def assert_same_as_the_markowitz_rule(d):
    # U, V and the minimal set may differ, each certified; nothing else may
    ours = rule_independent(d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gkh.coloring, "smith_normal_form", markowitz_smith_normal_form)
        theirs = rule_independent(d)
    assert ours == theirs


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_answers_match_the_markowitz_rule_at_every_base(name):
    assert_same_as_the_markowitz_rule(fixture_diagram(name))


@settings(max_examples=40, deadline=None)
@given(mixed_braids())
def test_random_mixed_sign_answers_match_the_markowitz_rule_at_every_base(braid):
    strands, letters = braid
    assume({abs(x) for x in letters} == set(range(1, strands)))  # no bare circle
    assert_same_as_the_markowitz_rule(braid_closure(BraidWord(strands, tuple(letters))))


@settings(max_examples=40, deadline=None)
@given(mixed_braids())
def test_random_mixed_sign_closures_match_the_inverse_oracle(braid):
    # non-alternating closures have integral columns of C^(-1), which the
    # class test finds from U's non-unit rows alone
    strands, letters = braid
    assume({abs(x) for x in letters} == set(range(1, strands)))  # no bare circle
    d = braid_closure(BraidWord(strands, tuple(letters)))
    assume(link_determinant(d) != 0)
    for base in (None, 0):
        assert ColoringAnalysis(d, base).inverse_pseudos == oracle_pseudos(d, base)


def test_determinant_zero_raises_typed_error():
    analysis = ColoringAnalysis(fixture_diagram("split"))
    with pytest.raises(ZeroDeterminantError):
        analysis.l
    with pytest.raises(ZeroDeterminantError):
        pseudo_from_inverse_columns(fixture_diagram("split"))


@pytest.fixture
def counts(monkeypatch):
    """Count SNF calls and L builds wherever they are bound."""
    tally = {"snf": 0, "l": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    original = gkh.linalg.smith_normal_form
    wrapped = counting("snf", original)
    for module in MODULES:
        if getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", wrapped)
    build_l = functools.cached_property(counting("l", ColoringAnalysis.l.func))
    build_l.__set_name__(ColoringAnalysis, "l")
    monkeypatch.setattr(ColoringAnalysis, "l", build_l)
    return tally


@pytest.fixture
def dense_views(monkeypatch):
    """The names of the dense u, d, v views of a Smith form, as they are built."""
    built = []
    for name in ("u", "d", "v"):
        original = getattr(SnfDecomposition, name).func

        def build(self, name=name, original=original):
            built.append(name)
            return original(self)

        view = functools.cached_property(build)
        view.__set_name__(SnfDecomposition, name)
        monkeypatch.setattr(SnfDecomposition, name, view)
    return built


def reads_of_every(monkeypatch, reader, size):
    """The sizes of the Smith forms whose every row of U (reader
    "u_rows_at", size "rows") or column of V ("v_cols_at", "cols") is
    read in one call, as they are read."""
    built = []
    original = getattr(SnfDecomposition, reader)

    def read(self, indices):
        indices = list(indices)
        if set(indices) == set(range(getattr(self, size))):
            built.append(getattr(self, size))
        return original(self, indices)

    monkeypatch.setattr(SnfDecomposition, reader, read)
    return built


@pytest.fixture
def rows_of_u(monkeypatch):
    return reads_of_every(monkeypatch, "u_rows_at", "rows")


@pytest.fixture
def cols_of_v(monkeypatch):
    return reads_of_every(monkeypatch, "v_cols_at", "cols")


def test_verify_reads_u_only_where_d_has_a_non_unit(rows_of_u, cols_of_v, dense_views, monkeypatch):
    certificates = []
    original = gkh.coloring.check_smith_form

    def counted(a, snf):
        certificates.append(snf.rows)
        return original(a, snf)

    monkeypatch.setattr(gkh.coloring, "check_smith_form", counted)
    report = verify_gkh(turks_head(25))  # 50 crossings, s = 2
    assert report.passed and report.s == 2
    # the record certificate replays the operations on C's rows and undoes
    # them on the identity's columns; it builds no row of U and no column of
    # V, and _factors replays the s rows and columns it reads alone
    assert certificates == [49] and rows_of_u == cols_of_v == []
    coloring_group(turks_head(6))
    assert certificates == [49, 11] and rows_of_u == cols_of_v == []
    # 8_19 (s = 1) has 3 integral columns of C^(-1), conway (s = 0) 10: each
    # is an exact column of L, built from one read of those columns of U and
    # one transposed replay of V's record, which reads no column of V
    assert verify_gkh(fixture_diagram("8_19")).s == 1
    assert verify_gkh(fixture_diagram("conway")).inverse_pseudo_count == 10
    assert certificates == [49, 11, 7, 10] and rows_of_u == cols_of_v == []
    assert dense_views == []


@pytest.fixture
def replays(monkeypatch):
    """(what, transposed, vectors) for each list of sparse vectors replayed
    through a record outside the certificate's own replays, forwards or
    transposed, as they are replayed: the reads of U's columns in linalg,
    and the exact L's replay of the column operations in coloring."""
    found, certifying = [], []
    apply, certify = gkh.linalg._apply, gkh.coloring.check_smith_form

    def counted(vectors, ops, what, transpose=False, undo=False):
        if not (undo or certifying):
            found.append((what, transpose, len(vectors)))
        return apply(vectors, ops, what, transpose, undo)

    def certified(a, snf):
        certifying.append(snf)
        try:
            return certify(a, snf)
        finally:
            certifying.pop()

    monkeypatch.setattr(gkh.linalg, "_apply", counted)
    monkeypatch.setattr(gkh.coloring, "_apply", counted)
    monkeypatch.setattr(gkh.coloring, "check_smith_form", certified)
    return found


def test_exact_columns_replay_the_record_of_u_once(replays):
    # the sum of 4 Conway knots, 44 crossings, has n1 = 1: every class in
    # coker C is 0, so all 43 columns of C^(-1) are integral, and their
    # exact columns of L take U's 43 columns from one forward replay and
    # their 43 rows from one transposed replay of V's record
    analysis = ColoringAnalysis(functools.reduce(connected_sum, [fixture_diagram("conway")] * 4))
    assert analysis.modulus == 1 and replays == []
    assert len(analysis.inverse_pseudos) == 43
    assert replays == [("row", False, 43), ("column", True, 43)]
    # turks_head(25) has no integral column of C^(-1): no exact column is
    # built, and neither side of the record is replayed for one
    replays.clear()
    assert verify_gkh(turks_head(25)).inverse_pseudo_count == 0
    assert replays == []


@st.composite
def closures(draw):
    """A random braid closure on 2-4 strands, alternating or not."""
    word = draw(closable_braids(4, 1, 12))
    if draw(st.booleans()):  # odd generators positive, even negative: alternating
        word = BraidWord(word.strands, tuple([x if x % 2 else -x for x in map(abs, word.letters)]))
    return braid_closure(word)


@settings(max_examples=60, deadline=None)
@given(closures(), st.data())
def test_dense_reads_and_exact_columns_match_their_oracles(d, data):
    # the dense readers give the by-position backward reader's rows of U
    # and columns of V of C'(D), which need not be square, certified or
    # not, for any index list: empty, with repeats or all of them
    c = _crossing_rows(d)
    for certified in (False, True):
        snf = smith_normal_form(c)
        if certified:
            check_smith_form(c, snf)
        for side, at in ((0, snf.u_rows_at), (2, snf.v_cols_at)):
            size = c.rows if side == 0 else c.cols
            picks = data.draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=2 * size))
            for indices in ([], picks, range(size), [*range(size)] * 2):
                assert at(indices) == backward_read(snf, side, indices)
    # the exact columns of L, built without reading V, are the columns of
    # V diag(n1 / d) U from the dense views
    assume(link_determinant(d) != 0)
    analysis = ColoringAnalysis(d)
    snf, n1, n = analysis.snf, analysis.modulus, analysis.c.cols
    diag = snf.diagonal
    scale = IntMatrix(n, n, tuple([n1 // diag[i] if i == j else 0 for i in range(n) for j in range(n)]))
    l = snf.v @ scale @ snf.u
    picks = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))
    assert analysis._exact_columns(picks) == [list(l.col(j)) for j in picks]


@st.composite
def invertible_diagrams(draw):
    """A fixture or a random braid closure with a nonzero determinant."""
    if draw(st.booleans()):
        return fixture_diagram(draw(st.sampled_from(NONZERO_FIXTURES)))
    d = braid_closure(draw(closable_braids(5, 1, 14)))
    assume(link_determinant(d) != 0)
    return d


def with_op(snf, where, k, op):
    """snf's record with operation k of U (where "u") or of V (where "v")
    replaced by op, uncertified."""
    u_ops, row_order, v_ops, col_order = snf.record
    ops = list(u_ops if where == "u" else v_ops)
    ops[k] = op
    if where == "u":
        record = (ops, row_order, v_ops, col_order)
    else:
        record = (u_ops, row_order, ops, col_order)
    return SnfDecomposition(snf.rows, snf.cols, snf.diagonal, record)


def appended(snf, where, op):
    """snf's record with op after the last operation of U (where "u") or
    of V (where "v"), uncertified."""
    u_ops, row_order, v_ops, col_order = snf.record
    if where == "u":
        record = (u_ops + [op], row_order, v_ops, col_order)
    else:
        record = (u_ops, row_order, v_ops + [op], col_order)
    return SnfDecomposition(snf.rows, snf.cols, snf.diagonal, record)


def first_difference(x, y):
    """The first (i, j), in row-major order, where the matrices x and y differ."""
    k = next(k for k, (p, q) in enumerate(zip(x.entries, y.entries)) if p != q)
    return divmod(k, x.cols)


@settings(max_examples=120, deadline=None)
@given(invertible_diagrams(), st.sampled_from("uv"), st.integers(-3, 3).filter(bool), st.data())
def test_record_certificate_names_the_entry_a_changed_factor_moves(d, where, delta, data):
    # C is invertible, so a changed f in one operation moves U C (for U) or
    # D V^(-1) (for V); the dense oracles name the first entry that moves
    c = ColoringAnalysis(d).c
    snf = smith_normal_form(c)
    check_smith_form(c, snf)
    ops = snf.record[0 if where == "u" else 2]
    adds = [k for k, op in enumerate(ops) if len(op) == 3 and op[0] != op[2]]
    assume(adds)  # the Hopf link's C is (2)
    k = data.draw(st.sampled_from(adds))
    i, f, p = ops[k]
    bad = with_op(snf, where, k, (i, f + delta, p))
    honest = snf.u @ c.dense()
    if where == "u":
        row, col = first_difference(bad.u @ c.dense(), honest)
    else:
        inverse = IntMatrix.from_rows([[int(x) for x in r] for r in rational_inverse(bad.v)])
        row, col = first_difference(snf.d @ inverse, honest)
    with pytest.raises(LinalgError, match=rf"certificate fails at \({row}, {col}\): U A has"):
        check_smith_form(c, bad)


def test_record_certificate_refuses_a_non_elementary_operation():
    c = ColoringAnalysis(fixture_diagram("7_7")).c
    snf = smith_normal_form(c)
    i, _, _ = snf.record[0][3]
    with pytest.raises(LinalgError, match=rf"row operation 3, \({i}, 1, {i}\), is not elementary on 6"):
        check_smith_form(c, with_op(snf, "u", 3, (i, 1, i)))
    # the chain sweep's 2x2 steps, (6, 4) -> (2, 12); s t, x y scaled by 2
    # gives s y - t x = 2
    a = IntMatrix.from_rows([[6, 0], [0, 4]])
    snf = smith_normal_form(a)
    check_smith_form(a, snf)
    for where, ops in (("u", snf.record[0]), ("v", snf.record[2])):
        k, (p, q, s, t, x, y) = next((k, op) for k, op in enumerate(ops) if len(op) == 6)
        doubled = (p, q, 2 * s, 2 * t, x, y)
        what = "row" if where == "u" else "column"
        with pytest.raises(LinalgError, match=rf"{what} operation {k}, \({', '.join(map(str, doubled))}\), is not elementary"):
            check_smith_form(a, with_op(snf, where, k, doubled))


@pytest.mark.parametrize("name", ["7_7", "10_123", "conway"])
def test_record_certificate_refuses_a_changed_diagonal_entry(name):
    # doubling the last entry keeps a divisor chain, so only the product can
    # see it: row k of D V^(-1) doubles, row k of U C does not
    c = ColoringAnalysis(fixture_diagram(name)).c
    snf = smith_normal_form(c)
    k = len(snf.diagonal) - 1
    diagonal = snf.diagonal[:k] + (2 * snf.diagonal[k],)
    bad = SnfDecomposition(snf.rows, snf.cols, diagonal, snf.record)
    with pytest.raises(LinalgError, match=rf"certificate fails at \({k}, \d+\)"):
        check_smith_form(c, bad)


@pytest.mark.parametrize("name", NONZERO_FIXTURES)
def test_a_read_that_differs_from_the_certified_products_is_refused(name):
    # a record changed after the certificate ran: every row of U and column
    # of V read off it is checked against the certified U C and
    # V^(-1), so exactly the rows and columns the change moves are refused
    c = ColoringAnalysis(fixture_diagram(name)).c
    for where in "uv":
        snf = smith_normal_form(c)
        check_smith_form(c, snf)
        ops = snf.record[0 if where == "u" else 2]
        adds = [k for k, op in enumerate(ops) if len(op) == 3 and op[0] != op[2]]
        if not adds:
            continue
        i, f, p = ops[adds[-1]]
        ops[adds[-1]] = (i, f + 1, p)
        changed = smith_normal_form(c)
        changed.record[0 if where == "u" else 2][adds[-1]] = (i, f + 1, p)
        honest = smith_normal_form(c)
        at = SnfDecomposition.u_rows_at if where == "u" else SnfDecomposition.v_cols_at

        def read(x, k):
            return at(x, [k])[0]

        moved = [k for k in range(c.rows) if read(changed, k) != read(honest, k)]
        assert moved
        for k in range(c.rows):
            if k not in moved:
                assert read(snf, k) == read(honest, k)
            elif where == "u":
                with pytest.raises(LinalgError, match=rf"row {k} of U, read off the record, is not the certified one: v A has"):
                    read(snf, k)
            else:
                with pytest.raises(LinalgError, match=rf"column {k} of V, read off the record, is not the certified one: V\^\(-1\) v has"):
                    read(snf, k)


def test_readers_check_each_row_and_column_they_take(monkeypatch):
    # a dense read that goes wrong after the certificate: _factors reads row
    # 5 of U of 7_7 (d_5 = 21) first, the coloring box reads columns of V,
    # and a column of V read alone is checked the same way; the exact L
    # reads no column of V, so the wrong reads leave it as it was
    honest = ColoringAnalysis(fixture_diagram("7_7")).l
    dense = gkh.linalg._transpose_dense

    def wrong(vectors, ops, what):
        vectors = dense(vectors, ops, what)
        for vector in vectors:  # add 1 at position 0 of each vector read
            vector[0] += 1
        return vectors

    monkeypatch.setattr(gkh.linalg, "_transpose_dense", wrong)
    with pytest.raises(LinalgError, match="row 5 of U, read off the record, is not the certified one: v A has"):
        verify_gkh(fixture_diagram("7_7"))
    with pytest.raises(LinalgError, match=r"column \d+ of V, read off the record, is not the certified one"):
        enumerate_colorings(fixture_diagram("3_1"), 3)
    with pytest.raises(LinalgError, match=r"column 5 of V, read off the record, is not the certified one: V\^\(-1\) v has"):
        ColoringAnalysis(fixture_diagram("7_7")).snf.v_cols_at([5])
    assert ColoringAnalysis(fixture_diagram("7_7")).l == honest
    # the exact L's transposed replay of the column operations gone wrong:
    # its rows are the rows of L[:, J], and C col = n1 e_j refuses the column
    apply = gkh.linalg._apply

    def wrong_rows(vectors, ops, what, transpose=False, undo=False):
        vectors = apply(vectors, ops, what, transpose, undo)
        if transpose:  # held by position: add 1 at row 0 of each column built
            built = {t for entries in vectors if entries for t in entries}
            first = vectors[0] = dict(vectors[0] or {})
            for t in built:
                first[t] = first.get(t, 0) + 1
        return vectors

    monkeypatch.setattr(gkh.coloring, "_apply", wrong_rows)
    with pytest.raises(LinalgError, match=r"^C times column \d+ of L is not 21 e_\d+$"):
        ColoringAnalysis(fixture_diagram("7_7")).l


def test_record_certificate_survives_optimize_flag():
    c = ColoringAnalysis(fixture_diagram("7_7")).c
    snf = smith_normal_form(c)
    tampers = [("u", 3, (snf.record[0][3][0], 1, snf.record[0][3][0]))]
    for where, ops in (("u", snf.record[0]), ("v", snf.record[2])):
        i, f, p = ops[0]
        tampers.append((where, 0, (i, f + 1, p)))
    expected = []
    for where, k, op in tampers:
        with pytest.raises(LinalgError) as err:
            check_smith_form(c, with_op(snf, where, k, op))
        expected.append(str(err.value))
    code = (
        "from gkh.coloring import ColoringAnalysis\n"
        "from gkh.fixtures import fixture_diagram\n"
        "from gkh.linalg import *\n"
        f"{inspect.getsource(with_op)}\n"
        "c = ColoringAnalysis(fixture_diagram('7_7')).c\n"
        "snf = smith_normal_form(c)\n"
        f"for where, k, op in {tampers!r}:\n"
        "    try:\n"
        "        check_smith_form(c, with_op(snf, where, k, op))\n"
        "    except LinalgError as err:\n"
        "        print(err)\n"
    )
    assert run_fresh(code, "-O").splitlines() == expected
    assert "not elementary" in expected[0] and all("certificate fails at" in e for e in expected[1:])


def test_verify_factors_once_and_inverts_nothing(counts, dense_views):
    verify_gkh(turks_head(6))
    assert counts == {"snf": 1, "l": 0}
    # the certificate, L mod n1, the minimal set, the lifted columns and
    # the exact L all read U's rows and V's columns from the sparse form
    verify_gkh(fixture_diagram("conway"))  # n1 = 1: every column is lifted
    coloring_matrix(turks_head(6))
    assert dense_views == []


def test_verify_builds_one_crossing_matrix_and_no_determinant(monkeypatch):
    # the one build is the sparse C; the dense crossing_matrix is never
    # called, and the determinant is the product of the certified diagonal
    # of the one Smith form
    calls = {"_crossing_rows": 0, "crossing_matrix": 0, "smith_normal_form": 0}
    for module in MODULES:
        for name in calls:
            original = getattr(module, name, None)
            if original is not None and original is getattr(gkh.coloring, name):

                def counted(*args, name=name, original=original):
                    calls[name] += 1
                    return original(*args)

                monkeypatch.setattr(module, name, counted)
    report = verify_gkh(turks_head(6))
    assert calls == {"_crossing_rows": 1, "crossing_matrix": 0, "smith_normal_form": 1}
    assert report.hypotheses.determinant == 320


def test_determinant_factors_once(counts, monkeypatch):
    # link_determinant reads the one certified Smith diagonal
    checks = []
    check = gkh.linalg.check_smith_form
    for module in MODULES:
        if getattr(module, "check_smith_form", None) is check:
            monkeypatch.setattr(module, "check_smith_form", lambda *args: checks.append(1) or check(*args))
    assert link_determinant(turks_head(6)) == 320
    assert counts == {"snf": 1, "l": 0} and checks == [1]


def test_group_builds_no_l(counts):
    assert coloring_group(turks_head(6)).determinant == 320
    assert counts == {"snf": 1, "l": 0}
    coloring_matrix(turks_head(6))
    assert counts["l"] == 1


def test_corrupted_u_fails_the_certificate():
    # one more row operation keeps U unimodular, but U C no longer equals
    # D V^(-1)
    c = ColoringAnalysis(fixture_diagram("7_7")).c
    snf = smith_normal_form(c)
    row_order = snf.record[1]
    with pytest.raises(LinalgError, match=r"certificate fails at \(0, \d+\)"):
        check_smith_form(c, appended(snf, "u", (row_order[0], 1, row_order[1])))
    check_smith_form(c, snf)


def test_certificate_rejects_an_off_diagonal_d():
    # no operation at all: U and V are the identity, so U A is A itself,
    # and its entry off the diagonal is named
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(LinalgError, match=r"fails at \(0, 1\): U A has 1, D V\^\(-1\) has 0"):
        check_smith_form(a, SnfDecomposition(2, 2, (1, 1), ([], [0, 1], [], [0, 1])))


def test_certificate_rejects_a_non_smith_diagonal():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    with pytest.raises(LinalgError, match="entry 0 = 2 does not start a divisor chain"):
        check_smith_form(a, SnfDecomposition(2, 2, (2, 3), ([], [0, 1], [], [0, 1])))


def run_fresh(code, *flags):
    """stdout of code run in a fresh interpreter with the given flags; the
    package and the tests' oracles are importable."""
    src = Path(gkh.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), str(Path(__file__).resolve().parent)])
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return out.stdout.strip()


def test_import_loads_no_fractions():
    # every inverse the library uses comes from the Smith form over Z
    code = "import gkh, gkh.cli, sys; print('fractions' in sys.modules)"
    assert run_fresh(code) == "False"


def test_checks_survive_optimize_flag():
    # under python -O a failing assert would vanish; the certificate must not
    code = (
        "from gkh.linalg import *\n"
        "a = IntMatrix.from_rows([[2, 0], [0, 3]])\n"
        "try:\n"
        "    check_smith_form(a, SnfDecomposition(2, 2, (2, 3), ([], [0, 1], [], [0, 1])))\n"
        "except LinalgError:\n"
        "    print('raised')\n"
    )
    assert run_fresh(code, "-O") == "raised"


def tampered_v_analysis(name):
    """A ColoringAnalysis whose Smith form, uncertified, has column 0 of V
    added to its non-unit column."""
    analysis = ColoringAnalysis(fixture_diagram(name))
    snf = analysis.snf
    col_order = snf.record[3]
    i = snf.diagonal.index(analysis.modulus)
    analysis.snf = appended(snf, "v", (col_order[i], 1, col_order[0]))
    return analysis


def test_tampered_v_fails_the_fox_check_on_l_mod():
    analysis = tampered_v_analysis("7_7")
    with pytest.raises(LinalgError, match=r"L mod 21 breaks the Fox relation at crossing \d+"):
        analysis.l_mod


def test_tampered_v_fails_verify_on_the_witness_column(monkeypatch):
    # verify_gkh stops building L mod n1 at the first perfect column, here
    # column 0; that column is still checked before the report reads it
    monkeypatch.setattr(gkh.verify, "ColoringAnalysis", lambda d, base=None: tampered_v_analysis("7_7"))
    with pytest.raises(LinalgError, match=r"column 0 of L mod 21 breaks the Fox relation at crossing \d+"):
        verify_gkh(fixture_diagram("7_7"))


def test_tampered_u_fails_the_exact_inverse_column_check():
    # the conway knot has n1 = 1, so every column of L mod n1 is 0 and each
    # is lifted exactly; row 1 of U added to row 0, a unit row, changes
    # column j of L by U[1, j] n1 V[:, 0], not L mod n1, so the exact check
    # fails first at the first j with U[1, j] != 0 in the untampered record
    u_row = ColoringAnalysis(fixture_diagram("conway")).snf.u_rows_at([1])[0]
    j = min(j for j, x in u_row.items() if x)
    analysis = tampered_u_analysis("conway")
    assert not any(map(any, analysis.extended_rows()))
    with pytest.raises(LinalgError, match=rf"C times column {j} of L is not 1 e_{j}$"):
        analysis.inverse_pseudos


def test_integral_column_not_divisible_by_n1_raises():
    # 8_19 (n1 = 3) has integral columns of C^(-1) at 2, 5 and 6; an exact
    # column that is not n1 times one of them is refused by name
    analysis = ColoringAnalysis(fixture_diagram("8_19"))
    analysis._exact_columns = lambda indices: [[1] * analysis.c.cols for _ in indices]
    with pytest.raises(LinalgError, match=r"e_2 is 0 in coker C, but column 2 of L is not divisible by 3"):
        analysis.inverse_pseudos


def tampered_u_analysis(name):
    """A ColoringAnalysis whose Smith form, uncertified, has row 1 of U
    added to row 0."""
    analysis = ColoringAnalysis(fixture_diagram(name))
    row_order = analysis.snf.record[1]
    analysis.snf = appended(analysis.snf, "u", (row_order[0], 1, row_order[1]))
    return analysis


def test_tampered_u_fails_the_exact_column_check_on_l():
    # row 0 of U has d_0 = 1, so column 0 of L moves by 21 U[1, 0] V[:, 0]:
    # L mod 21 cannot see it, C times that column can
    analysis = tampered_u_analysis("7_7")
    assert analysis.snf.diagonal[0] == 1
    assert analysis.l_mod == ColoringAnalysis(fixture_diagram("7_7")).l_mod
    with pytest.raises(LinalgError, match=r"C times column 0 of L is not 21 e_0"):
        analysis.l


def test_exact_column_check_on_l_survives_optimize_flag():
    code = (
        "from gkh.coloring import ColoringAnalysis\n"
        "from gkh.fixtures import fixture_diagram\n"
        "from gkh.linalg import *\n"
        f"{inspect.getsource(appended)}\n"
        f"{inspect.getsource(tampered_u_analysis)}\n"
        "try:\n"
        "    tampered_u_analysis('7_7').l\n"
        "except LinalgError as err:\n"
        "    print(err)\n"
    )
    assert run_fresh(code, "-O") == "C times column 0 of L is not 21 e_0"


def test_fox_check_on_l_mod_survives_optimize_flag():
    code = (
        "from gkh.coloring import ColoringAnalysis\n"
        "from gkh.fixtures import fixture_diagram\n"
        "from gkh.linalg import *\n"
        f"{inspect.getsource(appended)}\n"
        f"{inspect.getsource(tampered_v_analysis)}\n"
        "try:\n"
        "    tampered_v_analysis('7_7').l_mod\n"
        "except LinalgError as err:\n"
        "    print(err)\n"
    )
    assert "breaks the Fox relation at crossing" in run_fresh(code, "-O")


def doubled_smith_form(a):
    """The library's record with the 2x2 step (p, q, 2, 0, 0, 1), s y - t x
    = 2, appended to its row operations, p the row of the last diagonal
    entry, and that entry doubled: U A V = D and the divisor chain still
    hold, but the step doubles row p of U, which is not unimodular."""
    snf = smith_normal_form(a)
    u_ops, row_order, v_ops, col_order = snf.record
    k = len(snf.diagonal) - 1
    step = (row_order[k], row_order[k - 1], 2, 0, 0, 1)
    diagonal = snf.diagonal[:k] + (2 * snf.diagonal[k],)
    return SnfDecomposition(snf.rows, snf.cols, diagonal, (u_ops + [step], row_order, v_ops, col_order))


def test_non_unimodular_transform_fails_verify(monkeypatch):
    d = fixture_diagram("7_7")
    c = ColoringAnalysis(d).c
    # U C V = D alone cannot see it: row 5 of U doubled against d_5 = 42
    snf = smith_normal_form(c)
    u = IntMatrix(6, 6, snf.u.entries[:30] + tuple(2 * x for x in snf.u.row(5)))
    assert u @ c.dense() @ snf.v == doubled_smith_form(c).d
    with pytest.raises(LinalgError, match=rf"row operation {len(snf.record[0])}, \(\d, \d, 2, 0, 0, 1\), is not elementary on 6"):
        check_smith_form(c, doubled_smith_form(c))
    monkeypatch.setattr(gkh.coloring, "smith_normal_form", doubled_smith_form)
    with pytest.raises(LinalgError, match="not elementary"):
        verify_gkh(d)


def test_unimodularity_check_survives_optimize_flag():
    code = (
        "import gkh.coloring\n"
        "from gkh.fixtures import fixture_diagram\n"
        "from gkh.linalg import *\n"
        "from gkh.verify import verify_gkh\n"
        f"{inspect.getsource(doubled_smith_form)}\n"
        "gkh.coloring.smith_normal_form = doubled_smith_form\n"
        "try:\n"
        "    verify_gkh(fixture_diagram('7_7'))\n"
        "except LinalgError as err:\n"
        "    print(err)\n"
    )
    assert "not elementary" in run_fresh(code, "-O")


def tampered_report_analysis(pair, separator):
    """ColoringAnalysis with the report's masks changed at pair: its bit
    cleared in every mask when separator is None, else set in the mask of
    column separator."""

    class Tampered(ColoringAnalysis):
        @property
        def report(self):
            honest = ColoringAnalysis.report.func(self)
            bit = 1 << list(combinations(range(honest.arc_count), 2)).index(pair)
            masks = [m & ~bit for m in honest.masks]
            if separator is not None:
                masks[separator] |= bit
            return _record.replace(honest, masks=tuple(masks))

    return Tampered


@pytest.mark.parametrize(
    "name, pair, separator, side",
    [
        ("3_1", (0, 2), None, "L mod n1"),  # a pair no column separates, by the report
        ("square", (1, 5), 0, "the minimal set"),  # the junction pair, separated by the report
    ],
)
def test_tampered_report_fails_the_minimal_set_certificate(monkeypatch, name, pair, separator, side):
    monkeypatch.setattr(gkh.verify, "ColoringAnalysis", tampered_report_analysis(pair, separator))
    with pytest.raises(LinalgError) as err:
        verify_gkh(fixture_diagram(name))
    assert str(err.value).startswith(f"arc pair {pair} is left together by {side} only")


def test_minimal_set_certificate_survives_optimize_flag():
    code = (
        "from gkh import _record\n"
        "from itertools import combinations\n"
        "import gkh.verify\n"
        "from gkh.coloring import ColoringAnalysis\n"
        "from gkh.fixtures import fixture_diagram\n"
        "from gkh.linalg import LinalgError\n"
        f"{inspect.getsource(tampered_report_analysis)}\n"
        "gkh.verify.ColoringAnalysis = tampered_report_analysis((0, 2), None)\n"
        "try:\n"
        "    gkh.verify.verify_gkh(fixture_diagram('3_1'))\n"
        "except LinalgError as err:\n"
        "    print(err)\n"
    )
    assert run_fresh(code, "-O").startswith("arc pair (0, 2) is left together by L mod n1 only")


def assert_reads_in_any_order_match_in_order(d, base):
    """Columns of L mod n1 read out of order, or interleaved, give the same
    built columns and the same fields as one in-order pass."""
    in_order = ColoringAnalysis(d, base)
    n = in_order.c.cols
    columns = [in_order._column(j) for j in range(n)]
    assert in_order._built_columns == columns
    descending = ColoringAnalysis(d, base)
    for j in reversed(range(n)):
        assert descending._column(j) == columns[j]
    interleaved = ColoringAnalysis(d, base)
    for j in range(n):  # an ascending pass and a descending one, in turn
        assert interleaved._column(j) == columns[j]
        assert interleaved._column(n - 1 - j) == columns[n - 1 - j]
    fresh = ColoringAnalysis(d, base)
    for analysis in (descending, interleaved):
        assert analysis._built_columns == columns
        assert analysis.l_mod == fresh.l_mod
        assert analysis.extended_rows() == fresh.extended_rows()
        assert analysis.perfect_columns == fresh.perfect_columns
        assert analysis.report == ColoringAnalysis(d, base).report


@pytest.mark.parametrize("name", NONZERO_FIXTURES)
def test_fixture_columns_read_out_of_order_match_in_order(name):
    d = fixture_diagram(name)
    for base in range(len(d.arcs)):
        assert_reads_in_any_order_match_in_order(d, base)


def test_report_after_out_of_order_reads_builds_no_further():
    # turks_head(25) has its first perfect column at 3: the report reads
    # the columns already built and builds none past the witness
    analysis = ColoringAnalysis(turks_head(25))
    analysis._column(1)
    assert len(analysis._built_columns) == 2
    assert analysis.report.t_columns == (3,)
    assert len(analysis._built_columns) == 4


@settings(max_examples=40, deadline=None)
@given(mixed_braids())
def test_random_mixed_sign_classes_give_the_integral_columns_and_l_mod(braid):
    # column j of C^(-1) is integral exactly when the class of e_j in
    # coker C is 0, exactly when column j of L mod n1 is 0; classes and
    # columns of L mod n1 are equal together
    strands, letters = braid
    assume({abs(x) for x in letters} == set(range(1, strands)))  # no bare circle
    d = braid_closure(BraidWord(strands, tuple(letters)))
    assume(link_determinant(d) != 0)
    for base in (None, 0):
        analysis = ColoringAnalysis(d, base)
        inverse = rational_inverse(analysis.c.dense())
        n = analysis.c.cols
        classes = [
            tuple([u_row.get(j, 0) % x for x, _, u_row, _ in analysis._factors])
            for j in range(n)
        ]
        columns = [analysis._column(j) for j in range(n)]
        for j in range(n):
            integral = all(row[j].denominator == 1 for row in inverse)
            assert integral == (not any(classes[j])) == (not any(columns[j])), (base, j)
            for k in range(j):
                assert (classes[j] == classes[k]) == (columns[j] == columns[k]), (base, j, k)
