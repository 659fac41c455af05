"""ColoringAnalysis: one certified Smith form per (diagram, base) against the oracles.

L and the inverse-column pseudos are derived from U C V = D; the
Fraction-based rational_inverse and scaled_inverse in tests/oracles.py
are the independent answers they are compared with here.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gkh
import gkh.verify
from gkh.coloring import (
    ColoringAnalysis,
    ColoringError,
    ZeroDeterminantError,
    _crossing_rows,
    coloring_group,
    coloring_matrix,
    crossing_matrix,
    link_determinant,
)
from gkh.codec import BraidWord
from gkh.diagram import braid_closure, pretzel, turks_head
from gkh.fixtures import fixture_diagram, fixture_names
from gkh.linalg import (
    IntMatrix,
    LinalgError,
    SnfDecomposition,
    SparseMatrix,
    check_smith_form,
    determinant,
    smith_normal_form,
)
from gkh.pseudo import classify_assignment, pseudo_from_inverse_columns
from gkh.verify import random_alternating_diagram, verify_gkh
from oracles import (
    bareiss_determinant,
    dense_crossing_matrix,
    identity,
    rational_inverse,
    reduced_crossing_matrix,
    reduced_mod,
    scaled_inverse,
    snf_from_dense,
)

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
    assert determinant(analysis.c) == bareiss_determinant(analysis.c.dense())
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
    return (x.diagonal, x.u_rows, x.v_cols) == (y.diagonal, y.u_rows, y.v_cols)


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
        c = ColoringAnalysis(d, base).c
        assert isinstance(c, SparseMatrix) and c.dense() == expected, base
        assert determinant(c) == bareiss_determinant(expected), base
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


def test_verify_factors_once_and_inverts_nothing(counts, dense_views):
    verify_gkh(turks_head(6))
    assert counts == {"snf": 1, "l": 0}
    # the certificate, L mod n1, the minimal set, the lifted columns and
    # the exact L all read U's rows and V's columns from the sparse form
    verify_gkh(fixture_diagram("conway"))  # n1 = 1: every column is lifted
    coloring_matrix(turks_head(6))
    assert dense_views == []


def test_verify_builds_one_crossing_matrix_and_one_determinant(monkeypatch):
    # the one build is the sparse C; the dense crossing_matrix is never called
    calls = {"_crossing_rows": 0, "crossing_matrix": 0, "determinant": 0}
    for module, name in (
        (gkh.coloring, "_crossing_rows"),
        (gkh.coloring, "crossing_matrix"),
        (gkh.verify, "determinant"),
    ):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    report = verify_gkh(turks_head(6))
    assert calls == {"_crossing_rows": 1, "crossing_matrix": 0, "determinant": 1}
    assert report.hypotheses.determinant == 320


def test_determinant_never_factors(counts):
    assert link_determinant(turks_head(6)) == 320
    assert counts["snf"] == 0


def test_group_builds_no_l(counts):
    assert coloring_group(turks_head(6)).determinant == 320
    assert counts == {"snf": 1, "l": 0}
    coloring_matrix(turks_head(6))
    assert counts["l"] == 1


def test_corrupted_u_fails_the_certificate():
    c = ColoringAnalysis(fixture_diagram("7_7")).c
    snf = smith_normal_form(c)
    entries = list(snf.u.entries)
    entries[0] += 1
    bad = snf_from_dense(IntMatrix(snf.u.rows, snf.u.cols, tuple(entries)), snf.d, snf.v)
    with pytest.raises(LinalgError):
        check_smith_form(c, bad)
    check_smith_form(c, snf)


def test_certificate_rejects_an_off_diagonal_d():
    # U A V = D holds here; only the shape of D is wrong
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(LinalgError, match=r"off the diagonal at \(0, 1\)"):
        check_smith_form(a, snf_from_dense(identity(2), a, identity(2)))


def tampered(snf, where, k, t, delta):
    """snf with delta added at index t of row k of U (where "u") or of
    column k of V (where "v")."""
    vectors = list(snf.u_rows if where == "u" else snf.v_cols)
    vector = dict(vectors[k])
    vector[t] = vector.get(t, 0) + delta
    if not vector[t]:
        del vector[t]
    vectors[k] = vector
    if where == "u":
        return SnfDecomposition(snf.rows, snf.cols, tuple(vectors), snf.diagonal, snf.v_cols)
    return SnfDecomposition(snf.rows, snf.cols, snf.u_rows, snf.diagonal, tuple(vectors))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([n for n in NONZERO_FIXTURES if len(fixture_diagram(n).arcs) > 1]),
    st.sampled_from("uv"),
    st.booleans(),
    st.integers(-3, 3).filter(bool),
    st.data(),
)
def test_tampered_factor_fails_the_sparse_certificate(name, where, at_nonzero, delta, data):
    analysis = ColoringAnalysis(fixture_diagram(name))
    c, snf = analysis.c, analysis.snf
    vectors = snf.u_rows if where == "u" else snf.v_cols
    k = data.draw(st.integers(0, len(vectors) - 1))
    zeros = sorted(set(range(len(vectors))) - set(vectors[k]))
    positions = sorted(vectors[k]) if at_nonzero or not zeros else zeros
    t = data.draw(st.sampled_from(positions))
    bad = tampered(snf, where, k, t, delta)
    # C is invertible, so the change moves U C V; the oracle names where
    product = bad.u @ c.dense() @ bad.v
    first = next(i for i, (x, y) in enumerate(zip(product.entries, bad.d.entries)) if x != y)
    i, j = divmod(first, product.cols)
    with pytest.raises(LinalgError, match=rf"fails at \({i}, {j}\)"):
        check_smith_form(c, bad)


def test_sparse_certificate_survives_optimize_flag():
    analysis = ColoringAnalysis(fixture_diagram("7_7"))
    expected = []
    for where, k in (("u", 2), ("v", 3)):
        with pytest.raises(LinalgError, match=r"certificate fails at \(") as err:
            check_smith_form(analysis.c, tampered(analysis.snf, where, k, 0, 1))
        expected.append(str(err.value))
    code = (
        "from gkh.coloring import ColoringAnalysis\n"
        "from gkh.fixtures import fixture_diagram\n"
        "from gkh.linalg import *\n"
        f"{inspect.getsource(tampered)}\n"
        "analysis = ColoringAnalysis(fixture_diagram('7_7'))\n"
        "for where, k in (('u', 2), ('v', 3)):\n"
        "    try:\n"
        "        check_smith_form(analysis.c, tampered(analysis.snf, where, k, 0, 1))\n"
        "    except LinalgError as err:\n"
        "        print(err)\n"
    )
    assert run_fresh(code, "-O").splitlines() == expected


def test_certificate_rejects_a_non_smith_diagonal():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    with pytest.raises(LinalgError):
        check_smith_form(a, snf_from_dense(identity(2), a, identity(2)))


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
        "from oracles import identity, snf_from_dense\n"
        "a = IntMatrix.from_rows([[2, 0], [0, 3]])\n"
        "i = identity(2)\n"
        "try:\n"
        "    check_smith_form(a, snf_from_dense(i, a, i))\n"
        "except LinalgError:\n"
        "    print('raised')\n"
    )
    assert run_fresh(code, "-O") == "raised"


def tampered_v_analysis(name):
    """A ColoringAnalysis whose V has 1 added to an entry of its non-unit column."""
    analysis = ColoringAnalysis(fixture_diagram(name))
    snf = analysis.snf
    i = snf.diagonal.index(analysis.modulus)
    entries = list(snf.v.entries)
    entries[i] += 1  # row 0, column i
    analysis.snf = snf_from_dense(snf.u, snf.d, IntMatrix(snf.v.rows, snf.v.cols, tuple(entries)))
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
    # is lifted exactly; a unit row of U changes L by n1 V[:, 0], not L mod n1
    analysis = ColoringAnalysis(fixture_diagram("conway"))
    snf = analysis.snf
    entries = list(snf.u.entries)
    entries[0] += 1
    analysis.snf = snf_from_dense(IntMatrix(snf.u.rows, snf.u.cols, tuple(entries)), snf.d, snf.v)
    assert not any(map(any, analysis.extended_rows()))
    with pytest.raises(LinalgError, match=r"C times column 0 of L is not 1 e_0"):
        analysis.inverse_pseudos


def test_integral_column_not_divisible_by_n1_raises():
    # 8_19 (n1 = 3) has integral columns of C^(-1) at 2, 5 and 6; an exact
    # column that is not n1 times one of them is refused by name
    analysis = ColoringAnalysis(fixture_diagram("8_19"))
    analysis._exact_column = lambda j: [1] * analysis.c.cols
    with pytest.raises(LinalgError, match=r"e_2 is 0 in coker C, but column 2 of L is not divisible by 3"):
        analysis.inverse_pseudos


def tampered_u_analysis(name):
    """A ColoringAnalysis whose U has 1 added to its first entry."""
    analysis = ColoringAnalysis(fixture_diagram(name))
    analysis.snf = tampered(analysis.snf, "u", 0, 0, 1)
    return analysis


def test_tampered_u_fails_the_exact_column_check_on_l():
    # row 0 of U has d_0 = 1, so column 0 of L moves by 21 V[:, 0]: L mod
    # 21 cannot see it, C times that column can
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
        f"{inspect.getsource(tampered)}\n"
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
        "from oracles import snf_from_dense\n"
        f"{inspect.getsource(tampered_v_analysis)}\n"
        "try:\n"
        "    tampered_v_analysis('7_7').l_mod\n"
        "except LinalgError as err:\n"
        "    print(err)\n"
    )
    assert "breaks the Fox relation at crossing" in run_fresh(code, "-O")


def doubled_smith_form(a):
    """2U C V = 2D still holds and 2D is a divisor chain, but 2U is not unimodular."""
    snf = smith_normal_form(a)

    def doubled(m):
        return IntMatrix(m.rows, m.cols, tuple(2 * x for x in m.entries))

    return snf_from_dense(doubled(snf.u), doubled(snf.d), snf.v)


def test_non_unimodular_transform_fails_verify(monkeypatch):
    d = fixture_diagram("7_7")
    c = ColoringAnalysis(d).c
    check_smith_form(c, doubled_smith_form(c))  # U C V = D alone cannot see it
    monkeypatch.setattr(gkh.coloring, "smith_normal_form", doubled_smith_form)
    with pytest.raises(LinalgError, match="not unimodular"):
        verify_gkh(d)


def test_unimodularity_check_survives_optimize_flag():
    code = (
        "import gkh.coloring\n"
        "from gkh.fixtures import fixture_diagram\n"
        "from gkh.linalg import *\n"
        "from oracles import snf_from_dense\n"
        "from gkh.verify import verify_gkh\n"
        f"{inspect.getsource(doubled_smith_form)}\n"
        "gkh.coloring.smith_normal_form = doubled_smith_form\n"
        "try:\n"
        "    verify_gkh(fixture_diagram('7_7'))\n"
        "except LinalgError:\n"
        "    print('raised')\n"
    )
    assert run_fresh(code, "-O") == "raised"


def tampered_report_analysis(pair, separator):
    """ColoringAnalysis with the report's separator of pair replaced."""

    class Tampered(ColoringAnalysis):
        @property
        def report(self):
            honest = ColoringAnalysis.report.func(self)
            separators = tuple(
                (i, j, separator if (i, j) == pair else c) for i, j, c in honest.separators
            )
            return dataclasses.replace(honest, separators=separators)

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
        "import dataclasses\n"
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
