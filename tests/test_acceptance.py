"""Acceptance gate: one test per advertised guarantee, one PASS line each.

Run with -s (or read the -v test lines) to see the per-criterion verdicts.
Expected values for named knots come from the bundled fixture table; the
tabulated matrices appearing as literals here were frozen from independent
recomputation with the cofactor and enumeration oracles in the unit suites.
"""

from __future__ import annotations

import time
from itertools import permutations
from math import gcd

import pytest

import gkh.coloring
from gkh.coloring import (
    coloring_group,
    coloring_matrix,
    crossing_matrix,
    distinguishing_report,
    enumerate_colorings,
    link_determinant,
)
from gkh.fixtures import fixture, fixture_diagram, fixture_names
from gkh.linalg import IntMatrix, smith_normal_form
from gkh.pseudo import pseudo_from_inverse_columns
from gkh.verify import random_alternating_diagram, verify_connected_sum, verify_gkh
from oracles import (
    bareiss_determinant,
    brute_force_coloring_count,
    count_colorings,
    mul_vector,
    permuted,
    rational_inverse,
    reduced_crossing_matrix,
    reduced_mod,
    scaled_inverse,
    transpose,
    without_row_col,
)


def report(line: str):
    print(f"\n{line}")


def test_criterion_01_determinants():
    values = {
        "7_7": 21,
        "conway": 1,
        "square": 9,
    }
    for name, expected in values.items():
        assert link_determinant(fixture_diagram(name)) == expected, name
    report("criterion 1 PASS: determinants 7_7=21, conway=1, square=9")


def test_criterion_02_group_structures():
    values = {
        "10_123": (11, 11),
        "w6": (40, 8),
        "p33333": (15, 3, 3, 3),
        "p3336": (21, 3, 3),
        "7_7": (21,),
        "square": (3, 3),
    }
    for name, expected in values.items():
        got = coloring_group(fixture_diagram(name)).invariant_factors
        assert got == expected, (name, got)
    report("criterion 2 PASS: invariant factors match on all six groups")


# tabulated square-knot matrices: C, L_3 = 3 * C^(-1), and L_3 mod 3
SQUARE_C = IntMatrix.from_rows(
    [
        [2, -1, 0, 0, 0],
        [-1, 2, -1, 0, 0],
        [-1, -1, 2, 0, 0],
        [0, 0, -1, 2, -1],
        [0, 0, 0, -1, 2],
    ]
)
SQUARE_L3 = IntMatrix.from_rows(
    [
        [3, 2, 1, 0, 0],
        [3, 4, 2, 0, 0],
        [3, 3, 3, 0, 0],
        [2, 2, 2, 2, 1],
        [1, 1, 1, 1, 2],
    ]
)
SQUARE_L3_MOD = IntMatrix.from_rows(
    [
        [0, 2, 1, 0, 0],
        [0, 1, 2, 0, 0],
        [0, 0, 0, 0, 0],
        [2, 2, 2, 2, 1],
        [1, 1, 1, 1, 2],
    ]
)


def test_criterion_03_square_knot_matrix_fixture():
    cp = crossing_matrix(fixture_diagram("square"))
    started = time.perf_counter()
    hits = []
    for perm in permutations(range(6)):
        relabeled = permuted(cp, perm, perm)
        for base in range(6):
            c = reduced_crossing_matrix(relabeled, base)
            if c == SQUARE_C:
                l3 = scaled_inverse(c, 3)
                assert l3 == SQUARE_L3, (perm, base)
                assert reduced_mod(l3, 3) == SQUARE_L3_MOD, (perm, base)
                hits.append((perm, base))
    elapsed = time.perf_counter() - started
    assert hits, "no ordering reproduces the tabulated matrices"
    assert elapsed < 1.0, f"search took {elapsed:.2f}s"
    report(
        f"criterion 3 PASS: {len(hits)} orderings match C, L3, L3 mod 3 "
        f"entry-for-entry in {elapsed:.2f}s"
    )


def test_criterion_04_gkh_property():
    names = ["3_1", "4_1", "5_2", "7_7", "10_123", "w6", "p33333", "p3336"]
    for name in names:
        d = fixture_diagram(name)
        r = verify_gkh(d, name=name)
        assert r.part_a and r.part_b and r.part_c, name
        assert r.failures == (), name
        assert r.s < len(d.crossings), name
    report(f"criterion 4 PASS: parts a, b, c hold with s < crossings on {names}")


def test_criterion_05_prime_order_corollary():
    cases = {"3_1": 3, "4_1": 5, "5_2": 7}
    for name, p in cases.items():
        d = fixture_diagram(name)
        arc_count = len(d.arcs)
        colorings = enumerate_colorings(d, p)
        assert len(colorings) == p * p
        nontrivial = [f for f in colorings if len(set(f.colors)) > 1]
        assert len(nontrivial) == p * p - p
        for f in nontrivial:
            assert len(set(f.colors)) == arc_count, (name, f.colors)
    report(
        "criterion 5 PASS: every nontrivial p-coloring of 3_1, 4_1, 5_2 "
        "distinguishes all arcs"
    )


def test_criterion_06_connected_sum():
    r = verify_connected_sum(
        [fixture_diagram("3_1_mirror"), fixture_diagram("3_1")]
    )
    assert r.joining_equal
    assert r.failures_are_junctions
    assert r.group.invariant_factors == (3, 3) == r.direct_sum_factors
    report(
        "criterion 6 PASS: square knot joins get equal colors, all other "
        "pairs distinguished, group Z_3 + Z_3 is the direct sum"
    )


def test_criterion_07_mirror_transpose():
    checked = []
    for name in fixture_names():
        d = fixture_diagram(name)
        if not d.is_alternating:
            continue
        assert crossing_matrix(d.mirrored()) == transpose(crossing_matrix(d)), name
        checked.append(name)
    assert len(checked) >= 12
    report(f"criterion 7 PASS: mirror transposes C' on {len(checked)} fixtures")


# tabulated crossing matrices for the two non-alternating examples
T34_CPRIME = IntMatrix.from_rows(
    [
        [2, 0, 0, 0, -1, -1, 0, 0],
        [-1, -1, 0, 0, 2, 0, 0, 0],
        [0, 0, 0, 0, 2, 0, -1, -1],
        [0, 0, 0, -1, -1, 0, 2, 0],
        [0, 0, 0, 2, 0, -1, -1, 0],
        [2, 0, -1, -1, 0, 0, 0, 0],
        [-1, 0, 2, 0, 0, 0, 0, -1],
        [0, -1, -1, 0, 0, 0, 0, 2],
    ]
)
CONWAY_CPRIME = IntMatrix.from_rows(
    [
        [-1, -1, 0, 0, 0, 0, 0, 0, 2, 0, 0],
        [0, -1, -1, 0, 2, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, -1, -1, 0, 0, 0, 0, 0],
        [2, 0, -1, -1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, -1, -1, 0, 0, 0, 0],
        [0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 2],
        [-1, 0, 0, 0, 0, 2, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 0, -1, -1, 0, 2, 0],
        [0, 0, 0, 0, 0, 0, 0, 2, 0, -1, -1],
        [0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 2],
        [2, 0, 0, 0, 0, 0, 0, 0, -1, -1, 0],
    ]
)


def integral_column_types(cprime: IntMatrix) -> list[tuple[int, int]]:
    """(column, epsilon) for each integral inverse column, base arc last."""
    n = cprime.rows
    c = without_row_col(cprime, n - 1, n - 1)
    inverse = rational_inverse(c)
    out = []
    for j in range(n - 1):
        column = [inverse[i][j] for i in range(n - 1)]
        if any(x.denominator != 1 for x in column):
            continue
        colors = [int(x) for x in column] + [0]
        defects = mul_vector(cprime, colors)
        nonzero = [(i, v) for i, v in enumerate(defects) if v]
        assert len(nonzero) == 2 and {abs(v) for _, v in nonzero} == {1}, j
        if all(v == -1 for _, v in nonzero):
            nonzero = [(i, -v) for i, v in nonzero]
        plus = min(i for i, v in nonzero if v == 1)
        epsilon = next(v for i, v in nonzero if i != plus)
        out.append((j, epsilon))
    return out


def test_criterion_08_pseudo_colorings():
    torus = integral_column_types(T34_CPRIME)
    assert [j for j, _ in torus] == [0, 1, 4]
    assert sorted(eps for _, eps in torus) == [-1, 1, 1]
    conway = dict(integral_column_types(CONWAY_CPRIME))
    assert conway[0] == -1
    assert conway[3] == 1
    # ordering-invariant weakening on the bundled diagrams
    for name in ["8_19", "conway"]:
        assert pseudo_from_inverse_columns(fixture_diagram(name)), name
    report(
        "criterion 8 PASS: T(3,4) has integral columns {1,2,5} with types "
        "{+1,+1,-1}; conway columns 1 and 4 give -1 and +1 types"
    )


def test_criterion_09_no_pseudo_on_alternating():
    names = [
        n
        for n in fixture_names()
        if (e := fixture(n)).alternating and e.reduced and e.prime
    ]
    for name in names:
        assert pseudo_from_inverse_columns(fixture_diagram(name)) == (), name
    for seed in range(200):
        d = random_alternating_diagram(10, seed)
        assert pseudo_from_inverse_columns(d) == (), seed
    report(
        f"criterion 9 PASS: no inverse-column pseudo colorings on "
        f"{len(names)} fixtures and 200 fuzzed diagrams"
    )


def test_criterion_10_oracle_equivalence():
    import random

    small = [n for n in fixture_names() if len(fixture_diagram(n).arcs) <= 8]
    assert len(small) >= 10
    for name in small:
        d = fixture_diagram(name)
        for k in range(2, 7):
            assert brute_force_coloring_count(d, k) == count_colorings(d, k), (
                name,
                k,
            )
    rng = random.Random(20260814)
    for trial in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(a)
        diag = snf.diagonal
        product = snf.u @ a @ snf.v
        for i in range(rows):
            for j in range(cols):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert product.at(i, j) == expected, trial
        for x, y in zip(diag, diag[1:]):
            assert y == 0 or (x != 0 and y % x == 0), trial
        if rows == cols:
            prod_diag = 1
            for x in diag:
                prod_diag *= x
            assert prod_diag == abs(bareiss_determinant(a)), trial
    report(
        f"criterion 10 PASS: brute force equals the Smith-form count of C' on "
        f"{len(small)} fixtures; Smith form self-check on 500 matrices"
    )


def test_criterion_11_no_dense_crossing_matrix_on_the_compute_path(monkeypatch):
    def refuse(d):
        raise AssertionError("the dense crossing matrix was built")

    monkeypatch.setattr(gkh.coloring, "crossing_matrix", refuse)
    checked = []
    for name in fixture_names():
        d = fixture_diagram(name)
        e = fixture(name)
        assert link_determinant(d) == e.determinant, name
        if e.determinant:
            assert coloring_group(d).invariant_factors == e.factors, name
            assert verify_gkh(d).group.invariant_factors == e.factors, name
            assert distinguishing_report(d).modulus == max(e.factors, default=1), name
            checked.append(name)
    report(
        f"criterion 11 PASS: determinant on {len(fixture_names())} fixtures, group, "
        f"verify and report on {len(checked)}, with no dense crossing matrix"
    )
