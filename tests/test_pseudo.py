from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkh.coloring import coloring_matrix, crossing_matrix
from gkh.fixtures import fixture, fixture_diagram, fixture_names
from gkh.pseudo import (
    Classification,
    PseudoColoring,
    PseudoError,
    classify_assignment,
    pseudo_from_inverse_columns,
    tunnel_pseudo,
)
from gkh.verify import random_alternating_diagram
from oracles import mul_vector, row_relation, row_relation_basis

ALTERNATING_PRIME = [
    n
    for n in fixture_names()
    if (e := fixture(n)).alternating and e.reduced and e.prime and e.determinant != 0
]


def test_row_relation_is_all_ones_for_reduced_alternating():
    for name in ["3_1", "4_1", "7_7", "10_123", "w6"]:
        rel = row_relation(fixture_diagram(name))
        assert set(rel.coefficients) == {1}, name


def test_row_relation_frozen_values():
    assert row_relation(fixture_diagram("8_19")).coefficients == (
        1, 1, 1, 1, 1, 1, -1, -1,
    )
    assert row_relation(fixture_diagram("conway")).coefficients == (
        1, 1, 1, 1, 1, -1, -1, -1, -1, -1, 1,
    )


def test_row_relation_rejects_higher_rank():
    split = fixture_diagram("split")
    assert len(row_relation_basis(split)) == 2
    with pytest.raises(PseudoError):
        row_relation(split)


def test_relation_annihilates_rows():
    for name in ["3_1", "8_19", "conway", "square", "hopf"]:
        d = fixture_diagram(name)
        cp = crossing_matrix(d)
        for rel in row_relation_basis(d):
            combo = [0] * cp.cols
            for coeff, row in zip(rel.coefficients, cp.row_list()):
                combo = [acc + coeff * x for acc, x in zip(combo, row)]
            assert all(x == 0 for x in combo), name


def test_classify_fox_pseudo_neither():
    trefoil = fixture_diagram("3_1")
    assert classify_assignment(trefoil, (1, 1, 1)).kind == "fox"
    assert classify_assignment(trefoil, (1, 0, 0)).kind == "neither"
    torus = fixture_diagram("8_19")
    result = classify_assignment(torus, (0, 0, 0, -1, 0, 0, 0, 0))
    assert result.kind == "pseudo"
    assert result.pseudo is not None and result.pseudo.epsilon == 1


def test_classify_rejects_wrong_length():
    with pytest.raises(PseudoError):
        classify_assignment(fixture_diagram("3_1"), (1, 2))


def test_classification_negates_double_minus():
    torus = fixture_diagram("8_19")
    flipped = classify_assignment(torus, (0, 0, 0, 1, 0, 0, 0, 0))
    assert flipped.kind == "pseudo"
    assert flipped.colors == (0, 0, 0, -1, 0, 0, 0, 0)
    assert flipped.pseudo.plus_crossing < flipped.pseudo.eps_crossing


def test_pseudo_coloring_validates():
    with pytest.raises(PseudoError):
        PseudoColoring((0,), (1, 1), 0, 0, 1)
    with pytest.raises(PseudoError):
        PseudoColoring((0,), (1, 1), 0, 1, 2)
    with pytest.raises(PseudoError):
        PseudoColoring((0,), (1, 0), 0, 1, 1)


def test_torus_inverse_columns_frozen():
    found = pseudo_from_inverse_columns(fixture_diagram("8_19"))
    facts = [(p.column, p.epsilon, p.plus_crossing, p.eps_crossing) for p in found]
    assert facts == [(2, 1, 2, 7), (5, 1, 5, 7), (6, -1, 6, 7)]
    assert found[0].colors == (1, 1, 1, 1, 1, 1, 1, 0)


def test_conway_inverse_columns_frozen():
    found = pseudo_from_inverse_columns(fixture_diagram("conway"))
    assert len(found) == 10
    signs = [p.epsilon for p in found]
    assert signs == [-1] * 5 + [1] * 5
    assert all(p.eps_crossing == 10 for p in found)


def test_tunnel_pseudo_frozen():
    torus = tunnel_pseudo(fixture_diagram("8_19"))
    assert torus.colors == (0, 0, 0, -1, 0, 0, 0, 0)
    assert (torus.plus_crossing, torus.eps_crossing, torus.epsilon) == (5, 6, 1)
    conway = tunnel_pseudo(fixture_diagram("conway"))
    assert conway.colors == (0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0)
    assert (conway.plus_crossing, conway.eps_crossing, conway.epsilon) == (4, 5, 1)


def test_tunnel_rejects_alternating():
    with pytest.raises(PseudoError):
        tunnel_pseudo(fixture_diagram("7_7"))


def test_tunnel_rejects_degenerate_loops():
    # a lone kink passes under itself; the candidate coloring has defect 2
    with pytest.raises(PseudoError):
        tunnel_pseudo(fixture_diagram("kink"))


def test_alternating_fixtures_admit_no_inverse_pseudo():
    for name in ALTERNATING_PRIME:
        assert pseudo_from_inverse_columns(fixture_diagram(name)) == (), name


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_fuzzed_alternating_admit_no_inverse_pseudo(seed):
    d = random_alternating_diagram(9, seed)
    assert pseudo_from_inverse_columns(d) == ()


@given(st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_nonalternating_tunnel_always_classifies(seed):
    d = random_alternating_diagram(9, seed).mirrored()
    # mirroring keeps alternation, so force a tunnel by composing with a
    # non-alternating summand instead
    from gkh.diagram import connected_sum

    torus = fixture_diagram("8_19")
    composite = connected_sum(d, torus)
    assert not composite.is_alternating
    pseudo = tunnel_pseudo(composite)
    assert classify_assignment(composite, pseudo.colors).kind == "pseudo"


def test_l_column_lifts_have_two_defects():
    # over Z an extended L column fails only at its own crossing and the
    # base crossing, with defect sizes n1; mod n1 it is a Fox coloring
    for name in ["3_1", "4_1", "5_2", "7_7", "10_123"]:
        d = fixture_diagram(name)
        cm = coloring_matrix(d)
        cp = crossing_matrix(d)
        rows = cm.extended_rows()
        n1 = cm.modulus
        for j in range(cm.l.cols):
            lift = [cm.l.at(k, j) for k in range(cm.l.rows)]
            lift.insert(cm.base_arc, 0)
            defects = mul_vector(cp, lift)
            nonzero = {i: v for i, v in enumerate(defects) if v}
            crossing_j = j if j < cm.base_arc else j + 1
            assert nonzero == {crossing_j: n1, cm.base_arc: -n1}, name
