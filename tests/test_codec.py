from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkh.codec import (
    BraidError,
    BraidWord,
    PdCode,
    PdInvariantError,
    PdSyntaxError,
    parse_braid,
    parse_pd,
    serialize_pd,
)


@st.composite
def pd_codes(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    labels = list(range(1, 2 * n + 1)) * 2
    labels = draw(st.permutations(labels))
    quads = tuple(tuple(labels[4 * i : 4 * i + 4]) for i in range(n))
    return PdCode(quads)


def test_parse_pd_hopf():
    code = parse_pd("PD[X(1,3,2,4),X(3,1,4,2)]")
    assert code.crossings == ((1, 3, 2, 4), (3, 1, 4, 2))
    assert code.crossing_count == 2


def test_parse_pd_flexible_syntax():
    bare = parse_pd(" X[4,2,1,3]  X[2,4,3,1] ")
    wrapped = parse_pd("pd[ X(4,2,1,3), X(2,4,3,1) ]")
    assert bare == wrapped


def test_parse_pd_syntax_errors_carry_position():
    with pytest.raises(PdSyntaxError) as exc:
        parse_pd("PD[X(1,3,2)]")
    assert "at position" in str(exc.value)
    assert exc.value.position == 10
    with pytest.raises(PdSyntaxError):
        parse_pd("PD[X(1,3,2,4),X(3,1,4,2)] junk")
    with pytest.raises(PdSyntaxError):
        parse_pd("PD[Y(1,3,2,4)]")


def test_pd_label_validation():
    with pytest.raises(PdInvariantError):
        PdCode(((1, 3, 2, 5), (3, 1, 4, 2)))
    with pytest.raises(PdInvariantError):
        PdCode(((1, 1, 1, 2), (2, 3, 3, 4)))
    with pytest.raises(PdInvariantError):
        PdCode(())


@given(pd_codes())
def test_pd_roundtrip(code):
    assert parse_pd(serialize_pd(code)) == code


def test_parse_braid_forms():
    assert parse_braid("1 1 1") == BraidWord(2, (1, 1, 1))
    assert parse_braid("1, -2, 1, -2") == BraidWord(3, (1, -2, 1, -2))
    assert parse_braid("strands=4; 1 1") == BraidWord(4, (1, 1))


def test_parse_braid_errors():
    with pytest.raises(BraidError):
        parse_braid("")
    with pytest.raises(BraidError):
        parse_braid("1 0 1")
    with pytest.raises(BraidError):
        parse_braid("strands=2; 2")
    with pytest.raises(BraidError):
        parse_braid("1 x 1")
