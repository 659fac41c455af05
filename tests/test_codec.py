from __future__ import annotations

import pytest
from hypothesis import example, given, settings
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
from gkh.fixtures import fixture_diagram, fixture_names
from oracles import scanner_parse_pd


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


@pytest.mark.parametrize(
    "text, position",
    [("X", 1), ("X ", 2), ("PD[X", 4), ("PD[X(1,2,3,4),X", 15)],
)
def test_parse_pd_x_at_the_end_names_the_missing_bracket_there(text, position):
    # the error is at the end of the input, not one past it
    with pytest.raises(PdSyntaxError) as exc:
        parse_pd(text)
    assert str(exc.value) == f"expected '(' or '[' after 'X' at position {position}"
    assert exc.value.position == position == len(text)


@pytest.mark.parametrize(
    "text, position",
    [
        ("PD[X(1,2,3,4\u00b2)]", 12),  # superscript two after the label 4
        ("X(1,2,\u0663,4)", 6),  # Arabic-Indic three
        ("X(1,2,3,4\uff11)", 9),  # fullwidth one
    ],
)
def test_parse_pd_refuses_non_ascii_digits(text, position):
    with pytest.raises(PdSyntaxError) as exc:
        parse_pd(text)
    assert exc.value.position == position


def test_parse_pd_refuses_a_label_past_the_int_string_limit():
    # int() refuses more than 4300 digits with a ValueError
    with pytest.raises(PdSyntaxError) as exc:
        parse_pd("PD[X(1,2,3," + "1" * 5000 + ")]")
    assert exc.value.position == 11 and "too long" in str(exc.value)


# what PD text is made of, and what it must refuse: other scripts' digits
# and spaces, a sign, an underscore, a semicolon
_PD_CHARS = "XxPpDd()[],0123456789 \t\n\u00a0\u2003\u00b2\u0665_-+;"
_PD_SPACE = st.sampled_from(["", "", "", " ", "\t", "\n ", "\u00a0"])
_FIXTURE_QUADS = [fixture_diagram(n).to_pd().crossings for n in fixture_names()]


@st.composite
def pd_texts(draw):
    """PD text in any spelling parse_pd accepts, then a few characters
    inserted, deleted or replaced and the text perhaps cut short."""
    quads = draw(
        st.one_of(
            st.sampled_from(_FIXTURE_QUADS),
            st.lists(st.tuples(*[st.integers(0, 12)] * 4), min_size=1, max_size=4),
        )
    )
    crossings = []
    for quad in quads:
        opening, closing = draw(st.sampled_from(["()", "[]"]))
        tokens = [draw(st.sampled_from("Xx")), opening]
        for k, label in enumerate(quad):
            tokens += [","] * bool(k) + [str(label)]
        tokens.append(closing)
        crossings.append("".join(draw(_PD_SPACE) + t for t in tokens))
    body = "".join(c + draw(st.sampled_from(["", ",", " , ", ",\n"])) for c in crossings)
    head = draw(st.sampled_from(["", "PD[", "pd[", "Pd [", " PD\t["]))
    text = head + body + ("]" if head else "") + draw(_PD_SPACE)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(["", "", *_PD_CHARS]))
        text = text[:at] + new + text[at + draw(st.integers(0, 1)) :]
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


def parse_outcome(parse, text):
    """The PdCode parse returns, or the type, message and position it raises."""
    try:
        return parse(text)
    except (PdSyntaxError, PdInvariantError) as err:
        return type(err), str(err), getattr(err, "position", None)


@settings(max_examples=600, deadline=None)
@given(pd_texts())
@example("X")
@example("PD[X")
@example("X(1,2,3,4]")
@example("PD[X(1,2,3," + "1" * 5000 + ")]")
@example("PD[X(1,2,3," + "1" * 5000 + "]]")
@example("X(1,5,2,4)X(3,1,4,6),X(5,3,6,2)")
@example("PD[X(1,3,2,4),X(3,1,4,2)] junk")
def test_parse_pd_matches_the_character_scanner(text):
    # the same PdCode, or the same error at the same position
    assert parse_outcome(parse_pd, text) == parse_outcome(scanner_parse_pd, text)


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


@pytest.mark.parametrize(
    "text",
    [
        "1_1",  # int() reads this as 11
        "1 1_0 1",
        "\u0661 1",  # Arabic-Indic one
        "1 \u00b9",  # superscript one
        "1 +-1",
        "1 " + "2" * 5000,  # past the int-string limit
        "strands=1_0; 1",
        "strands=\u0663; 1",
        "strands=; 1",
    ],
)
def test_parse_braid_refuses_non_decimal_integers(text):
    with pytest.raises(BraidError):
        parse_braid(text)


def test_parse_braid_signed_ascii_integers():
    assert parse_braid("+1 -1 01") == BraidWord(2, (1, -1, 1))
    assert parse_braid("strands=+3; -2") == BraidWord(3, (-2,))
