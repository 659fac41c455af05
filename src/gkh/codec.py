"""Parsing of planar diagram codes and braid words, and PD serialization.

PD codes look like PD[X(1,3,2,4),X(3,1,4,2)]. Each X(a,b,c,d) lists the four
edge labels around a crossing counterclockwise, starting at the incoming
under-edge; (b, d) carry the over-strand. Edge labels must be 1..2n, each
used exactly twice. Which of b, d enters the crossing is resolved later by
orientation propagation, not here. The code must describe a planar
diagram; the parser checks syntax and label use, not planarity.

Edge labels are ASCII decimal digits. Braid words are whitespace or comma
separated nonzero integers written [+-]?[0-9]+, optionally prefixed by
"strands=k;". Letter +i crosses strand i over strand i+1, letter -i
crosses strand i under strand i+1.
"""

from __future__ import annotations

import re

from ._record import record


class CodecError(Exception):
    pass


class PdSyntaxError(CodecError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


class PdInvariantError(CodecError):
    pass


class BraidError(CodecError):
    pass


@record
class PdCode:
    """Validated PD code: a tuple of X(a, b, c, d) crossings."""

    crossings: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if not self.crossings:
            raise PdInvariantError("a PD code needs at least one crossing")
        labels = [x for quad in self.crossings for x in quad]
        m = 2 * len(self.crossings)
        counts = [0] * (m + 1)  # uses of each label in 1..m; slot 0 is unused
        outside = []
        for x in labels:
            if 0 < x <= m:
                counts[x] += 1
            else:
                outside.append(x)
        if outside or counts.count(0) > 1:
            bad = sorted({*outside, *(x for x in range(1, m + 1) if not counts[x])})
            raise PdInvariantError(f"edge labels must be exactly 1..{m}, mismatch at {bad}")
        if counts.count(2) != m:
            wrong = [x for x in range(1, m + 1) if counts[x] != 2]
            raise PdInvariantError(f"edge labels used other than twice: {wrong}")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


@record
class BraidWord:
    """Validated braid word on a fixed number of strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 2:
            raise BraidError("a braid needs at least 2 strands")
        if not self.letters:
            raise BraidError("empty braid word")
        for x in self.letters:
            if x == 0 or abs(x) >= self.strands:
                raise BraidError(
                    f"letter {x} out of range for {self.strands} strands"
                )


# ASCII digits only: str.isdigit and int() also take other scripts' digits,
# superscripts and "_" separators
_DIGITS = re.compile(r"[0-9]+")
_SIGNED_DIGITS = re.compile(r"[+-]?[0-9]+")
# \s is str.isspace; leading whitespace is always skipped, so it always matches
_SPACE = re.compile(r"\s*")
# one crossing X(a,b,c,d) or X[a,b,c,d], whitespace anywhere between the
# tokens, then an optional comma and the whitespace after it; group 1 is
# the opening bracket, 2-5 the labels, 6 the closing bracket
_CROSSING = re.compile(
    r"\s*[Xx]\s*([(\[])" + r"\s*,".join([r"\s*([0-9]+)"] * 4) + r"\s*([)\]])\s*,?\s*"
)
_CLOSING = {"(": ")", "[": "]"}


def _skip_space(text: str, pos: int) -> int:
    return _SPACE.match(text, pos).end()


def _expect(text: str, pos: int, ch: str) -> int:
    """The position after ch, read after whitespace, or PdSyntaxError."""
    pos = _skip_space(text, pos)
    if text[pos : pos + 1] != ch:
        found = text[pos] if pos < len(text) else "end of input"
        raise PdSyntaxError(f"expected {ch!r}, found {found!r}", pos)
    return pos + 1


def _quad(match: re.Match | None) -> tuple[int, int, int, int] | None:
    """The labels of a _CROSSING match; None when there is no match, its
    brackets differ, or a label is longer than int() reads."""
    if match is None or _CLOSING[match[1]] != match[6]:
        return None
    a, b, c, d = match.group(2, 3, 4, 5)
    try:
        return int(a), int(b), int(c), int(d)
    except ValueError:  # longer than the interpreter's int-string limit
        return None


def _read_crossing(text: str, pos: int) -> tuple[tuple[int, ...], int]:
    """The crossing at pos read one token at a time, and the position after
    its comma and whitespace; raises PdSyntaxError at the first token that
    is wrong or missing. parse_pd reads the crossings _quad refuses this
    way, so that every error names its position."""
    pos = _skip_space(text, pos)
    if text[pos : pos + 1].upper() != "X":
        raise PdSyntaxError("expected a crossing 'X'", pos)
    pos = _skip_space(text, pos + 1)
    opening = text[pos : pos + 1]
    if opening not in _CLOSING:
        raise PdSyntaxError("expected '(' or '[' after 'X'", pos)
    pos += 1
    quad = []
    for i in range(4):
        if i:
            pos = _expect(text, pos, ",")
        pos = _skip_space(text, pos)
        match = _DIGITS.match(text, pos)
        if match is None:
            raise PdSyntaxError("expected an edge label", pos)
        try:
            quad.append(int(match.group()))
        except ValueError:  # longer than the interpreter's int-string limit
            raise PdSyntaxError("edge label too long", pos) from None
        pos = match.end()
    pos = _expect(text, pos, _CLOSING[opening])
    pos = _skip_space(text, pos)
    if text[pos : pos + 1] == ",":
        pos = _skip_space(text, pos + 1)
    return tuple(quad), pos


def parse_pd(text: str) -> PdCode:
    """Parse a PD code; raises PdSyntaxError / PdInvariantError.

    Each crossing is one match of _CROSSING. A crossing it does not match,
    whose brackets differ or with a label too long for int() is read again
    token by token, which raises the error with its position.
    """
    end = len(text)
    pos = _skip_space(text, 0)
    wrapped = text[pos : pos + 2].upper() == "PD"
    if wrapped:
        pos = _expect(text, pos + 2, "[")
    quads = []
    while True:
        match = _CROSSING.match(text, pos)
        quad = _quad(match)
        if quad is None:
            quad, pos = _read_crossing(text, pos)
        else:
            pos = match.end()
        quads.append(quad)
        if pos == end or (wrapped and text[pos] == "]"):
            break
    if wrapped:
        pos = _expect(text, pos, "]")
    pos = _skip_space(text, pos)
    if pos != end:
        raise PdSyntaxError("trailing input", pos)
    return PdCode(tuple(quads))


def serialize_pd(code: PdCode) -> str:
    body = ",".join("X({},{},{},{})".format(*quad) for quad in code.crossings)
    return f"PD[{body}]"


def _braid_integer(text: str, what: str) -> int:
    """text as an integer if it is [+-]?[0-9]+, else BraidError naming `what`."""
    if _SIGNED_DIGITS.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # longer than the interpreter's int-string limit
            pass
    raise BraidError(f"bad {what} {text!r}")


def parse_braid(text: str) -> BraidWord:
    """Parse a braid word; strand count is max |letter| + 1 unless given."""
    text = text.strip()
    strands = None
    if text.lower().startswith("strands="):
        head, sep, rest = text.partition(";")
        if not sep:
            raise BraidError("missing ';' after the strands= prefix")
        strands = _braid_integer(head[len("strands=") :].strip(), "strand count")
        text = rest
    parts = text.replace(",", " ").split()
    if not parts:
        raise BraidError("empty braid word")
    letters = [_braid_integer(p, "braid letter") for p in parts]
    if strands is None:
        strands = max(abs(x) for x in letters) + 1
    return BraidWord(strands, tuple(letters))

