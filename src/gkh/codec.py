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
from dataclasses import dataclass


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


@dataclass(frozen=True)
class PdCode:
    """Validated PD code: a tuple of X(a, b, c, d) crossings."""

    crossings: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if not self.crossings:
            raise PdInvariantError("a PD code needs at least one crossing")
        labels = [x for quad in self.crossings for x in quad]
        n = len(self.crossings)
        expected = set(range(1, 2 * n + 1))
        if set(labels) != expected:
            bad = sorted(set(labels) ^ expected)
            raise PdInvariantError(
                f"edge labels must be exactly 1..{2 * n}, mismatch at {bad}"
            )
        seen: dict[int, int] = {}
        for x in labels:
            seen[x] = seen.get(x, 0) + 1
        wrong = sorted(x for x, c in seen.items() if c != 2)
        if wrong:
            raise PdInvariantError(f"edge labels used other than twice: {wrong}")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
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


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise PdSyntaxError(f"expected {ch!r}, found {found!r}", self.pos)
        self.pos += 1

    def accept(self, ch: str) -> bool:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def integer(self) -> int:
        self.skip_ws()
        match = _DIGITS.match(self.text, self.pos)
        if match is None:
            raise PdSyntaxError("expected an edge label", self.pos)
        self.pos = match.end()
        try:
            return int(match.group())
        except ValueError:  # longer than the interpreter's int-string limit
            raise PdSyntaxError("edge label too long", match.start()) from None


def parse_pd(text: str) -> PdCode:
    """Parse a PD code; raises PdSyntaxError / PdInvariantError."""
    sc = _Scanner(text)
    wrapped = False
    sc.skip_ws()
    if sc.text[sc.pos : sc.pos + 2].upper() == "PD":
        sc.pos += 2
        sc.expect("[")
        wrapped = True
    quads = []
    while True:
        sc.skip_ws()
        if sc.text[sc.pos : sc.pos + 1].upper() != "X":
            raise PdSyntaxError("expected a crossing 'X'", sc.pos)
        sc.pos += 1
        open_ch = sc.peek()
        if open_ch not in "([":
            raise PdSyntaxError("expected '(' or '[' after 'X'", sc.pos)
        sc.pos += 1
        close_ch = ")" if open_ch == "(" else "]"
        quad = []
        for i in range(4):
            if i:
                sc.expect(",")
            quad.append(sc.integer())
        sc.expect(close_ch)
        quads.append(tuple(quad))
        sc.accept(",")
        nxt = sc.peek()
        if nxt == "" or (wrapped and nxt == "]"):
            break
    if wrapped:
        sc.expect("]")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise PdSyntaxError("trailing input", sc.pos)
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

