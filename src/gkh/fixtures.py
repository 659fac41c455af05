"""Named diagram fixtures loaded from the bundled table.

Each entry pairs a construction recipe with the expected determinant,
invariant factors, diagram flags, and component count, so the whole
table doubles as a regression suite for the pipeline.
"""

from __future__ import annotations

import os
from functools import cache

from ._record import record
from .codec import parse_braid, parse_pd
from .diagram import Diagram, braid_closure, connected_sum, from_pd, pretzel, turks_head


class FixtureError(Exception):
    pass


@record
class FixtureEntry:
    name: str
    input_text: str
    determinant: int
    factors: tuple[int, ...]
    alternating: bool
    reduced: bool
    prime: bool
    components: int

    def build(self) -> Diagram:
        return _build(self.input_text)


def _build(text: str) -> Diagram:
    kind, _, rest = text.partition(":")
    kind, rest = kind.strip(), rest.strip()
    if kind == "braid":
        return braid_closure(parse_braid(rest))
    if kind == "pd":
        return from_pd(parse_pd(rest))
    if kind == "pretzel":
        return pretzel(*(int(t) for t in rest.split()))
    if kind == "turks":
        return turks_head(int(rest))
    if kind == "mirror":
        return fixture_diagram(rest).mirrored()
    if kind == "sum":
        names = rest.split()
        out = fixture_diagram(names[0])
        for name in names[1:]:
            out = connected_sum(out, fixture_diagram(name))
        return out
    raise FixtureError(f"unknown fixture input form {kind!r}")


@cache
def _table() -> dict[str, FixtureEntry]:
    # read through this module's own loader, which also reads from a zip:
    # importlib.resources would bring pathlib and typing into every kh start
    path = os.path.join(os.path.dirname(__file__), "data", "fixtures.txt")
    text = __loader__.get_data(path).decode("utf-8")
    entries = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, input_text, det, factors, flags, components = (
            field.strip() for field in line.split("|")
        )
        a, r, p = flags.split()
        entries[name] = FixtureEntry(
            name=name,
            input_text=input_text,
            determinant=int(det),
            factors=() if factors == "-" else tuple(int(f) for f in factors.split()),
            alternating=a == "a",
            reduced=r == "r",
            prime=p == "p",
            components=int(components),
        )
    return entries


def fixture_names() -> tuple[str, ...]:
    return tuple(_table())


def fixture(name: str) -> FixtureEntry:
    try:
        return _table()[name]
    except KeyError:
        raise FixtureError(
            f"unknown fixture {name!r}; known: {', '.join(fixture_names())}"
        ) from None


@cache
def fixture_diagram(name: str) -> Diagram:
    return fixture(name).build()
