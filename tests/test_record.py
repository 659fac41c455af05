"""gkh's frozen records, built by gkh._record, and what importing gkh costs.

Each record is compared with a frozen dataclass of the same fields: the
same values give the same repr and the same hash, and each compares equal
only to records of its own class. Start-up is checked in fresh
interpreters: a kh call imports the package on every start, and none of
the modules below belongs in that import.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import gkh
from gkh import _record
from gkh.codec import BraidWord, PdCode, PdInvariantError, parse_braid, parse_pd
from gkh.coloring import (
    ColoringAnalysis,
    ColoringError,
    ColoringGroup,
    DistinguishingReport,
    FoxColoring,
    coloring_group,
    crossing_matrix,
)
from gkh.diagram import Arc, Crossing, Diagram, DiagramError
from gkh.fixtures import FixtureEntry, fixture, fixture_diagram
from gkh.linalg import IntMatrix, LinalgError, SparseMatrix
from gkh.pseudo import Classification, PseudoColoring, classify_assignment, tunnel_pseudo
from gkh.verify import (
    ConnectedSumReport,
    Hypotheses,
    VerificationReport,
    verify_connected_sum,
    verify_gkh,
)

RECORDS = [
    PdCode,
    BraidWord,
    FoxColoring,
    ColoringGroup,
    DistinguishingReport,
    Crossing,
    Arc,
    Diagram,
    FixtureEntry,
    IntMatrix,
    SparseMatrix,
    PseudoColoring,
    Classification,
    Hypotheses,
    VerificationReport,
    ConnectedSumReport,
]
OMITTED_FROM_REPR = {DistinguishingReport: {"masks"}}
# modules a kh call's start-up must not load: dataclasses brings in
# inspect, ast, dis and tokenize
HEAVY_MODULES = ("dataclasses", "inspect", "importlib.resources", "typing")


@cache
def sample(cls):
    """One record of class cls, as the library builds it."""
    d = fixture_diagram("7_7")
    torus = tunnel_pseudo(fixture_diagram("8_19"))
    analysis = ColoringAnalysis(d)
    report = verify_gkh(d)
    return {
        PdCode: parse_pd("PD[X(1,5,2,4),X(3,1,4,6),X(5,3,6,2)]"),
        BraidWord: parse_braid("1 -2 1 -2"),
        FoxColoring: report.distinguishing[0],
        ColoringGroup: coloring_group(d),
        DistinguishingReport: analysis.report,
        Crossing: d.crossings[0],
        Arc: d.arcs[1],
        Diagram: d,
        FixtureEntry: fixture("7_7"),
        IntMatrix: crossing_matrix(d),
        SparseMatrix: analysis.c,
        PseudoColoring: torus,
        Classification: classify_assignment(fixture_diagram("8_19"), torus.colors),
        Hypotheses: report.hypotheses,
        VerificationReport: report,
        ConnectedSumReport: verify_connected_sum([fixture_diagram("3_1")] * 2),
    }[cls]


def values(rec):
    return [getattr(rec, name) for name in _record.fields(rec)]


def lookalike(cls):
    """A frozen dataclass with cls's name, fields and repr settings."""
    omitted = OMITTED_FROM_REPR.get(cls, set())
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, dataclasses.field(repr=name not in omitted)) for name in _record.fields(cls)],
        frozen=True,
    )


def test_records_are_every_frozen_record_of_the_package():
    package = Path(gkh.__file__).parent
    modules = [importlib.import_module(f"gkh.{p.stem}") for p in package.glob("*.py")]
    found = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__setattr__ is _record._frozen_setattr
    }
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction(cls):
    rec = sample(cls)
    assert type(rec) is cls
    assert cls(*values(rec)) == rec
    assert cls(**dict(zip(_record.fields(rec), values(rec)))) == rec
    assert _record.fields(cls) == cls.__match_args__ == tuple(cls.__annotations__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    rec = sample(cls)
    name = _record.fields(rec)[0]
    before = getattr(rec, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(rec, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert getattr(rec, name) is before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_holds_only_within_a_class(cls):
    rec = sample(cls)
    twin = lookalike(cls)(*values(rec))
    assert rec == cls(*values(rec))
    assert rec != tuple(values(rec))
    assert rec != twin and twin != rec
    assert not rec != cls(*values(rec))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_records_hash_equal(cls):
    rec = sample(cls)
    if cls is SparseMatrix:
        # its rows are dicts: like a frozen dataclass holding one, it has no hash
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(rec)
        return
    assert hash(rec) == hash(cls(*values(rec))) == hash(lookalike(cls)(*values(rec)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_repr(cls):
    rec = sample(cls)
    assert repr(rec) == repr(lookalike(cls)(*values(rec)))


def test_repr_examples():
    assert repr(Crossing(1, 2, 3, 4)) == "Crossing(over_in=1, over_out=2, under_in=3, under_out=4)"
    assert repr(FoxColoring(3, (4, -1))) == "FoxColoring(modulus=3, colors=(1, 2))"
    shown = repr(sample(DistinguishingReport))
    assert shown.startswith("DistinguishingReport(base_arc=") and "masks" not in shown


def test_crossing_is_not_its_tuple():
    assert Crossing(1, 2, 3, 4) != (1, 2, 3, 4)
    assert Crossing(1, 2, 3, 4) == Crossing(over_in=1, over_out=2, under_in=3, under_out=4)
    assert Crossing(1, 2, 3, 4) != Crossing(1, 2, 4, 3)
    match Crossing(1, 2, 3, 4):
        case Crossing(over_in, _, _, under_out):
            assert (over_in, under_out) == (1, 4)


def test_defaults():
    d = fixture_diagram("7_7")
    assert Diagram(d.crossings, d.spans).junction_edge_pairs == ()
    torus = sample(PseudoColoring)
    args = (torus.colors, torus.defects, torus.plus_crossing, torus.eps_crossing, torus.epsilon)
    assert PseudoColoring(*args).column is None
    assert Classification("fox", (0, 0, 0), (0, 0, 0)).pseudo is None


def test_post_init_validates():
    # these are explicit checks, so the suite under python -O runs them too
    with pytest.raises(LinalgError, match="expected 4 entries, got 3"):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(PdInvariantError, match=r"edge labels must be exactly 1..2"):
        PdCode(((1, 2, 2, 3),))
    d = fixture_diagram("3_1")
    with pytest.raises(DiagramError, match=r"bad component span \(2, 6\)"):
        Diagram(d.crossings, ((2, 6),))
    with pytest.raises(ColoringError, match="modulus must be >= 1"):
        FoxColoring(0, (1, 2))


def test_replace_builds_a_checked_record():
    assert _record.replace(Crossing(1, 2, 3, 4), under_out=9) == Crossing(1, 2, 3, 9)
    with pytest.raises(LinalgError, match="expected 4 entries, got 1"):
        _record.replace(IntMatrix(2, 2, (1, 2, 3, 4)), entries=(1,))


def test_records_keep_cached_properties():
    d = Diagram(*values(fixture_diagram("7_7")))
    assert "arcs" not in vars(d)
    assert d.arcs is d.arcs and "arcs" in vars(d)


@pytest.mark.parametrize("flags", [["-S"], ["-S", "-O"]], ids=" ".join)
def test_kh_start_up_loads_no_heavy_module(flags):
    code = (
        "import sys; import gkh, gkh.cli; gkh.fixture_names(); "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(gkh.__file__).resolve().parent.parent)},
        check=True,
    )
    assert out.stdout.split() == []
