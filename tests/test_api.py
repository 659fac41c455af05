"""The package surface: every module is reachable and __all__ matches what
the package binds.

A module that neither `gkh` nor the `kh` command imports is dead code, and
an `__all__` that drifts from the names actually bound, or drops one the
README or the benchmark harness reads from the top-level package, breaks
those callers.
"""

from __future__ import annotations

import doctest
import json
import subprocess
import sys
import types
from pathlib import Path

import gkh

SRC = Path(gkh.__file__).resolve().parent

README_NAMES = {
    "ColoringAnalysis",
    "braid_closure",
    "parse_braid",
    "coloring_group",
    "coloring_matrix",
    "distinguishing_report",
    "verify_gkh",
}

BENCHMARK_NAMES = {
    "verify_gkh",
    "from_pd",
    "parse_pd",
    "pretzel",
    "coloring_matrix",
    "distinguishing_report",
    "crossing_matrix",
    "fixture_diagram",
    "fixture_names",
    "CodecError",
    "ColoringError",
    "DiagramError",
    "FixtureError",
    "LinalgError",
    "PseudoError",
    "VerifyError",
    "ZeroDeterminantError",
}


def test_every_module_is_imported_by_the_package_or_the_cli():
    code = "import gkh, gkh.cli, json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=SRC.parent,
        check=True,
    )
    loaded = set(json.loads(out.stdout))
    modules = {f"gkh.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert modules, SRC
    assert sorted(modules - loaded) == []


def test_all_lists_exactly_the_public_names():
    bound = {
        name
        for name, value in vars(gkh).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(gkh.__all__) == bound
    assert len(gkh.__all__) == len(set(gkh.__all__))
    assert README_NAMES | BENCHMARK_NAMES <= bound


def test_package_docstring_example():
    assert doctest.testmod(gkh).failed == 0
