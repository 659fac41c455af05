"""Fox coloring groups of link diagrams and the generalized Kauffman-Harary property.

Build a diagram from a planar diagram code or a braid word, then ask for
its crossing matrix, determinant, reduced coloring group, and the
distinguishing data behind the generalized Kauffman-Harary property.
Everything is exact integer arithmetic.

The names below are the package's public surface; everything else stays
importable from its submodule (`gkh.linalg`, `gkh.pseudo`, ...).

>>> from gkh import braid_closure, parse_braid, coloring_group
>>> coloring_group(braid_closure(parse_braid("1 1 1"))).invariant_factors
(3,)
"""

from .codec import CodecError, parse_braid, parse_pd
from .coloring import (
    ColoringAnalysis,
    ColoringError,
    ZeroDeterminantError,
    coloring_group,
    coloring_matrix,
    crossing_matrix,
    distinguishing_report,
)
from .diagram import DiagramError, braid_closure, from_pd, pretzel
from .fixtures import FixtureError, fixture_diagram, fixture_names
from .linalg import LinalgError
from .pseudo import PseudoError
from .verify import VerifyError, verify_gkh

__all__ = [
    "CodecError",
    "ColoringAnalysis",
    "ColoringError",
    "DiagramError",
    "FixtureError",
    "LinalgError",
    "PseudoError",
    "VerifyError",
    "ZeroDeterminantError",
    "braid_closure",
    "coloring_group",
    "coloring_matrix",
    "crossing_matrix",
    "distinguishing_report",
    "fixture_diagram",
    "fixture_names",
    "from_pd",
    "parse_braid",
    "parse_pd",
    "pretzel",
    "verify_gkh",
]
