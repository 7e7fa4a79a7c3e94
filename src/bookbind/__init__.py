"""Matching book embeddings of cycle bundles over a cycle.

Build Cartesian-style bundles of two cycles (the fibre cycle twisted by a
shift or reflection when it closes up), decompose them into fibre and
residual 2-factors, produce optimal matching book embeddings for the solved
parameter families, reduce the coprime-shift family to circulant graphs,
and verify everything independently with a validator and a brute-force
search.

The package exports the README's documented surface; everything else lives
in the submodules (``graph_core``, ``bundle_decomp``, ``layout_engine``,
``constructions``, ``oracle``, ``cli``).
"""

from .bundle_decomp import CirculantReduction, DecompositionError, to_circulant
from .constructions import CompletionError, ConstructionResult, Unsupported, embed
from .graph_core import (
    BundleSpec,
    Graph,
    InvalidSpecError,
    Reflection,
    Shift,
    SpecFormatError,
    bundle,
    circulant,
)
from .layout_engine import BookEmbedding, CoverageError, ValidationReport, validate
from .oracle import MbtResult, OracleError, SearchBudget, brute_force_mbt, check_isomorphism

__version__ = "0.1.0"

__all__ = [
    "BookEmbedding",
    "BundleSpec",
    "CirculantReduction",
    "CompletionError",
    "ConstructionResult",
    "CoverageError",
    "DecompositionError",
    "Graph",
    "InvalidSpecError",
    "MbtResult",
    "OracleError",
    "Reflection",
    "SearchBudget",
    "Shift",
    "SpecFormatError",
    "Unsupported",
    "ValidationReport",
    "brute_force_mbt",
    "bundle",
    "check_isomorphism",
    "circulant",
    "embed",
    "to_circulant",
    "validate",
]
