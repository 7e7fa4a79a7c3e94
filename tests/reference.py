"""Independent references the tests compare bookbind against.

Nothing under ``src/bookbind`` imports these: the crossing predicate is the
plain pairwise definition that ``validate``, the page index and the oracle's
conflict masks are checked against, and the fibre/residual decompositions
by spec are the partition the acceptance criteria audit.
"""

from __future__ import annotations

from bookbind.bundle_decomp import (
    Cycles,
    reflection_residual_cycles,
    shift_residual_cycles,
)
from bookbind.graph_core import BundleSpec, Shift, vertex_index


def chords_cross(a: int, b: int, c: int, d: int) -> bool:
    """Do chords a-b and c-d cross, given circle positions of the endpoints?

    True exactly when the endpoints strictly interleave around the circle.
    A shared endpoint never counts as a crossing.
    """

    if len({a, b, c, d}) < 4:
        return False
    a, b = (a, b) if a < b else (b, a)
    c, d = (c, d) if c < d else (d, c)
    return (a < c < b < d) or (c < a < d < b)


def fiber_cycles(spec: BundleSpec) -> Cycles:
    """The ``s`` fibre copies of C_t, row by row."""

    t = spec.t
    return tuple(tuple(vertex_index(p, q, t) for q in range(t)) for p in range(spec.s))


def residual_cycles(spec: BundleSpec) -> Cycles:
    """The rung+seam cycles of any spec, by its gluing's own formula."""

    if isinstance(spec.phi, Shift):
        return shift_residual_cycles(spec.s, spec.t, spec.phi.d)
    return reflection_residual_cycles(spec.s, spec.t, spec.phi.kind)
