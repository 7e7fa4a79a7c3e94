"""Independent references the tests compare bookbind against.

Nothing under ``src/bookbind`` imports these: the crossing predicate is the
plain pairwise definition that ``validate``, the page index and the oracle's
conflict masks are checked against; the fibre cycles are the rows that,
with ``bundle_decomp.residual_cycles``, make up the partition the acceptance
criteria audit; and ``cycle_edges`` lists a cycle's edges as vertex pairs,
which the edge numbers of ``constructions.SequenceCatalog`` are checked
against.
"""

from __future__ import annotations

from bookbind.bundle_decomp import Cycles
from bookbind.graph_core import BundleSpec, Edge, make_edge, vertex_index


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


def cycle_edges(seq: tuple[int, ...]) -> list[Edge]:
    """Edges of a cycle in traversal order, closing edge last."""

    return [make_edge(u, v) for u, v in zip(seq, (*seq[1:], seq[0]))]
