"""Cycle decompositions of twisted tori and the reduction to circulants.

Every twisted torus splits into its ``s`` fibre cycles plus a residual
2-regular graph of rung and seam edges, whose cycles are the column orbits
under the gluing ``phi``: ``residual_cycles`` finds them all by one walk
over ``Numbering.seams`` and lists each as its vertices in walk order (each
vertex's rung or seam leads to the next).  When the walk is one Hamiltonian
cycle (a shift with ``gcd(t, d) = 1``), numbering the vertices along it
carries the graph onto a circulant on ``Z_{s*t}``; ``to_circulant`` returns
that relabelling as a certificate instead of an embedding.  The reduction
hands out plain data (``to_payload``); only ``cli`` encodes JSON.
``odd_cycle`` is the witness that a twisted torus is not bipartite: a closed
walk of odd length, made of one column and part of row 0, which
``oracle.certify`` checks edge by edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import REFL_NONE, BundleSpec, Graph, Numbering, Shift, circulant, vertex_index


class DecompositionError(ValueError):
    """Requested decomposition does not exist for these parameters."""


Cycles = tuple[tuple[int, ...], ...]  # vertex-disjoint cycles, each a closed vertex sequence


def residual_cycles(spec: BundleSpec) -> Cycles:
    """Cycles of the rung+seam subgraph, one walk for every gluing.

    From the lowest column not yet walked, go down its rungs, cross the seam
    by ``phi`` and repeat until the walk is back at its first column.  A
    d-shift gives ``gcd(t, d)`` cycles of ``s * t / gcd(t, d)`` vertices
    (``t`` plain s-cycles for ``d = 0``); a reflection gives one 2s-cycle
    per swapped column pair and one s-cycle per fixed column.  Cycles are
    listed by ascending first column.
    """

    s, t, seams = spec.s, spec.t, Numbering(spec).seams
    cycles = []
    walked: set[int] = set()
    for col in range(t):
        cycle: list[int] = []
        while col not in walked:  # phi permutes the columns: the orbit closes
            walked.add(col)
            cycle.extend(range(col, s * t, t))  # (0, col), (1, col), ..
            col = seams[col]
        if cycle:
            cycles.append(tuple(cycle))
    return tuple(cycles)


def odd_cycle(spec: BundleSpec) -> tuple[int, ...] | None:
    """A closed walk of odd length in ``bundle(spec)`` (its vertices, the
    last joined to the first), shorter than s + t, or None when the bundle
    is bipartite.

    Row 0 for odd t.  For even t: down column q (q = t/2 - 1 for
    ``refl:none``, else 0), across the seam to (0, phi(q)) and back along
    row 0 the shorter way, k = (q - phi(q)) mod t steps forward or t - k
    back: s + k or s + t - k edges, one parity (s when k = 0).
    """

    s, t, phi = spec.s, spec.t, spec.phi
    if t % 2:
        return tuple(range(t))
    q = t // 2 - 1 if not isinstance(phi, Shift) and phi.kind == REFL_NONE else 0
    back = Numbering(spec).seams[q]
    k = (q - back) % t
    if (s + k) % 2 == 0:
        return None
    row = range(back, back + k) if 2 * k <= t else range(back, back + k - t, -1)
    return (*range(q, s * t, t), *(x % t for x in row))


@dataclass(frozen=True)
class CirculantReduction:
    """Relabelling that carries a coprime-shift torus onto a circulant.

    ``labels`` maps every torus vertex ``(p, q)`` to its class in ``Z_n``;
    rung and seam edges land on jump 1 and fibre edges on ``jump``
    (stored already folded into ``1..n//2``).
    """

    s: int
    t: int
    d: int
    n: int
    jump: int
    labels: tuple[tuple[int, int, int], ...]

    def flat_map(self) -> dict[int, int]:
        """Torus flat index -> circulant vertex."""

        return {vertex_index(p, q, self.t): lab for p, q, lab in self.labels}

    def target(self) -> Graph:
        return circulant(self.n, {1, self.jump})

    def to_payload(self) -> dict:
        """The reduction as plain data: ``{n, jump, relabel}``."""
        return {
            "n": self.n,
            "jump": self.jump,
            "relabel": [[p, q, lab] for p, q, lab in self.labels],
        }


def to_circulant(s: int, t: int, d: int) -> CirculantReduction:
    """Reduce a shift torus with ``gcd(t, d) = 1`` to ``C(Z_{st}, {1, jump})``.

    The rung+seam residual is then a single Hamiltonian cycle.  Giving its
    k-th vertex the label ``-k mod st`` numbers it backwards from ``(0, 0)``,
    across the seam first, and sends rungs and seams to jump 1; every fibre
    edge then spans the same jump, read off the label of ``(0, 1)``.
    """

    cycles = residual_cycles(BundleSpec(s, t, Shift(d)))
    if len(cycles) != 1:
        raise DecompositionError(
            f"circulant reduction needs gcd(t, d) = 1 with d > 0, got t={t}, d={d}"
        )
    n = s * t
    label = [0] * n
    for k, v in enumerate(cycles[0]):
        label[v] = -k % n
    raw = label[vertex_index(0, 1, t)]
    # flat index order is (p, q) order, which is already the sorted order
    labels = tuple((*divmod(v, t), lab) for v, lab in enumerate(label))
    return CirculantReduction(s, t, d, n, min(raw, n - raw), labels)
