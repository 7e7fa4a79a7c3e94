"""Cycle decompositions of twisted tori and the reduction to circulants.

Every twisted torus splits into its ``s`` fibre cycles plus a residual
2-regular graph made of the rung and seam edges.  The shape of the residual
depends on the gluing: a ``d``-shift residual falls into ``gcd(t, d)`` long
cycles, a reflection residual into column pairs.  When ``gcd(t, d) = 1`` the
whole graph collapses to a circulant on ``Z_{s*t}`` and ``to_circulant``
returns the relabelling as a certificate instead of an embedding.  The
reduction hands out plain data (``to_payload``); only ``cli`` encodes JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graph_core import (
    BundleSpec,
    Graph,
    Reflection,
    Shift,
    circulant,
    make_edge,
    vertex_index,
)


class DecompositionError(ValueError):
    """Requested decomposition does not exist for these parameters."""


@dataclass(frozen=True)
class Decomposition:
    """A family of vertex-disjoint cycles, each a closed vertex sequence."""

    cycles: tuple[tuple[int, ...], ...]

    def edge_set(self) -> frozenset[tuple[int, int]]:
        edges = set()
        for cyc in self.cycles:
            for i, u in enumerate(cyc):
                edges.add(make_edge(u, cyc[(i + 1) % len(cyc)]))
        return frozenset(edges)


def fiber_cycles(spec: BundleSpec) -> Decomposition:
    """The ``s`` fibre copies of C_t, row by row."""

    t = spec.t
    cycles = tuple(
        tuple(vertex_index(p, q, t) for q in range(t)) for p in range(spec.s)
    )
    return Decomposition(cycles)


def shift_residual_cycles(s: int, t: int, d: int) -> Decomposition:
    """Cycles of the rung+seam subgraph of a d-shift torus.

    The residual is ``gcd(t, d)`` cycles of length ``s * t / gcd(t, d)``:
    from column ``k`` walk the rungs to the seam, cross to column ``k + d``,
    and repeat until the column orbit closes.  The trivial shift ``d = 0``
    (``gcd(t, 0) = t``) gives ``t`` plain s-cycles, one per column.
    """

    BundleSpec(s, t, Shift(d))  # bounds check
    g = gcd(t, d)
    length = t // g
    cycles = []
    for k in range(g):
        cyc = []
        for l in range(length):
            col = (k + l * d) % t
            cyc.extend(vertex_index(p, col, t) for p in range(s))
        cycles.append(tuple(cyc))
    return Decomposition(tuple(cycles))


def reflection_residual_cycles(s: int, t: int, kind: str) -> Decomposition:
    """Cycles of the rung+seam subgraph of a reflection torus.

    Columns swapped by the reflection merge into one cycle of length ``2s``;
    each fixed column closes into its own s-cycle.  Cycles are listed by
    ascending smallest column.
    """

    phi = Reflection(kind)
    BundleSpec(s, t, phi)  # bounds + parity check
    cycles = []
    seen: set[int] = set()
    for c in range(t):
        if c in seen:
            continue
        mate = phi.apply(c, t)
        seen.update({c, mate})
        if mate == c:
            cycles.append(tuple(vertex_index(p, c, t) for p in range(s)))
        else:
            down = [vertex_index(p, c, t) for p in range(s)]
            back = [vertex_index(p, mate, t) for p in range(s)]
            cycles.append(tuple(down + back))
    return Decomposition(tuple(cycles))


def residual_cycles(spec: BundleSpec) -> Decomposition:
    if isinstance(spec.phi, Shift):
        return shift_residual_cycles(spec.s, spec.t, spec.phi.d)
    return reflection_residual_cycles(spec.s, spec.t, spec.phi.kind)


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

    The rung+seam residual is then a single Hamiltonian cycle; numbering the
    vertices along it (starting at ``(0, 0)`` and crossing the seam first)
    sends rungs and seams to jump 1, and every fibre edge to the constant
    jump ``s * x0`` with ``x0 = -d^{-1} mod t``.
    """

    BundleSpec(s, t, Shift(d))  # bounds check
    if d == 0 or gcd(t, d) != 1:
        raise DecompositionError(
            f"circulant reduction needs gcd(t, d) = 1 with d > 0, got t={t}, d={d}"
        )
    n = s * t
    d_inv = pow(d, -1, t)
    raw = (s * (-d_inv % t)) % n
    jump = min(raw, n - raw)
    labels = []
    for p in range(s):
        for q in range(t):
            l = (-q * d_inv) % t
            labels.append((p, q, (l * s - p) % n))
    return CirculantReduction(s, t, d, n, jump, tuple(sorted(labels)))
