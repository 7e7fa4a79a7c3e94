"""Immutable graphs and constructors for cycles, circulants, and twisted tori.

A twisted torus here is the Cartesian graph bundle of two cycles: ``s`` fibre
copies of ``C_t`` joined rung-wise around a base ``C_s``, with one seam where
the gluing map ``phi`` (a cyclic shift or a reflection of the fibre) is
applied.  Vertices are addressed either as pairs ``(p, q)`` with
``0 <= p < s`` and ``0 <= q < t`` or by the flat index ``p * t + q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Edge = tuple[int, int]
Pair = tuple[int, int]

REFL_NONE = "none"  # q -> t-1-q, t even, no fixed column
REFL_ONE = "one"    # q -> t-1-q, t odd, fixes column (t-1)//2
REFL_TWO = "two"    # q -> (t-q) % t, t even, fixes columns 0 and t//2

_REFL_KINDS = (REFL_NONE, REFL_ONE, REFL_TWO)


class InvalidSpecError(ValueError):
    """Well-formed input whose values are out of range or inconsistent."""


class SpecFormatError(ValueError):
    """Textual input that cannot be parsed at all."""


def make_edge(u: int, v: int) -> Edge:
    if u == v:
        raise InvalidSpecError(f"loop edge at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on ``0..n-1``; edges stored canonical."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidSpecError(f"negative vertex count {self.n}")
        canon = set()
        for u, v in self.edges:
            e = make_edge(u, v)
            if not (0 <= e[0] < self.n and 0 <= e[1] < self.n):
                raise InvalidSpecError(f"edge {e} out of range for n={self.n}")
            canon.add(e)
        object.__setattr__(self, "edges", frozenset(canon))

    @cached_property
    def edge_list(self) -> tuple[Edge, ...]:
        """Edges sorted lexicographically (the canonical order)."""
        return tuple(sorted(self.edges))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of each vertex, ascending: the sorted ``edge_list``
        hands a vertex its smaller neighbours in order, then its larger ones."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edge_list:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    def to_payload(self) -> dict:
        """The graph as plain data: ``{n, edges}`` with edges in canonical order."""
        return {"n": self.n, "edges": [list(e) for e in self.edge_list]}


@dataclass(frozen=True)
class Shift:
    """Fibre rotation ``q -> (q + d) mod t``."""

    d: int

    def validate(self, t: int) -> None:
        if not 0 <= self.d < t:
            raise InvalidSpecError(f"shift {self.d} out of range for t={t}")

    def apply(self, q: int, t: int) -> int:
        return (q + self.d) % t


@dataclass(frozen=True)
class Reflection:
    """Fibre reflection, named by its number of fixed columns."""

    kind: str

    def validate(self, t: int) -> None:
        if self.kind not in _REFL_KINDS:
            raise InvalidSpecError(f"unknown reflection kind {self.kind!r}")
        if self.kind in (REFL_NONE, REFL_TWO) and t % 2 != 0:
            raise InvalidSpecError(f"reflection {self.kind!r} needs even t, got {t}")
        if self.kind == REFL_ONE and t % 2 == 0:
            raise InvalidSpecError(f"reflection 'one' needs odd t, got {t}")

    def apply(self, q: int, t: int) -> int:
        if self.kind == REFL_TWO:
            return (t - q) % t
        return (t - 1 - q) % t


Automorphism = Shift | Reflection


@dataclass(frozen=True)
class BundleSpec:
    """Parameters of a twisted torus: base length s, fibre length t, gluing phi."""

    s: int
    t: int
    phi: Automorphism

    def __post_init__(self) -> None:
        if self.s < 3:
            raise InvalidSpecError(f"base cycle needs s >= 3, got {self.s}")
        if self.t < 3:
            raise InvalidSpecError(f"fibre cycle needs t >= 3, got {self.t}")
        self.phi.validate(self.t)


def vertex_index(p: int, q: int, t: int) -> int:
    return p * t + q


def vertex_pair(v: int, t: int) -> Pair:
    return divmod(v, t)


def circulant(n: int, jumps: set[int] | frozenset[int] | tuple[int, ...] | list[int]) -> Graph:
    """Circulant graph on Z_n with edges ``{i, i+k}`` for every jump ``k``."""

    if n < 3:
        raise InvalidSpecError(f"circulant needs n >= 3, got {n}")
    raw = list(jumps)
    ks = sorted(set(raw))
    if len(ks) != len(raw):
        raise InvalidSpecError(f"duplicate jumps in {sorted(raw)}")
    for k in ks:
        if not 1 <= k <= n // 2:
            raise InvalidSpecError(f"jump {k} out of range 1..{n // 2}")
    return Graph(n, frozenset((i, (i + k) % n) for k in ks for i in range(n)))


def bundle(spec: BundleSpec) -> Graph:
    """Twisted torus on ``s*t`` vertices.

    Edges: fibre edges ``(p,q)-(p,q+1)`` for every row; rung edges
    ``(p,q)-(p+1,q)`` for ``p < s-1``; and seam edges
    ``(s-1,q)-(0,phi(q))`` closing the base cycle.
    """

    s, t, phi = spec.s, spec.t, spec.phi
    edges = [(p * t + q, p * t + (q + 1) % t) for p in range(s) for q in range(t)]
    edges += [(p * t + q, (p + 1) * t + q) for p in range(s - 1) for q in range(t)]
    edges += [((s - 1) * t + q, phi.apply(q, t)) for q in range(t)]
    return Graph(s * t, frozenset(edges))


def max_degree(g: Graph) -> int:
    return max(map(len, g.adjacency), default=0)


def is_regular(g: Graph, k: int) -> bool:
    return all(len(a) == k for a in g.adjacency)


def is_bipartite(g: Graph) -> bool:
    """Two-colour by BFS: is there a proper 2-colouring of the vertices?"""

    colour = [-1] * g.n
    for root in range(g.n):
        if colour[root] != -1:
            continue
        colour[root] = 0
        queue = [root]
        for u in queue:  # the queue grows while it is walked
            for v in g.adjacency[u]:
                if colour[v] == -1:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


def predict_bipartite(spec: BundleSpec) -> bool:
    """Parity law for twisted tori, checked independently by is_bipartite."""

    phi = spec.phi
    if isinstance(phi, Shift):
        return spec.t % 2 == 0 and spec.s % 2 == phi.d % 2
    if phi.kind == REFL_NONE:
        return spec.s % 2 == 1
    if phi.kind == REFL_TWO:
        return spec.s % 2 == 0
    return False


def normalize_shift(spec: BundleSpec) -> BundleSpec:
    """Replace a d-shift by the isomorphic min(d, t-d)-shift; reflections pass through."""

    if isinstance(spec.phi, Shift):
        d = spec.phi.d
        nd = min(d, spec.t - d) if d else 0
        if nd != d:
            return BundleSpec(spec.s, spec.t, Shift(nd))
    return spec


def parse_bundle_spec(text: str) -> BundleSpec:
    """Parse ``s=5,t=7,phi=shift:3`` or ``s=5,t=12,phi=refl:none``, each
    field exactly once and in any order."""

    fields: dict[str, str] = {}
    for chunk in text.strip().split(","):
        if "=" not in chunk:
            raise SpecFormatError(f"expected key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        key = key.strip()
        if key not in ("s", "t", "phi") or key in fields:
            raise SpecFormatError(f"unknown or repeated field {key!r} in spec {text!r}")
        fields[key] = value.strip()
    for key in ("s", "t", "phi"):
        if key not in fields:
            raise SpecFormatError(f"missing field {key!r} in spec {text!r}")
    s = _parse_int(fields["s"])
    t = _parse_int(fields["t"])
    phi_text = fields["phi"]
    if ":" not in phi_text:
        raise SpecFormatError(f"gluing must look like shift:D or refl:KIND, got {phi_text!r}")
    family, arg = phi_text.split(":", 1)
    phi: Automorphism
    if family == "shift":
        phi = Shift(_parse_int(arg))
    elif family == "refl":
        phi = Reflection(arg)
    else:
        raise SpecFormatError(f"unknown gluing family {family!r}")
    return BundleSpec(s, t, phi)


def format_bundle_spec(spec: BundleSpec) -> str:
    if isinstance(spec.phi, Shift):
        phi = f"shift:{spec.phi.d}"
    else:
        phi = f"refl:{spec.phi.kind}"
    return f"s={spec.s},t={spec.t},phi={phi}"


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SpecFormatError(f"expected integer, got {text!r}") from exc
