"""Immutable graphs and constructors for cycles, circulants, and twisted tori.

A twisted torus here is the Cartesian graph bundle of two cycles: ``s`` fibre
copies of ``C_t`` joined rung-wise around a base ``C_s``, with one seam where
the gluing map ``phi`` (a cyclic shift or a reflection of the fibre) is
applied.  Vertices are addressed either as pairs ``(p, q)`` with
``0 <= p < s`` and ``0 <= q < t`` or by the flat index ``p * t + q``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

Edge = tuple[int, int]
Pair = tuple[int, int]

REFL_NONE = "none"  # q -> t-1-q, t even, no fixed column
REFL_ONE = "one"    # q -> t-1-q, t odd, fixes column (t-1)//2
REFL_TWO = "two"    # q -> (t-q) % t, t even, fixes columns 0 and t//2

_REFL_KINDS = (REFL_NONE, REFL_ONE, REFL_TWO)

# the most vertices a bundle (s*t) or circulant (n) spec may name; a larger
# one is refused before anything is built, since building it would exhaust
# memory or overflow an index
MAX_VERTICES = 10**6


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
        n = self.n
        if n < 0:
            raise InvalidSpecError(f"negative vertex count {n}")
        if type(self.edges) is frozenset:  # kept as it is if every edge is canonical
            try:
                for u, v in self.edges:
                    if not 0 <= u < v < n:
                        break
                else:  # a bytes or frozenset pair unpacks too; only tuples are kept
                    if {*map(type, self.edges)} <= {tuple}:
                        return
            except (TypeError, ValueError):
                pass  # the loop below raises what it raises, message and all
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
        if self.s * self.t > MAX_VERTICES:
            raise InvalidSpecError(
                f"s*t is over the limit of {MAX_VERTICES} vertices, got s={self.s}, t={self.t}"
            )
        self.phi.validate(self.t)

    @property
    def edges(self) -> range:
        """The edge numbers: edge ``k`` is ``bundle_edges(self)[k]``, so
        there are as many as the graph has edges."""

        return range(2 * self.s * self.t)


def vertex_index(p: int, q: int, t: int) -> int:
    return p * t + q


def vertex_pair(v: int, t: int) -> Pair:
    return divmod(v, t)


def circulant(n: int, jumps: set[int] | frozenset[int] | tuple[int, ...] | list[int]) -> Graph:
    """Circulant graph on Z_n with edges ``{i, i+k}`` for every jump ``k``."""

    if n < 3:
        raise InvalidSpecError(f"circulant needs n >= 3, got {n}")
    if n > MAX_VERTICES:
        raise InvalidSpecError(f"n is over the limit of {MAX_VERTICES} vertices, got {n}")
    raw = list(jumps)
    ks = sorted(set(raw))
    if len(ks) != len(raw):
        raise InvalidSpecError(f"duplicate jumps in {sorted(raw)}")
    for k in ks:
        if not 1 <= k <= n // 2:
            raise InvalidSpecError(f"jump {k} out of range 1..{n // 2}")
    return Graph(n, frozenset((i, (i + k) % n) for k in ks for i in range(n)))


def bundle_edges(spec: BundleSpec) -> list[Edge]:
    """Every edge of the twisted torus once, canonical, edge ``2 * v + kind``
    at index ``2 * v + kind`` for vertex ``v = p * t + q``.

    Kind 0 is the fibre edge ``(p,q)-(p,q+1)``, from column ``t-1`` the
    wrapping edge ``(p,0)-(p,t-1)``; kind 1 is the rung ``(p,q)-(p+1,q)``,
    from row ``s-1`` the seam ``(0,phi(q))-(s-1,q)`` closing the base cycle.
    This and ``bundle_keys``, its edges as integers, are the two places that
    apply ``phi``.
    """

    s, t, phi = spec.s, spec.t, spec.phi
    n, last = s * t, (s - 1) * t  # last: flat id of (s-1, 0)
    ids = list(range(n))  # one int per vertex, shared by its four edges
    fibres = list(zip(ids, ids[1:] + ids[:1]))  # (v, v+1), but for each row's last column:
    fibres[t - 1 :: t] = zip(ids[::t], ids[t - 1 :: t])  # (p,0)-(p,t-1) in its place
    rungs = list(zip(ids[:last], ids[t:]))
    rungs += [(ids[phi.apply(q, t)], ids[last + q]) for q in range(t)]
    edges = [None] * (2 * n)  # every slot is written below
    edges[0::2], edges[1::2] = fibres, rungs
    return edges


def bundle_keys(spec: BundleSpec) -> frozenset[int]:
    """The key ``u * n + v`` of every edge ``(u, v)`` of ``bundle_edges``,
    for ``n = s * t``: the edge set as integers, with no tuple built.

    The same numbering, read as strides: fibre ``2w`` of ``w = p * t + q``
    is ``w * (n + 1) + 1``, or ``p * t * (n + 1) + t - 1`` from column
    ``t-1``; rung ``2w + 1`` is ``w * (n + 1) + t``; and each column's seam
    goes through ``phi.apply``.
    """

    s, t, phi = spec.s, spec.t, spec.phi
    n, last = s * t, (s - 1) * t
    step = n + 1  # from the key of (w, w + k) to that of (w + 1, w + 1 + k)
    # each row's fibres but its wrapping one, which is p * t * (n + 1) + t - 1
    fibres = (range(row * step + 1, (row + t - 1) * step, step) for row in range(0, n, t))
    wraps = range(t - 1, last * step + t, t * step)
    rungs = range(t, last * step + t, step)
    seams = (phi.apply(q, t) * n + last + q for q in range(t))
    return frozenset(chain(chain.from_iterable(fibres), wraps, rungs, seams))  # no set to copy


def bundle(spec: BundleSpec) -> Graph:
    """Twisted torus on ``s*t`` vertices: the edges of ``bundle_edges``."""

    return Graph(spec.s * spec.t, frozenset(bundle_edges(spec)))


def _neighbours(g: Graph) -> list[list[int]]:
    """Neighbours of each vertex in one pass over the edges, in no order."""
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        rows[u].append(v)
        rows[v].append(u)
    return rows


def _two_colourable(rows: list[list[int]]) -> bool:
    """Two-colour by BFS: is there a proper 2-colouring of the vertices?"""

    colour = [-1] * len(rows)
    for root in range(len(rows)):
        if colour[root] != -1:
            continue
        colour[root] = 0
        queue = [root]
        for u in queue:  # the queue grows while it is walked
            for v in rows[u]:
                if colour[v] == -1:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


def max_degree(g: Graph) -> int:
    """Largest vertex degree: the longest neighbour row."""
    return max(map(len, _neighbours(g)), default=0)


def predict_bipartite(spec: BundleSpec) -> bool:
    """Parity law for twisted tori, checked in the tests against a plain BFS
    2-colouring of ``bundle(spec)``."""

    phi = spec.phi
    if isinstance(phi, Shift):
        return spec.t % 2 == 0 and spec.s % 2 == phi.d % 2
    if phi.kind == REFL_NONE:
        return spec.s % 2 == 1
    if phi.kind == REFL_TWO:
        return spec.s % 2 == 0
    return False


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
    s, t = _parse_int(fields["s"]), _parse_int(fields["t"])
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


def parse_int(text: str) -> int:
    """``int(text)`` for ASCII decimals only: ``1_0`` or ``３`` raise ValueError."""
    value = int(text)  # what int rejects keeps int's own message
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return value


_FLOAT = r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:nan|inf|infinity))\s*"


def parse_float(text: str) -> float:
    """``float(text)`` for ASCII decimals with an optional exponent, and for
    ``nan``, ``inf`` and ``infinity``: ``1_0`` or ``１０`` raise ValueError."""
    value = float(text)  # what float rejects keeps float's own message
    if not re.fullmatch(_FLOAT, text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise SpecFormatError(f"expected integer, got {text!r}") from exc
