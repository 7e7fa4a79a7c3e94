"""Circular layouts, chord crossings, and the matching-book-embedding check.

An embedding is valid when its page assignment is a proper edge colouring
(no two edges at a common vertex share a page) and no two same-page chords
cross in the circular layout.  Equivalently, each page is a matching whose
chords, read along the spine, nest like balanced brackets; ``validate``
checks that in one pass per page (O(E log E) in all).  Only a page that
fails is swept once more, by ``_page_violations``, to list its shared
endpoints and crossings in O(P log P + K) for its P edges and K violations.

``BookEmbedding`` converts to and from plain data (``to_payload`` and
``from_payload``); only ``cli`` encodes and decodes JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph_core import Edge, Graph, SpecFormatError, make_edge, max_degree

YELLOW, GREEN, PURPLE, RED, BLUE = range(5)
COLOR_NAMES = ("yellow", "green", "purple", "red", "blue")

REASON_ENDPOINT = "shared-endpoint"
REASON_CROSSING = "crossing"

DISPERSABLE = "dispersable"
NEARLY_DISPERSABLE = "nearly-dispersable"
NEITHER = "neither"


class CoverageError(ValueError):
    """Embedding is structurally broken: wrong vertex order or edge set."""


@dataclass
class BookEmbedding:
    """Spine order plus a total edge -> page map using ``m`` pages."""

    order: tuple[int, ...]
    pages: dict[Edge, int]
    m: int

    def __post_init__(self) -> None:
        self.order = tuple(self.order)
        self.pages = {make_edge(u, v): p for (u, v), p in self.pages.items()}

    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}

    def pages_used(self) -> int:
        return len(set(self.pages.values()))

    def to_payload(self) -> dict:
        """The embedding as plain data: ``{order, pages, m}``."""

        return {
            "order": list(self.order),
            "pages": [[u, v, p] for (u, v), p in sorted(self.pages.items())],
            "m": self.m,
        }

    @classmethod
    def from_payload(cls, payload) -> "BookEmbedding":
        """The embedding in a ``to_payload`` object ``{order, pages, m}``.

        Every number must be a JSON integer (not ``true``, ``1.0`` or ``"1"``);
        an edge listed twice keeps its last page.
        """

        try:
            order = tuple(_integer(v) for v in payload["order"])
            pages: dict[Edge, int] = {}
            for u, v, p in payload["pages"]:
                e = (_integer(u), _integer(v))
                pages.pop(e[::-1], None)  # the same edge listed the other way round
                pages[e] = _integer(p)
            return cls(order, pages, _integer(payload["m"]))
        except (TypeError, KeyError, ValueError) as exc:
            raise SpecFormatError(f"bad embedding payload: {exc}") from exc


def _integer(x) -> int:
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


Violation = tuple[Edge, Edge, str]


@dataclass
class ValidationReport:
    is_proper: bool
    is_noncrossing: bool
    pages_used: int
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.is_proper and self.is_noncrossing


def _page_nests(page_edges: list[Edge], pos: dict[int, int]) -> bool:
    """Is this page a matching whose chords nest like balanced brackets?"""

    partner: dict[int, int] = {}
    for u, v in page_edges:
        a, b = pos[u], pos[v]
        partner[a] = b
        partner[b] = a
    if len(partner) != 2 * len(page_edges):
        return False  # two edges share an endpoint
    closers: list[int] = []  # far ends of the open chords, innermost last
    for a in sorted(partner):
        b = partner[a]
        if b > a:
            closers.append(b)
        elif closers.pop() != a:
            return False  # the chord closing here crosses an open one
    return True


def _page_violations(page_edges: list[Edge], pos: dict[int, int]) -> list[Violation]:
    """Every shared endpoint and every crossing on one page, each pair once.

    Costs O(P log P + K) for P edges and K violations.  Edges at one vertex
    pairwise share it.  For crossings, the chord ends are swept in spine
    order with the open chords kept in opening order: the chords opened
    after a chord and still open when it closes are exactly those that
    cross it or share one of its endpoints.
    """

    violations: list[Violation] = []
    at: dict[int, list[Edge]] = {}
    # (position, opens, edge): False sorts first, so at one position the
    # closing chords leave before the opening ones, which share that end
    ends: list[tuple[int, bool, Edge]] = []
    for e in page_edges:
        for v in e:
            at.setdefault(v, []).append(e)
        a, b = sorted((pos[e[0]], pos[e[1]]))
        ends += ((a, True, e), (b, False, e))
    for edges in at.values():
        for i, e in enumerate(edges):
            for f in edges[i + 1 :]:
                violations.append((min(e, f), max(e, f), REASON_ENDPOINT))
    ends.sort()
    open_chords: list[Edge] = []
    for _, opens, e in ends:
        if opens:
            open_chords.append(e)
            continue
        i = len(open_chords) - 1
        if open_chords[i] != e:  # a well-nested chord closes innermost
            i = open_chords.index(e)
        for f in open_chords[i + 1 :]:
            if e[0] not in f and e[1] not in f:
                violations.append((min(e, f), max(e, f), REASON_CROSSING))
        del open_chords[i]
    return violations


def validate(g: Graph, emb: BookEmbedding) -> ValidationReport:
    """Check properness and page planarity; structural breakage raises.

    Raises CoverageError when the spine is not a permutation of the vertex
    set, the page map does not cover exactly E(g), or a page index falls
    outside ``0..m-1``.  Colouring faults are collected as violations.
    """

    if sorted(emb.order) != list(range(g.n)):
        raise CoverageError("spine order is not a permutation of the vertex set")
    if set(emb.pages) != g.edges:
        missing = sorted(g.edges - set(emb.pages))
        extra = sorted(set(emb.pages) - g.edges)
        raise CoverageError(f"page map mismatch: missing {missing}, extra {extra}")
    if emb.m < 1:
        raise CoverageError(f"page count m={emb.m} must be at least 1")
    for e, p in emb.pages.items():
        if not 0 <= p < emb.m:
            raise CoverageError(f"page {p} of edge {e} outside 0..{emb.m - 1}")

    pos = emb.position()
    by_page: dict[int, list[Edge]] = {}
    for e, p in emb.pages.items():
        by_page.setdefault(p, []).append(e)

    violations: list[Violation] = []
    for page_edges in by_page.values():
        if not _page_nests(page_edges, pos):
            violations += _page_violations(page_edges, pos)
    violations.sort()
    is_proper = all(r != REASON_ENDPOINT for _, _, r in violations)
    is_noncrossing = all(r != REASON_CROSSING for _, _, r in violations)
    return ValidationReport(is_proper, is_noncrossing, emb.pages_used(), tuple(violations))


def classify(g: Graph, report: ValidationReport) -> str:
    """Classify a *valid* embedding, given its validation report, against
    the degree bound.

    This grades the witness only; it pins the optimum exactly when the page
    count also meets the known lower bound (see the oracle module).
    """

    if not report.ok:
        raise CoverageError(f"embedding invalid: {report.violations[:3]}")
    delta = max_degree(g)
    if report.pages_used == delta:
        return DISPERSABLE
    if report.pages_used == delta + 1:
        return NEARLY_DISPERSABLE
    return NEITHER
