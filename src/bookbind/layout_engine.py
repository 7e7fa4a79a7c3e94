"""Circular layouts, chord crossings, and the matching-book-embedding check.

An embedding is valid when its page assignment is a proper edge colouring
(no two edges at a common vertex share a page) and no two same-page chords
cross in the circular layout.  Equivalently, each page is a matching whose
chords, read along the spine, nest like balanced brackets.  ``violations``
counts the chords on each page first and checks a page in one of two ways.
A dense page, one of at least n/4 chords for n spine places, is written by
one pass over all the edges into its own list of n places (the place of
the other end of the chord there, or -1); a chord that meets a taken place
is set aside there.  ``_walk`` then walks the places once with a bracket
stack; on a page with nothing set aside whose chords nest it lists
nothing.  A failing dense page is listed from that array: the walk names
the crossings among the chords kept in it, a set-aside chord's shared
endpoints with them are read off it, a scan of each set-aside chord's
shorter arc names its crossings with them, and the sweep below lists the
few set-aside chords among themselves.  Every other
page collects its chords in the same pass and is listed by
``_page_violations``, as is a dense page whose set-aside chords' arcs cover
more than n places: one sort of one integer key per chord end (not tuples)
and one sweep along the spine, where ends met at one place are shared
endpoints and chords that close out of bracket order cross, in O(P log P +
K) for its P edges and K violations (nothing on a sound page).  So the
walks cover at most 4E places however many pages are used, a page of one
chord costs O(1), and no page is listed in more than O(P log P + K) + O(n).
``validate``, the one judge of crossings and shared endpoints (a
construction's fixed pages included), runs its structural checks at C
speed: the spine is a permutation when ``pos`` is as long as it, the edge
list is E(g) when its ``edge_set`` equals E(g) and is as long as the list
(or, when g is a ``BundleSpec``, when the keys ``u * n + v`` of its pairs
in range equal ``Numbering(g).keys()`` and are as many as the list, with no
graph built), and the page indices are in range by ``min`` and ``max`` over
the ``Counter`` of the pages, which also counts the pages used and finds
the dense ones; only a failing check reads further, to name the offenders
(against a spec, on ``bundle(g)``).

``BookEmbedding`` is an embedding's one index: spine order, two aligned
arrays (``edges``, canonical tuples, and ``pages``, where ``pages[i]`` is
the page of ``edges[i]``) and ``pos``, a list with vertex v's spine place at
index v, built once and only for a spine that is a permutation of 0..n-1
(else it is empty, and ``validate`` refuses the spine), and ``edge_set``,
the edges' frozenset, built once when first asked.  ``embed`` hands it the
catalogue's edge list and the bytearray its search wrote, and builds the
graph on its ``edge_set``; ``from_payload`` fills both arrays from a file's
rows in one inline pass, in file order, every row kept as it is listed, so
``validate`` names an edge the file repeats.  It converts to and from plain
data (``to_payload``, its rows made from ``flat_rows``); only ``cli``
encodes and decodes JSON, and it writes an embedding as ``to_payload``
with its rows written from ``flat_rows``, so the format is spelled here
alone.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from .graph_core import (
    BundleSpec,
    Edge,
    Graph,
    Numbering,
    SpecFormatError,
    bundle,
    make_edge,
    max_degree,
)

YELLOW, GREEN, PURPLE, RED, BLUE = range(5)
COLOR_NAMES = ("yellow", "green", "purple", "red", "blue")

REASON_ENDPOINT = "shared-endpoint"
REASON_CROSSING = "crossing"

DISPERSABLE = "dispersable"
NEARLY_DISPERSABLE = "nearly-dispersable"
NEITHER = "neither"


class CoverageError(ValueError):
    """Embedding is structurally broken: wrong vertex order or edge set."""


@dataclass(frozen=True)
class BookEmbedding:
    """Spine order plus each edge's page in ``m`` pages: ``pages[i]`` is the
    page of ``edges[i]``.  Frozen, so ``pos`` (``pos[v]`` is vertex v's spine
    place) cannot go stale, but ``pages`` may be writable (``embed`` fills a
    bytearray).  ``edges`` is kept as a tuple, so that ``edge_set``, its set
    built once when first asked for, cannot go stale either; edges and pages
    of different lengths raise ``ValueError``.  ``pos`` is empty unless the
    order is a permutation of 0..n-1."""

    order: tuple[int, ...]
    edges: tuple[Edge, ...]
    pages: Sequence[int]
    m: int
    pos: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edges = tuple(self.edges)
        if len(edges) != len(self.pages):
            raise ValueError(f"{len(edges)} edges but {len(self.pages)} pages")
        order = tuple(self.order)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "pos", _positions(order))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        """The edges as a set: ``validate`` compares it with E(g), and
        ``embed`` makes the graph from it."""

        return frozenset(self.edges)

    def items(self) -> Iterator[tuple[Edge, int]]:
        """Each edge with its page, in list order."""

        return zip(self.edges, self.pages)

    def flat_rows(self) -> list[int]:
        """Every edge's ``u, v, page``, one row after another, rows sorted by
        edge: the rows of ``to_payload`` laid end to end."""

        edges, pages = self.edges, self.pages
        numbers: list[int] = []
        for i in sorted(range(len(edges)), key=edges.__getitem__):
            numbers += edges[i]
            numbers.append(pages[i])
        return numbers

    def to_payload(self, rows=None) -> dict:
        """The embedding as plain data: ``{order, pages, m}``, with one
        ``[u, v, page]`` row per edge, sorted by edge.  ``rows``, when
        given, stands in for those rows: ``cli`` hands it ``flat_rows``."""

        if rows is None:
            numbers = self.flat_rows()
            rows = [numbers[i : i + 3] for i in range(0, len(numbers), 3)]
        return {"order": list(self.order), "pages": rows, "m": self.m}

    @classmethod
    def from_payload(cls, payload) -> "BookEmbedding":
        """The embedding in a ``to_payload`` object ``{order, pages, m}``,
        its edges and pages in the order of the rows.

        Every number must be a JSON integer (not ``true``, ``1.0`` or ``"1"``);
        edges are canonicalised, and every row is kept as it is listed, so
        ``validate`` names an edge listed twice.  One inline pass: a list
        ``order`` of ints is taken whole, and a triple of ints with ``u < v``
        is stored as it stands.  ``_integer`` runs only once a type test
        fails, to name the first offender (u, then v, then p), and only
        ``u >= v`` goes through ``make_edge``, which swaps the pair or
        refuses a loop.
        """

        try:
            order = payload["order"]
            if type(order) is not list or not all(type(v) is int for v in order):
                order = tuple(_integer(v) for v in order)
            edges: list[Edge] = []
            pages: list[int] = []
            add_edge, add_page = edges.append, pages.append
            for u, v, p in payload["pages"]:
                if type(u) is not int or type(v) is not int or type(p) is not int:
                    u, v, p = _integer(u), _integer(v), _integer(p)
                add_edge((u, v) if u < v else make_edge(u, v))
                add_page(p)
            return cls(order, edges, pages, _integer(payload["m"]))
        except (TypeError, KeyError, ValueError) as exc:
            raise SpecFormatError(f"bad embedding payload: {exc}") from exc


def _positions(order: tuple[int, ...]) -> list[int]:
    """The inverse of a spine that is a permutation of 0..n-1, else ``[]``:
    a repeat, a gap, a negative or an out-of-range vertex.  The range is
    tested first, so a negative vertex never writes ``pos[-1]``."""

    n = len(order)
    if not order or min(order) < 0 or max(order) >= n:
        return []
    pos = [-1] * n
    for i, v in enumerate(order):
        pos[v] = i
    return [] if -1 in pos else pos  # n vertices in range leave a gap iff one repeats


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


def _walk(at: list[int]) -> list[tuple[int, int]]:
    """Every crossing pair among the chords of one place array, each pair
    once, as one end place of each of its two chords.

    ``at[x]`` is the place of the other end of the chord at place x, or -1
    for a free place; no place holds two chords.  One walk along the spine
    keeps the far ends of the open chords on a stack, innermost last.  A
    chord that closes on top is nested; one that closes under others crosses
    each chord opened after it and still open.  Chords that nest cost one
    bracket walk and list nothing.
    """

    crossed: list[tuple[int, int]] = []
    closers: list[int] = []
    for x, y in enumerate(at):
        if y > x:
            closers.append(y)
        elif y != -1:
            top = closers.pop()
            if top != x:  # the chord closing at x closes under top and the others opened after it
                closers.append(top)
                j = len(closers) - 2
                while closers[j] != x:
                    j -= 1
                crossed += [(x, z) for z in closers[j + 1 :]]
                del closers[j]
    return crossed


def _page_violations(page_edges: list[Edge], pos: list[int]) -> list[Violation]:
    """Every shared endpoint and every crossing on one page, each pair once.

    Costs O(P log P + K) for P edges and K violations.  Chord i with spine
    ends a < b gets the integer keys ``(2a + 1) P + i`` (opens) and
    ``2b P + i`` (closes), so one sort of 2P ints puts the ends in spine
    order, with the closers at a place before its openers.  Ends at one
    place share its vertex, so each end is paired with the ends already met
    at that place.  The open chords are kept as indices in opening order:
    the chords opened after a chord and still open when it closes are
    exactly those that cross it or share one of its endpoints (paired
    already at that place).
    """

    size = len(page_edges)
    keys: list[int] = []
    for i, (u, v) in enumerate(page_edges):
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        keys += ((2 * a + 1) * size + i, 2 * b * size + i)
    keys.sort()
    violations: list[Violation] = []
    open_chords: list[int] = []
    place = first = -1  # the spine place swept, and where its ends begin in keys
    for x, key in enumerate(keys):
        end, i = divmod(key, size)  # end: 2a + 1 where chord i opens, 2b where it closes
        if end >> 1 != place:
            place, first = end >> 1, x
        else:  # chord i shares this place's vertex with every end met here before it
            e = page_edges[i]
            for other in keys[first:x]:
                f = page_edges[other % size]
                violations.append((min(e, f), max(e, f), REASON_ENDPOINT))
        if end & 1:
            open_chords.append(i)
        elif open_chords[-1] == i:  # a well-nested chord closes innermost
            open_chords.pop()
        else:
            j = open_chords.index(i)
            e = page_edges[i]
            for k in open_chords[j + 1 :]:
                f = page_edges[k]
                if e[0] not in f and e[1] not in f:
                    violations.append((min(e, f), max(e, f), REASON_CROSSING))
            del open_chords[j]
    return violations


def _dense_violations(at: list[int], aside: list[Edge], pos: list[int]) -> list[Violation]:
    """Every violation on a dense page, listed from its place array ``at``
    and the chords set aside from it (those that met a taken place).

    ``_walk`` lists the crossings among the chords kept in ``at``, and
    ``_page_violations`` those among the set-aside chords.  A set-aside
    chord shares an endpoint with the kept chord at either of its places,
    read off the array, and crosses each kept chord with one end on the
    shorter arc between its own two ends and the other end off it, so one
    scan of that arc finds those crossings.  When the arcs add up to more
    than n places the whole page goes to ``_page_violations`` instead, so no
    page costs more than O(P log P + K) + O(n).  A page with nothing set
    aside whose chords nest costs one walk and lists nothing.
    """

    n = len(at)
    arcs = 0
    for u, v in aside:
        span = abs(pos[u] - pos[v])
        arcs += min(span, n - span)
    crossed = _walk(at) if arcs <= n else []
    if not aside and not crossed:
        return []
    order = [0] * n  # the vertex at each place
    for v, x in enumerate(pos):
        order[x] = v

    def kept(x: int) -> Edge:  # the chord kept at place x
        u, v = order[x], order[at[x]]
        return (u, v) if u < v else (v, u)

    if arcs > n:
        return _page_violations([kept(x) for x, y in enumerate(at) if y > x] + aside, pos)
    found = _page_violations(aside, pos)  # the set-aside chords among themselves
    for x, z in crossed:
        e, f = kept(x), kept(z)
        found.append((min(e, f), max(e, f), REASON_CROSSING))
    for e in aside:
        a, b = sorted((pos[e[0]], pos[e[1]]))
        for x in (a, b):
            if at[x] != -1:  # the kept chord there shares e's vertex
                f = kept(x)
                found.append((min(e, f), max(e, f), REASON_ENDPOINT))
        inner = 2 * (b - a) <= n  # scan a+1..b-1, else the places outside a..b
        for x in range(a + 1, b) if inner else chain(range(b + 1, n), range(a)):
            y = at[x]  # the kept chord at x crosses e when y is neither on the arc nor at a or b
            if y != -1 and y != a and y != b and (a < y < b) != inner:
                f = kept(x)
                found.append((min(e, f), max(e, f), REASON_CROSSING))
    return found


def violations(
    edges: Sequence[Edge], pages: Sequence[int], pos: list[int], sizes: Counter | None = None
) -> list[Violation]:
    """Every violation among edges on their pages (``edges[i]`` on
    ``pages[i]``), sorted.

    The pages are counted first, unless ``sizes``, the ``Counter`` of
    ``pages``, is handed in (``validate`` counts them once for all its
    checks).  A page of at least n/4 chords, for n spine places, is dense:
    one pass over the edges writes each dense page's chords into its place
    array, setting aside a chord that meets a taken place, and
    ``_dense_violations`` walks it and lists a failing one from it.  Every
    other page collects its chords in that pass and is listed by
    ``_page_violations``, which finds nothing on a sound page.  So the walks
    cover at most 4E places in all, however many pages there are, and a
    sparse page costs O(P log P)."""

    n = len(pos)
    if sizes is None:
        sizes = Counter(pages)
    # a dense page's place array, written below; None for a sparse page
    rows = {p: [-1] * n if 4 * size >= n else None for p, size in sizes.items()}
    chords: dict[int, list[Edge]] = {}  # all of a sparse page's chords, a dense page's set-aside ones
    for e, p in zip(edges, pages):
        at = rows[p]
        if at is not None:
            u, v = e
            a, b = pos[u], pos[v]
            if at[a] == at[b]:  # both free: two kept chords never end at one place
                at[a] = b
                at[b] = a
                continue
        chords.setdefault(p, []).append(e)
    found: list[Violation] = []
    for p, at in rows.items():
        if at is None:
            found += _page_violations(chords[p], pos)
        else:
            found += _dense_violations(at, chords.get(p, []), pos)
    return sorted(found)


def validate(g: Graph | BundleSpec, emb: BookEmbedding) -> ValidationReport:
    """Check properness and page planarity; structural breakage raises.

    Raises CoverageError when the spine is not a permutation of the vertex
    set, the edges listed are not exactly E(g), or a page index falls
    outside ``0..m-1``; an edge listed twice is named in the mismatch too.
    Colouring faults are collected as violations.

    ``g`` may be a ``BundleSpec``: the edges listed are then E(g) when their
    keys ``u * n + v``, over the pairs with ``0 <= u < v < n``, are as many
    as the edges and equal ``Numbering(g).keys()``, and no graph is built.
    The range test keeps a pair past n off another edge's key.  Only a
    failing test builds ``bundle(g)``, to name the offenders as a graph does.
    """

    n = g.s * g.t if isinstance(g, BundleSpec) else g.n
    if not len(emb.pos) == len(emb.order) == n:  # pos is [] unless the order is a permutation
        raise CoverageError("spine order is not a permutation of the vertex set")
    edges, pages, m = emb.edges, emb.pages, emb.m
    if isinstance(g, BundleSpec):
        keys = {u * n + v for u, v in edges if 0 <= u < v < n}
        if len(keys) < len(edges) or keys != Numbering(g).keys():
            _check_edges(bundle(g), emb)  # raises, naming the offenders
    else:
        _check_edges(g, emb)
    if m < 1:
        raise CoverageError(f"page count m={m} must be at least 1")
    sizes = Counter(pages)  # one count: the page range, the pages used and the dense pages
    if sizes and not (0 <= min(sizes) and max(sizes) < m):
        i = next(i for i, p in enumerate(pages) if not 0 <= p < m)
        raise CoverageError(f"page {pages[i]} of edge {edges[i]} outside 0..{m - 1}")

    found = violations(edges, pages, emb.pos, sizes)
    is_proper = all(r != REASON_ENDPOINT for _, _, r in found)
    is_noncrossing = all(r != REASON_CROSSING for _, _, r in found)
    return ValidationReport(is_proper, is_noncrossing, len(sizes), tuple(found))


def _check_edges(g: Graph, emb: BookEmbedding) -> None:
    """Raise CoverageError unless the edges listed are E(g), each once,
    naming the missing, the extra and the repeated ones."""

    edges, listed = emb.edges, emb.edge_set
    if listed != g.edges or len(listed) < len(edges):
        missing, extra = sorted(g.edges - listed), sorted(listed - g.edges)
        text = f"page map mismatch: missing {missing}, extra {extra}"
        if len(listed) < len(edges):
            text += f", listed twice {sorted(e for e, k in Counter(edges).items() if k > 1)}"
        raise CoverageError(text)


def classify(g: Graph, report: ValidationReport) -> str:
    """Classify a *valid* embedding, given its validation report, against
    the degree bound.

    This grades the witness only; it pins the optimum exactly when the page
    count also meets the known lower bound (see the oracle module).  When
    2|E| = m·n for the m pages used, every vertex has an edge on every page,
    so Δ = m and no degree is read.
    """

    if not report.ok:
        raise CoverageError(f"embedding invalid: {report.violations[:3]}")
    if 2 * len(g.edges) == report.pages_used * g.n:
        return DISPERSABLE
    delta = max_degree(g)
    if report.pages_used == delta:
        return DISPERSABLE
    if report.pages_used == delta + 1:
        return NEARLY_DISPERSABLE
    return NEITHER
