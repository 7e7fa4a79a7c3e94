"""Independent references the tests compare bookbind against.

Nothing under ``src/bookbind`` imports these: the crossing predicate is the
plain pairwise definition that ``validate``, the page index and the oracle's
conflict masks are checked against; the fibre cycles are the rows that,
with ``bundle_decomp.residual_cycles``, make up the partition the acceptance
criteria audit; ``cycle_edges`` lists a cycle's edges as vertex pairs,
which the edge numbers of ``constructions.SequenceCatalog`` are checked
against; and ``reference_decode`` works out edge number k from its
definition, which ``graph_core.bundle_edges`` (the graph, the search and
the page map all read that one list) is checked against; and
``reference_graph_edges`` is the per-edge check ``Graph`` made before its
one unpacking loop, which the accepted inputs, the kept or canonical edges
and the errors of ``Graph`` are checked against; and
``reference_color_edges`` is the oracle's colouring search written out
plainly, recursive and counting saturations page by page, which the
bit-parallel ``oracle._color_edges`` is checked against node for node; and
``reference_complete`` is the construction's completion search with each
fit tested pairwise against the chords placed so far, which
``constructions._PageAssigner`` is checked against node for node;
``reference_verify`` is ``bookbind verify`` on a decoded file, with the
file's rows read into an edge -> page map and every pair of same-page
edges compared, which the array-backed decode and validator are checked
against; ``embedding_of`` builds a ``BookEmbedding`` from an edge -> page
map; ``is_bipartite`` is a plain BFS 2-colouring, which
``graph_core.predict_bipartite``'s parity law is checked against; and
``reference_search_phase`` is one page count of the oracle's search with
every spine order walked, which ``oracle._search_phase`` is checked against
grant for grant.
"""

from __future__ import annotations

import json
from collections import deque

from bookbind import oracle
from bookbind.bundle_decomp import Cycles
from bookbind.graph_core import BundleSpec, Edge, InvalidSpecError, make_edge, vertex_index
from bookbind.layout_engine import BookEmbedding


def embedding_of(order, page_map: dict, m: int) -> BookEmbedding:
    """The embedding with each key of ``page_map`` once, in map order, on its
    page."""

    return BookEmbedding(order, list(page_map), list(page_map.values()), m)


def is_bipartite(g) -> bool:
    """Is there a proper 2-colouring of the vertices?  Breadth first from
    each uncoloured vertex, over an adjacency map built from the edges."""

    adjacent = {v: [] for v in range(g.n)}
    for u, v in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    colour: dict[int, int] = {}
    for root in range(g.n):
        if root in colour:
            continue
        colour[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adjacent[u]:
                if v not in colour:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


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


def reference_decode(spec: BundleSpec, k: int) -> Edge:
    """Edge number k = 2v + kind of the twisted torus, lower id first.

    Kind 0 is the fibre edge from vertex v toward the next column, which
    wraps to the row's first vertex; kind 1 the rung toward the next row,
    which from the last row is the seam, landing on row 0 at phi(column).
    """

    v, t = k >> 1, spec.t
    q = v % t
    if k % 2 == 0:
        return (v, v + 1) if q < t - 1 else (v - q, v)
    if v < (spec.s - 1) * t:
        return (v, v + t)
    return (spec.phi.apply(q, t), v)


def reference_graph_edges(n, edges):
    """What ``Graph(n, edges).edges`` is, by a check of each edge in turn.

    A frozenset of canonical in-range 2-tuples is kept as it is handed;
    anything else is canonicalised edge by edge, and the first bad edge
    raises.
    """

    if n < 0:
        raise InvalidSpecError(f"negative vertex count {n}")
    if type(edges) is frozenset:
        for e in edges:
            if not (type(e) is tuple and len(e) == 2 and e[0] < e[1]):
                break
            if not (0 <= e[0] and e[1] < n):
                raise InvalidSpecError(f"edge {e} out of range for n={n}")
        else:
            return edges
    canon = set()
    for u, v in edges:
        e = make_edge(u, v)
        if not (0 <= e[0] < n and 0 <= e[1] < n):
            raise InvalidSpecError(f"edge {e} out of range for n={n}")
        canon.add(e)
    return frozenset(canon)


def reference_color_edges(edges, order, m, max_nodes=None):
    """The oracle's exact m-colouring of one spine order, by definition.

    Two edges conflict when they share an end or their chords cross.  Each
    node colours the uncoloured edge with the largest key (saturation,
    conflict degree, -index), where the saturation is the number of pages
    holding an edge it conflicts with.  Pages are tried in increasing
    order, at most one new page per step, and a page takes at most
    ⌊n/2⌋ edges and no two that conflict.  Returns ``(verdict, colouring,
    nodes)``: "sat" with each edge's page in edge order, "unsat", or "cut" when node
    ``max_nodes + 1`` would be taken (the refused node is not counted).
    """

    pos = {v: i for i, v in enumerate(order)}
    cap = len(order) // 2

    def conflict(e, f):
        (a, b), (c, d) = e, f
        return bool({a, b} & {c, d}) or chords_cross(pos[a], pos[b], pos[c], pos[d])

    ne = len(edges)
    near = [[f for f in range(ne) if f != e and conflict(edges[e], edges[f])] for e in range(ne)]
    page = [None] * ne
    nodes = 0

    def search():
        nonlocal nodes
        todo = [e for e in range(ne) if page[e] is None]
        if not todo:
            return "sat"
        if max_nodes is not None and nodes >= max_nodes:
            return "cut"
        nodes += 1
        pages = [[f for f in range(ne) if page[f] == c] for c in range(m)]
        used = sum(1 for members in pages if members)

        def key(e):
            saturation = sum(1 for members in pages if set(members) & set(near[e]))
            return saturation, len(near[e]), -e

        e = max(todo, key=key)
        for c in range(min(used + 1, m)):
            if len(pages[c]) >= cap or set(pages[c]) & set(near[e]):
                continue
            page[e] = c
            verdict = search()
            if verdict != "unsat":
                return verdict
            page[e] = None
        return "unsat"

    verdict = search()
    colouring = page if verdict == "sat" else None
    return verdict, colouring, nodes


def reference_complete(edges, order, todo):
    """The construction's completion search, by definition.

    The todo entries ``(k, palette)`` are taken in order and edge
    ``edges[k]`` is tried on its palette's pages in order; a page fits when
    the edge shares no end with, and crosses no chord of, the edges placed
    on it so far.  Returns ``(found, nodes, placed)``: whether every entry
    was placed, the nodes visited (one per entry reached), and the edge
    number -> page map found, or None.
    """

    pos = {v: i for i, v in enumerate(order)}
    placed: dict[int, int] = {}
    nodes = 0

    def fits(k, page):
        (a, b) = e = edges[k]
        for j, p in placed.items():
            (c, d) = f = edges[j]
            if p == page and (set(e) & set(f) or chords_cross(pos[a], pos[b], pos[c], pos[d])):
                return False
        return True

    def search(i):
        nonlocal nodes
        if i == len(todo):
            return True
        nodes += 1
        k, palette = todo[i]
        for page in palette:
            if fits(k, page):
                placed[k] = page
                if search(i + 1):
                    return True
                del placed[k]
        return False

    found = search(0)
    return found, nodes, dict(placed) if found else None


def reference_verify(edges, payload: dict) -> tuple[int, str]:
    """``bookbind verify``'s exit code and stdout for a graph's edge set and
    a decoded embedding whose numbers are all ints.

    The rows go into a dict, so an edge listed twice, in either orientation,
    keeps its last page at its first place; then the structural checks, in
    order (spine, edge set, m, the first page out of range in map order),
    and every pair of same-page edges."""

    def out(report: dict) -> str:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    order, m = payload["order"], payload["m"]
    pages: dict[Edge, int] = {}
    for u, v, p in payload["pages"]:
        pages[min(u, v), max(u, v)] = p
    if sorted(order) != list(range(len(order))) or len(order) != 1 + max(v for e in edges for v in e):
        return 2, out({"ok": False, "error": "spine order is not a permutation of the vertex set"})
    if pages.keys() != edges:
        missing, extra = sorted(edges - pages.keys()), sorted(pages.keys() - edges)
        return 2, out({"ok": False, "error": f"page map mismatch: missing {missing}, extra {extra}"})
    if m < 1:
        return 2, out({"ok": False, "error": f"page count m={m} must be at least 1"})
    for e, p in pages.items():
        if not 0 <= p < m:
            return 2, out({"ok": False, "error": f"page {p} of edge {e} outside 0..{m - 1}"})
    pos = {v: i for i, v in enumerate(order)}
    found = []
    listed = sorted(pages)
    for i, e in enumerate(listed):
        for f in listed[i + 1 :]:
            if pages[e] != pages[f]:
                continue
            if set(e) & set(f):
                found.append([list(e), list(f), "shared-endpoint"])
            elif chords_cross(pos[e[0]], pos[e[1]], pos[f[0]], pos[f[1]]):
                found.append([list(e), list(f), "crossing"])
    found.sort()
    reasons = {why for _, _, why in found}
    report = {
        "ok": not found,
        "proper": "shared-endpoint" not in reasons,
        "noncrossing": "crossing" not in reasons,
        "pages_used": len(set(pages.values())),
        "violations": found,
    }
    return (2 if found else 0), out(report)


def reference_search_phase(n, inc, m, clock):
    """``oracle._search_phase`` with every spine order walked.

    Each order of ``oracle._spine_orders(n)`` is taken in turn: a grant is
    asked for when the count reaches the last one, a refused order is not
    counted, and an order is refuted by the capacity cut (m pages of
    ⌊n/2⌋ edges hold fewer than E) or else searched by
    ``oracle._color_edges``."""

    refuted = m * (n // 2) < len(inc.edges)
    orders = stop = clock.orders
    cap = clock.budget.max_orders
    for order in oracle._spine_orders(n):
        if orders == stop:
            stop = clock.grant(orders, cap, 1)
            if orders == stop:
                clock.orders = orders
                return oracle.PageSearchResult(m, False, None, False, clock.counters())
        orders += 1
        if refuted:
            continue
        verdict, pages = oracle._color_edges(inc, order, m, clock)
        if verdict != "unsat":
            clock.orders = orders
            witness = BookEmbedding(order, inc.edges, pages, m) if verdict == "sat" else None
            return oracle.PageSearchResult(m, verdict == "sat", witness, False, clock.counters())
    clock.orders = orders
    return oracle.PageSearchResult(m, False, None, True, clock.counters())
