"""Independent references the tests compare bookbind against.

Nothing under ``src/bookbind`` imports these: the crossing predicate is the
plain pairwise definition that ``validate``, the page index and the oracle's
conflict masks are checked against; the fibre cycles are the rows that,
with ``bundle_decomp.residual_cycles``, make up the partition the acceptance
criteria audit; ``cycle_edges`` lists a cycle's edges as vertex pairs,
which the edge numbers of ``graph_core.Numbering`` are checked against;
and ``reference_decode`` works out edge number k from its definition, phi
written out apart from ``Shift.apply`` and ``Reflection.apply``, which
``graph_core.Numbering`` (its ``edges``, which the graph, the search and
the page map all read, and its ``keys()``) is checked against; and
``reference_graph_edges`` is the per-edge check ``Graph`` made before its
one unpacking loop, which the accepted inputs, the kept or canonical edges
and the errors of ``Graph`` are checked against; and
``reference_color_edges`` is the oracle's colouring search written out
plainly, recursive and counting saturations page by page, which
``oracle._search_phase`` is checked against node for node, one spine order
after another; ``order_conflicts`` and ``color_one_order`` are the
oracle's bit-parallel conflict masks and colouring of one spine order as
separate calls, as they were before the oracle folded them into one loop
(the masks are checked against the pairwise crossing predicate); and
``reference_complete`` is the construction's completion search with each
fit tested pairwise against the chords placed so far, which
``constructions._PageAssigner`` is checked against node for node;
``reference_verify`` is ``bookbind verify`` on a decoded file, with the
file's rows read as a list of canonical edges, a repeated one named, and
every pair of same-page edges compared, which the array-backed decode and
validator are checked against; ``embedding_of`` builds a ``BookEmbedding`` from an edge -> page
map; ``is_bipartite`` is a plain BFS 2-colouring, which
``graph_core.predict_bipartite``'s parity law is checked against; and
``reference_search_phase`` is one page count of the oracle's search with
every spine order walked (a refuted one on a single grant) and coloured
by ``color_one_order``, which ``oracle._search_phase`` is checked against
grant for grant;
``reference_certify`` is ``oracle.certify`` with the bound always read
by ``oracle.lower_bound``, which its two certificates are checked against;
``odd_cycle_fault`` checks ``bundle_decomp.odd_cycle``'s witness against
``is_bipartite`` and ``reference_decode``;
``closed_form_todo_pages`` is the page of every edge a layout leaves to
the completion search, by one closed-form rule per rule tag, which
``embed``'s pages are checked against; and ``smith_form_map`` carries a
shift spec with gcd(s, t, d) = 1 onto a circulant, where ``embed``'s
embedding is validated and certified again; ``plan_text`` writes a layout's
plan as one JSON line, edges by their vertex pairs, which the plan digests
(``PLAN_DIGEST`` in tier-1, ``tests/plan_digest.py`` on a wider grid) hash;
and ``row_pump`` finds two rows of embed(s + 2, t) whose deletion gives
embed(s, t), which tier-1 and ``tests/page_digest.py`` look for.
"""

from __future__ import annotations

import json
import math
from collections import deque

from bookbind import oracle
from bookbind.bundle_decomp import Cycles, residual_cycles
from bookbind.graph_core import BundleSpec, Edge, InvalidSpecError, Shift, bundle, make_edge, vertex_index
from bookbind.layout_engine import BLUE, GREEN, PURPLE, RED, YELLOW, BookEmbedding


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
    which from the last row is the seam, landing on row 0 at phi(column):
    ``(q + d) % t`` for a d-shift, ``t - 1 - q`` for the reflections
    ``none`` and ``one``, ``(t - q) % t`` for ``two``.
    """

    v, t, phi = k >> 1, spec.t, spec.phi
    q = v % t
    if k % 2 == 0:
        return (v, v + 1) if q < t - 1 else (v - q, v)
    if v < (spec.s - 1) * t:
        return (v, v + t)
    if isinstance(phi, Shift):
        return ((q + phi.d) % t, v)
    return ((t - q) % t if phi.kind == "two" else t - 1 - q, v)


def odd_cycle_fault(spec: BundleSpec, walk, decoded: set[Edge] | None = None) -> str | None:
    """What is wrong with ``walk`` as ``bundle_decomp.odd_cycle(spec)``, or
    None.  It must be None exactly when ``bundle(spec)`` is bipartite, and
    otherwise a closed walk of odd length below s + t, each vertex joined to
    the next (the last to the first) by an edge that ``reference_decode``
    names (``decoded``, the set of them, when the caller has it)."""

    if is_bipartite(bundle(spec)):
        return None if walk is None else f"a walk {walk} in a bipartite bundle"
    if walk is None:
        return "no walk in a nonbipartite bundle"
    if len(walk) % 2 == 0 or len(walk) >= spec.s + spec.t:
        return f"a walk of length {len(walk)}"
    edges = decoded or {reference_decode(spec, k) for k in range(2 * spec.s * spec.t)}
    steps = [make_edge(u, v) for u, v in zip(walk, (*walk[1:], walk[0]))]
    missing = [e for e in steps if e not in edges]
    return f"steps {missing} are not edges" if missing else None


def reference_certify(g, report) -> oracle.CertifyResult:
    """``oracle.certify`` with the bound read by ``oracle.lower_bound``
    alone, whatever the pages: a valid embedding meeting it is exact."""

    if not report.ok:
        raise oracle.OracleError(f"embedding invalid: {report.violations[:3]}")
    bound = oracle.lower_bound(g)
    status = oracle.CERTIFIED if report.pages_used == bound else oracle.UPPER_BOUND_ONLY
    return oracle.CertifyResult(status, report.pages_used, bound)


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

    The rows are read as a list of canonical edges with their pages, each
    row kept, so an edge listed twice, in either orientation and in any
    place, is named as ``validate`` names it; then the structural checks,
    in order (spine, edge set, m, the first page out of range in row
    order), and every pair of same-page edges."""

    def out(report: dict) -> str:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    order, m = payload["order"], payload["m"]
    rows = [((min(u, v), max(u, v)), p) for u, v, p in payload["pages"]]
    listed = [e for e, _ in rows]
    if sorted(order) != list(range(len(order))) or len(order) != 1 + max(v for e in edges for v in e):
        return 2, out({"ok": False, "error": "spine order is not a permutation of the vertex set"})
    twice = sorted({e for e in listed if listed.count(e) > 1})
    if set(listed) != edges or twice:
        missing, extra = sorted(edges - set(listed)), sorted(set(listed) - edges)
        error = f"page map mismatch: missing {missing}, extra {extra}"
        if twice:
            error += f", listed twice {twice}"
        return 2, out({"ok": False, "error": error})
    if m < 1:
        return 2, out({"ok": False, "error": f"page count m={m} must be at least 1"})
    for e, p in rows:
        if not 0 <= p < m:
            return 2, out({"ok": False, "error": f"page {p} of edge {e} outside 0..{m - 1}"})
    pos = {v: i for i, v in enumerate(order)}
    found = []
    rows.sort()
    for i, (e, p) in enumerate(rows):
        for f, q in rows[i + 1 :]:
            if p != q:
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
        "pages_used": len({p for _, p in rows}),
        "violations": found,
    }
    return (2 if found else 0), out(report)


def order_conflicts(inc: oracle._Incidence, order: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """``oracle._Incidence.conflicts`` as it was before the oracle folded it
    into its search loop: the conflict masks of one spine order, and its
    edges by conflict degree: one mask per degree that some edge has,
    highest first.

    One pass over the spine stores ``before[v]``, the XOR of the masks
    of the vertices ahead of ``v``.  For a chord with ends at positions
    ``lo < hi``, ``before[u] ^ before[v]`` holds the edges with exactly
    one end in ``[lo, hi)``: every chord crossing it, the chord itself
    and some of the edges sharing an end with it.  OR-ing in ``ends``
    adds the rest of those and XOR-ing out ``bit`` drops the chord.
    The same loop files each edge under its degree.
    """

    vertex_masks = inc.vertex_masks
    before = [0] * len(order)
    acc = 0
    for v in order:
        before[v] = acc
        acc ^= vertex_masks[v]
    masks: list[int] = []
    keep = masks.append
    by_degree = [0] * len(inc.rows)
    for u, v, ends, bit in inc.rows:
        keep(mask := ((before[u] ^ before[v]) | ends) ^ bit)
        by_degree[mask.bit_count()] |= bit
    # within one degree the lowest set bit is the lowest edge index
    return masks, [*filter(None, reversed(by_degree))]


def color_one_order(
    inc: oracle._Incidence, order: tuple[int, ...], m: int, clock: oracle._BudgetClock
) -> tuple[str, list[int] | None]:
    """``oracle._color_edges`` as it was before the oracle folded it into
    its search loop: the exact m-colouring of the conflict structure for
    one spine order.

    Depth-first search that colours next the uncoloured edge of highest
    saturation (pages already holding a conflicting edge), then highest
    conflict degree, then lowest index, trying pages in increasing order
    and opening at most one new page per step.  A page takes no edge that
    conflicts with one of its edges, so it is a matching and never holds
    more than ⌊n/2⌋ edges.  Each node is counted on ``clock``.
    Returns ("sat", pages), edge ``inc.edges[i]`` on ``pages[i]``,
    ("unsat", None), or ("cut", None) when the budget ran dry mid-search.
    """

    ne = len(inc.edges)
    m = min(m, ne)  # at most E pages can hold an edge; a huge m must not cost memory
    masks, ranks = order_conflicts(inc, order)
    near = [0] * m  # per page: OR of the conflict masks of its edges
    free = (1 << ne) - 1  # uncoloured edges
    used = 0  # pages 0..used-1 are the nonempty ones
    # levels[k]: the edges in the unions ``near`` of at least k pages,
    # coloured ones included (-1 stands for every edge), up to the highest
    # nonempty level.  A list is never changed once built, so a frame keeps
    # the one it replaced.
    levels = [-1]
    # an explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, kept alive until a full collection;
    # a frame is (edge, page, near[page], levels, used) before a placement
    frames: list[tuple[int, int, int, list[int], int]] = []
    nodes = stop = clock.nodes  # take nodes until ``nodes`` reaches ``stop``
    cap = clock.budget.max_nodes
    descend = True
    while True:
        if descend:
            if not free:
                clock.nodes = nodes
                return "sat", [f[1] for f in sorted(frames)]  # one frame per edge
            if nodes == stop:
                stop = clock.grant(nodes, cap, 256)
                if nodes == stop:
                    clock.nodes = nodes
                    return "cut", None
            nodes += 1
            k = len(levels) - 1
            while not levels[k] & free:
                k -= 1
            best = levels[k] & free  # the most saturated uncoloured edges
            for rank in ranks:
                top = best & rank
                if top:
                    break
            e = (top & -top).bit_length() - 1
            c = -1
        else:  # the last colouring failed below: undo it, try the next page
            if not frames:
                clock.nodes = nodes
                return "unsat", None
            e, c, saved, levels, used = frames.pop()
            near[c] = saved
            free |= 1 << e
        bit = 1 << e
        limit = used + 1 if used < m else m
        c += 1
        while c < limit and near[c] & bit:
            c += 1
        descend = c < limit
        if descend:
            saved = near[c]
            frames.append((e, c, saved, levels, used))
            mask = masks[e]
            near[c] = saved | mask
            delta = mask & ~saved  # the edges page c's union gains
            if delta:
                # an edge of ``delta`` at level k-1 reaches level k; a plain
                # loop builds these few levels faster than a comprehension
                lifted = []
                lo = 0
                for hi in levels:
                    lifted.append(hi | lo & delta)
                    lo = hi
                if lo & delta:
                    lifted.append(lo & delta)
                levels = lifted
            if c == used:  # c opens a page
                used += 1
            free ^= bit


def reference_search_phase(n, inc, m, clock):
    """``oracle._search_phase`` with every spine order walked.

    An order is refuted by the capacity cut (m pages of ⌊n/2⌋ edges hold
    fewer than E) or else searched by ``color_one_order``.  Each order
    of ``oracle._spine_orders(n)`` is taken in turn, and a refused order is
    not counted.  A searched phase asks for a grant when the count reaches
    the last one; a refuted phase asks for one grant before its first
    order, and past it only the cap stops the count."""

    refuted = m * (n // 2) < len(inc.edges)
    orders = stop = clock.orders
    cap = clock.budget.max_orders
    if refuted and clock.grant(orders, cap, 1) > orders:
        stop = math.inf if cap is None else cap
    for order in oracle._spine_orders(n):
        if orders == stop and not refuted:
            stop = clock.grant(orders, cap, 1)
        if orders == stop:
            clock.orders = orders
            return oracle.PageSearchResult(m, False, None, False, clock.counters())
        orders += 1
        if refuted:
            continue
        verdict, pages = color_one_order(inc, order, m, clock)
        if verdict != "unsat":
            clock.orders = orders
            witness = BookEmbedding(order, inc.edges, pages, m) if verdict == "sat" else None
            return oracle.PageSearchResult(m, verdict == "sat", witness, False, clock.counters())
    clock.orders = orders
    return oracle.PageSearchResult(m, False, None, True, clock.counters())


def closed_form_todo_pages(spec: BundleSpec, rule: str) -> dict[int, int]:
    """The page of every edge a layout leaves to the completion search, by
    the closed-form rule of its tag: edge number -> page.

    Edges are named as in ``constructions``: vertex (i, j), 1-based, owns
    fibre ``2v`` and rung or seam ``2v + 1``, v = (i - 1) t + j - 1; in
    residual cycle V_k (of ``residual_cycles``), the edge at 1-based index
    idx is the rung of its idx-th vertex, and L is the cycle's length.  For
    a d-shift, g = gcd(t, d) and u = (d/g)^-1 mod t/g, the number of
    wrapping columns.  A rule the layout has no todo list for (the
    three-column one-fixed reflection) gives no page."""

    s, t, phi = spec.s, spec.t, spec.phi
    pages: dict[int, int] = {}

    def rung(i: int, j: int) -> int:
        return 2 * ((i - 1) * t + j - 1) + 1

    if rule.startswith("shift/"):
        cycles = residual_cycles(spec)
        g = math.gcd(t, phi.d)
        su = s * pow(phi.d // g, -1, t // g)
    if rule == "shift/gcd-even":
        # every rung but each cycle's closing one
        x = BLUE if s % 2 else PURPLE
        pre = su + su % 2
        suf = su if s % 2 == 0 else su + 1 if su % 2 else su + 2
        for k, cycle in enumerate(cycles, 1):
            size = len(cycle)
            for idx, v in enumerate(cycle[:-1], 1):
                if k == 1 and idx <= pre:
                    page = x if idx % 2 else RED
                elif k == g and idx > size - suf:
                    page = x if (size - idx) % 2 else RED
                elif k != g and size % 2 and idx == size - 1:
                    page = BLUE
                else:
                    page = GREEN if idx % 2 else RED
                pages[2 * v + 1] = page
    elif rule in ("shift/gcd-odd/odd-residual", "shift/gcd-odd/even-residual"):
        # cycles 3..g, less V_g's closing seam
        odd = rule == "shift/gcd-odd/odd-residual"
        for k in range(3, g + 1):
            cycle = cycles[k - 1]
            size = len(cycle)
            start = size - su
            for idx, v in enumerate(cycle[:-1] if k == g else cycle, 1):
                if k < g:
                    page = RED if idx % 2 else PURPLE
                    if odd and k == 3 and idx >= size - 2:
                        page = (BLUE, RED, PURPLE)[idx - size + 2]
                    elif odd and idx == size:
                        page = BLUE
                elif not odd:
                    page = (PURPLE if idx <= start else YELLOW) if idx % 2 else RED
                elif g == 3 and start % 2 and idx >= size - 2:
                    page = BLUE if idx == size - 2 else RED
                elif idx <= start:
                    page = RED if (start - idx) % 2 else PURPLE
                else:
                    page = YELLOW if (idx - start) % 2 else RED
                pages[2 * v + 1] = page
    elif rule == "shift/gcd-odd/bipartite":
        for i in range(1, s):
            for j in range(1, t + 1):
                pages[rung(i, j)] = RED if (i + j) % 2 else PURPLE
    elif rule == "reflection/base-even/two-fixed":
        for i in range(1, s + 1):
            for j in range(1, t + 1):
                pages[rung(i, j)] = PURPLE if i % 2 else RED
    elif rule == "reflection/base-even/one-fixed" and t >= 5:
        pinned = {rung(1, t), rung(1, t - 1), rung(s, 1), rung(s, 2)}
        for cycle in residual_cycles(spec):
            for idx, v in enumerate(cycle, 1):
                if 2 * v + 1 not in pinned:
                    pages[2 * v + 1] = BLUE if idx % 2 else PURPLE
    elif rule == "reflection/base-even/no-fixed":
        h = t // 2
        fixed = {rung(i, j) for i in (1, s - 1) for j in (1, h, h + 1, t)}
        for i in range(1, s):
            for j in range(1, t + 1):
                if rung(i, j) in fixed:
                    continue
                if j in (1, h):
                    page = BLUE if i == s - 2 else RED if i % 2 else PURPLE
                elif i == s - 1:
                    page = PURPLE if j <= h else BLUE
                else:
                    page = PURPLE if i % 2 else RED
                pages[rung(i, j)] = page
    elif rule.startswith("reflection/base-odd/"):
        for i in range(1, s + 1):
            for j in range(1, t + 1):
                if t % 2 and j == t:
                    page = BLUE
                elif j % 2 == 0:
                    page = RED
                else:
                    page = GREEN if i == 1 else YELLOW if i == s else PURPLE
                pages[rung(i, j) - 1] = page  # the fibre edge of (i, j)
    return pages


def plan_text(rule: str, num, plan) -> str:
    """A layout's plan as one JSON line: the rule tag, the spine, the fixed
    list in order as ``[edge, page]`` and the todo list in order as
    ``[edge, palette]``, each edge the vertex pair its number names in
    ``num``, a ``graph_core.Numbering``."""

    spine, fixed, todo = plan
    fixed = [[list(num.edges[k]), page] for k, page in fixed]
    todo = [[list(num.edges[k]), list(palette)] for k, palette in todo]
    return json.dumps([rule, list(spine), fixed, todo])


def row_pump(small, large, t: int) -> int | None:
    """The 0-based row r, 1 <= r < s, such that deleting rows r and r + 1
    from ``large``, the (rule tag, pages, spine) of embed(s + 2, t), gives
    ``small``, those of embed(s, t), the spine up to reversal; None if no r
    does.

    In edge-number order row r owns ``pages[2rt : 2(r+1)t]``, so the two
    rows are one slice of the pages; their 2t vertices leave the spine, and
    the vertices after them are numbered 2t lower.  A family that pumps
    grows from its base cases by inserting two rows: the rows' blocks of
    the ``_zigzag`` spine and their pages go in whole, and every other page
    stays.  Why such an insertion keeps every page noncrossing is the
    lemma; this compares outcomes and does not prove it.
    """

    rule, pages, order = small
    if rule != large[0]:
        return None
    order, big_pages, big_order = list(order), large[1], large[2]
    for r in range(1, len(order) // t):
        lo, hi = r * t, (r + 2) * t
        if big_pages[: 2 * lo] + big_pages[2 * hi :] == pages:
            spine = [v if v < lo else v - 2 * t for v in big_order if not lo <= v < hi]
            if spine == order or spine[::-1] == order:
                return r
    return None


def smith_form_map(spec: BundleSpec) -> tuple[int, int, list[int]]:
    """Jumps a, b and the isomorphism of a d-shift spec with
    gcd(s, t, d) = 1 onto C(Z_st, {±a, ±b}): vertex (i, j), 0-based, goes to
    j·a + i·b mod st, its image at its flat id.

    a ≡ 0 (mod s) makes a fibre's wrapping edge a jump of a, and
    s·b ≡ d·a (mod st) makes a seam a jump of b; the first such pair (a by
    multiples of s, then b) with gcd(a, b, st) = 1 whose map is a bijection
    is taken.  Raises ValueError when there is none."""

    s, t, d = spec.s, spec.t, spec.phi.d
    n = s * t
    for a in range(0, n, s):
        for b in range(n):
            if (s * b - d * a) % n or math.gcd(a, b, n) != 1:
                continue
            image = [(j * a + i * b) % n for i in range(s) for j in range(t)]
            if len(set(image)) == n:
                return a, b, image
    raise ValueError(f"no Smith-form map for {spec}")
