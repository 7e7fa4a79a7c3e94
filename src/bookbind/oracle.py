"""Independent verification: brute-force matching book thickness on small
graphs, degree/parity lower bounds, and isomorphism-certificate checking.

The search enumerates spine orders with vertex 0 pinned and reflections
pruned, and per order solves an exact colouring of the edge-conflict
structure (conflict = shared endpoint or crossing chords).  Budgets cap the
work; an exhausted budget is reported as such, never converted into a claim.

The kernel is bit-parallel: bit ``e`` of an integer stands for edge ``e``.
One loop, ``_search_phase``, does a page count's work with no call per
spine order: per order, one prefix-XOR pass over the spine and one loop
over the edges give the conflict masks (three bit operations per edge) and
the edges bucketed by conflict degree, on incidence masks built once per
graph (``brute_force_mbt`` shares one build and one budget across its page
counts), and the same loop colours the order.  A page count whose m pages
of ⌊n/2⌋ edges cannot hold every edge is refuted by that one test; its
orders are counted in one grant of the budget, without being built.  The
colouring is an explicit-stack DFS that keeps, per page, the union of its
edges' conflict masks, and the saturation levels: one mask per k of the
edges in at least k of those unions.  Placing an edge updates the levels
with one AND/OR per level from the edges its page's union gains, a frame
keeps the levels it replaced for the backtrack, and a node reads the most
saturated uncoloured edges off the top level that holds one; the degree
buckets break ties in the order of the ``(saturation, degree, -index)``
key.  Nodes and orders are counted in locals carried from one order to
the next and refused by one rule, ``_BudgetClock.grant``, asked only when
a count reaches its last grant: a cap refuses the first order or node past
it, the deadline is read before every order searched and every 256th node
(once for a refuted page count) and refuses it, and a refused order or
node is never counted.  A witness is the graph's sorted edge list with
each edge's page, read off the search's frames.

``certify`` reads a valid embedding's bound off its m pages when
2|E| = m·n (the pages are perfect matchings) or when 2|E| = (m − 1)·n and
an odd closed walk checks out edge by edge; only otherwise does it call
``lower_bound``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import permutations

from .graph_core import Graph, _neighbours, _two_colourable, make_edge
from .layout_engine import BookEmbedding, ValidationReport

EXACT = "exact"
LOWER_BOUND_ONLY = "lower-bound-only"
INCONCLUSIVE = "inconclusive"

CERTIFIED = "certified"
UPPER_BOUND_ONLY = "upper-bound-only"


class OracleError(ValueError):
    """Malformed certificate or budget."""


@dataclass
class SearchBudget:
    """Caps for the exhaustive search; None means unlimited."""

    max_orders: int | None = None
    max_nodes: int | None = None
    time_limit: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_orders", "max_nodes", "time_limit"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:  # also rejects nan
                raise OracleError(f"{name} must be positive and finite, got {v}")


# more nodes or orders than any search takes: the grant of an uncapped budget
_UNCAPPED = 1 << 63


class _BudgetClock:
    """Mutable spend tracker shared across the phases of one search.

    Orders and nodes are refused by one rule, ``grant``: a cap refuses the
    first step past it, the deadline is read before every ``period``-th
    step (every order, every 256th node) and refuses that step, and a
    refused step is never counted.  The search counts in locals, asks for a
    grant when its count reaches the last one, and writes its counts back to
    ``orders`` and ``nodes`` before it returns.
    """

    def __init__(self, budget: SearchBudget | None):
        self.budget = budget or SearchBudget()
        self.orders = 0
        self.nodes = 0
        self.start = time.monotonic()
        self._deadline = (
            None if self.budget.time_limit is None else self.start + self.budget.time_limit
        )

    def grant(self, count: int, cap: int | None, period: int) -> int:
        """The count that steps may be taken up to, ``count`` of them taken:
        up to ``cap``, and up to the step before the next ``period``-th one
        while the deadline runs.  A grant equal to ``count`` refuses the
        next step."""

        stop = _UNCAPPED if cap is None else cap
        if self._deadline is not None and stop > count:
            step = (count + 1) % period  # 0 when the next step is a period-th one
            if not step and time.monotonic() >= self._deadline:
                return count
            stop = min(stop, count + period - step)
        return stop

    def counters(self) -> dict[str, float]:
        return {
            "orders": self.orders,
            "nodes": self.nodes,
            "seconds": round(time.monotonic() - self.start, 3),
        }


@dataclass
class PageSearchResult:
    """Outcome of trying to embed a graph in exactly m pages."""

    m: int
    found: bool
    witness: BookEmbedding | None
    exhausted: bool  # every spine order was fully refuted
    counters: dict[str, float] = field(default_factory=dict)


@dataclass
class MbtResult:
    status: str  # exact | lower-bound-only | inconclusive
    value: int | None
    witness: BookEmbedding | None
    counters: dict[str, float] = field(default_factory=dict)


def lower_bound(g: Graph) -> int:
    """Degree bound, sharpened to Δ+1 for regular nonbipartite graphs.

    Every vertex's edges need distinct pages, so Δ pages are necessary; a
    regular graph that embeds in Δ pages splits into Δ perfect matchings,
    and a noncrossing perfect matching pairs spine places of opposite
    parity (the places a chord encloses are matched among themselves), so
    spine parity 2-colours the graph and nonbipartite regular graphs need
    Δ+1.  Δ, regularity and the 2-colouring are read off one unsorted
    neighbour list per vertex, built in one pass over the edges.
    """

    rows = _neighbours(g)
    degrees = list(map(len, rows))
    delta = max(degrees, default=0)
    if delta > 0 and min(degrees) == delta and not _two_colourable(rows):
        return delta + 1
    return delta


def _spine_orders(n: int):
    """All circular orders, vertex 0 pinned, reflections pruned."""

    if n <= 2:
        yield tuple(range(n))
        return
    for perm in permutations(range(1, n)):
        if perm[0] < perm[-1]:
            yield (0, *perm)


class _Incidence:
    """Order-independent edge data of one graph, built once and shared by
    every spine order and page count searched on it.

    Bit ``e`` of a mask stands for ``edges[e]``.  ``vertex_masks[v]`` holds
    the edges at ``v``; ``rows[e]`` is ``(u, v, ends, bit)`` for edge
    ``e = (u, v)``, where ``ends`` holds the edges at either end of it,
    itself included, and ``bit`` is edge ``e`` alone.
    """

    def __init__(self, g: Graph):
        self.edges = g.edge_list
        self.vertex_masks = vm = [0] * g.n
        for e, (u, v) in enumerate(self.edges):
            vm[u] |= 1 << e
            vm[v] |= 1 << e
        self.rows = [(u, v, vm[u] | vm[v], 1 << e) for e, (u, v) in enumerate(self.edges)]


def check_page_count(m: int) -> None:
    if m < 1:  # the one test of a page count asked for
        raise OracleError(f"page count must be positive, got {m}")


def search_fixed_pages(g: Graph, m: int, budget: SearchBudget | None = None) -> PageSearchResult:
    """Try every spine order for an m-page matching book embedding."""

    check_page_count(m)
    return _search_phase(g.n, _Incidence(g), m, _BudgetClock(budget))


def _search_phase(n: int, inc: _Incidence, m: int, clock: _BudgetClock) -> PageSearchResult:
    """One page count over every spine order of ``n`` vertices, spending
    from ``clock`` (which the phases of one ``brute_force_mbt`` share).

    A page is a matching, so when m pages of ⌊n/2⌋ edges cannot hold every
    edge, each order is refuted without a search.  Its (n-1)!/2 orders (the
    cut holds only for n ≥ 3) are then counted without being built, in one
    grant: the deadline, when one runs, is read once, and unless it has
    passed every order is counted, up to the cap.

    Otherwise one loop does the page count's work, order after order,
    with orders and nodes counted in locals carried across orders: a grant
    is asked for only when a count reaches the last one.  Per order, one
    pass over the spine stores ``before[v]``, the XOR of the masks of the
    vertices ahead of ``v``.  For a chord with ends at positions
    ``lo < hi``, ``before[u] ^ before[v]`` holds the edges with exactly one
    end in ``[lo, hi)``: every chord crossing it, the chord itself and some
    of the edges sharing an end with it.  OR-ing in ``ends`` adds the rest
    of those and XOR-ing out ``bit`` drops the chord, giving the conflict
    mask; the same loop files each edge under its conflict degree.

    The order is then coloured exactly by a depth-first search that colours
    next the uncoloured edge of highest saturation (pages already holding
    a conflicting edge), then highest conflict degree, then lowest index,
    trying pages in increasing order and opening at most one new page per
    step.  A page takes no edge that conflicts with one of its edges, so it
    is a matching and never holds more than ⌊n/2⌋ edges.  The first
    colouring found is the witness; a refused order or node cuts the phase.
    """

    orders = stop = clock.orders  # orders may start until ``orders`` reaches ``stop``
    cap = clock.budget.max_orders
    edges = inc.edges
    ne = len(edges)
    if m * (n // 2) < ne:
        end = orders + math.factorial(n - 1) // 2
        if clock.grant(orders, cap, 1) > orders:  # neither the cap nor the deadline is reached
            orders = end if cap is None else min(cap, end)
        clock.orders = orders
        return PageSearchResult(m, False, None, orders == end, clock.counters())
    pages = min(m, ne)  # at most E pages can hold an edge; a huge m must not cost memory
    vertex_masks, rows = inc.vertex_masks, inc.rows
    nodes = node_stop = clock.nodes  # take nodes until ``nodes`` reaches ``node_stop``
    node_cap = clock.budget.max_nodes
    before = [0] * n
    witness = None
    exhausted = False
    for order in _spine_orders(n):
        if orders == stop:
            stop = clock.grant(orders, cap, 1)
            if orders == stop:
                break
        orders += 1
        acc = 0
        for v in order:
            before[v] = acc
            acc ^= vertex_masks[v]
        masks: list[int] = []
        keep = masks.append
        by_degree = [0] * ne
        for u, v, ends, bit in rows:
            keep(mask := ((before[u] ^ before[v]) | ends) ^ bit)
            by_degree[mask.bit_count()] |= bit
        # one mask per degree that some edge has, highest first; within one
        # degree the lowest set bit is the lowest edge index
        ranks = [*filter(None, reversed(by_degree))]
        near = [0] * pages  # per page: OR of the conflict masks of its edges
        free = (1 << ne) - 1  # uncoloured edges
        used = 0  # pages 0..used-1 are the nonempty ones
        # levels[k]: the edges in the unions ``near`` of at least k pages,
        # coloured ones included (-1 stands for every edge), up to the
        # highest nonempty level.  A list is never changed once built, so a
        # frame keeps the one it replaced.
        levels = [-1]
        # an explicit stack, not a recursive closure: a closure that calls
        # itself is a reference cycle, kept alive until a full collection;
        # a frame is (edge, page, near[page], levels, used) before a placement
        frames: list[tuple[int, int, int, list[int], int]] = []
        descend = True
        while True:
            if descend:
                if not free:  # one frame per edge
                    witness = BookEmbedding(order, edges, [f[1] for f in sorted(frames)], m)
                    break
                if nodes == node_stop:
                    node_stop = clock.grant(nodes, node_cap, 256)
                    if nodes == node_stop:
                        break
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
                    break
                e, c, saved, levels, used = frames.pop()
                near[c] = saved
                free |= 1 << e
            bit = 1 << e
            limit = used + 1 if used < pages else pages
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
                    # an edge of ``delta`` at level k-1 reaches level k; a
                    # plain loop builds these few levels faster than a
                    # comprehension
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
        if descend:  # a witness, or a node the budget refused
            break
    else:
        exhausted = True
    clock.orders, clock.nodes = orders, nodes
    return PageSearchResult(m, witness is not None, witness, exhausted, clock.counters())


def brute_force_mbt(g: Graph, budget: SearchBudget | None = None) -> MbtResult:
    """Exact matching book thickness by exhaustive search, budget permitting.

    Starts at the degree lower bound (so the first witness found is
    optimal) and walks m upward, requiring a fully exhausted refutation of
    every page count in between.  Budget exhaustion mid-phase downgrades the
    answer honestly: LowerBoundOnly(m) once at least m-1 pages are refuted
    beyond the degree bound's starting point, Inconclusive if even the
    first phase was interrupted.
    """

    if g.n == 0:
        return MbtResult(EXACT, 0, None, {})
    if not g.edges:
        witness = BookEmbedding(tuple(range(g.n)), (), (), 1)
        return MbtResult(EXACT, 0, witness, {})
    clock = _BudgetClock(budget)
    inc = _Incidence(g)
    m = max(1, lower_bound(g))
    first_phase = m
    while True:
        res = _search_phase(g.n, inc, m, clock)
        if res.found:
            return MbtResult(EXACT, m, res.witness, clock.counters())
        if not res.exhausted:
            if m == first_phase:
                return MbtResult(INCONCLUSIVE, None, None, clock.counters())
            return MbtResult(LOWER_BOUND_ONLY, m, None, clock.counters())
        m += 1  # m pages exhaustively refuted across all orders


def check_isomorphism(g: Graph, h: Graph, mapping: dict[int, int]) -> bool:
    """Does the vertex bijection carry E(g) exactly onto E(h)?"""

    if set(mapping.keys()) != set(range(g.n)):
        raise OracleError("mapping domain is not exactly V(g)")
    if set(mapping.values()) != set(range(h.n)) or g.n != h.n:
        raise OracleError("mapping is not a bijection onto V(h)")
    image = set()
    for u, v in g.edges:
        mu, mv = mapping[u], mapping[v]
        if mu == mv:
            return False
        image.add(make_edge(mu, mv))
    return image == h.edges


@dataclass
class CertifyResult:
    status: str  # certified | upper-bound-only
    pages: int
    bound: int


def certify(
    g: Graph, report: ValidationReport, odd_cycle: Sequence[int] | None = ()
) -> CertifyResult:
    """Pin the optimum: a valid embedding of ``g`` (given its validation
    report) meeting the lower bound is exact.

    No two edges at a vertex share a page, so no degree exceeds the m pages
    used.  When 2|E| = m·n every page is a perfect matching, which pairs
    spine places of opposite parity: ``g`` is m-regular and bipartite, and
    the bound is m.  When 2|E| = (m − 1)·n, Δ = m or ``g`` is (m − 1)-regular,
    so ``odd_cycle``, a closed walk of odd length in ``g``
    (``bundle_decomp.odd_cycle(spec)``, None for a bipartite spec), makes
    the bound m.  Otherwise, a missing or wrong walk included, the bound is
    ``lower_bound(g)``.
    """

    if not report.ok:
        raise OracleError(f"embedding invalid: {report.violations[:3]}")
    m = report.pages_used
    twice = 2 * len(g.edges)
    if twice == m * g.n or (twice == (m - 1) * g.n and _odd_closed_walk(g, odd_cycle)):
        bound = m
    else:
        bound = lower_bound(g)
    status = CERTIFIED if m == bound else UPPER_BOUND_ONLY
    return CertifyResult(status, m, bound)


def _odd_closed_walk(g: Graph, walk: Sequence[int] | None) -> bool:
    """Is ``walk`` of odd length, each vertex joined in ``g`` to the next
    and the last to the first?"""

    edges = g.edges
    return walk is not None and len(walk) % 2 == 1 and all(
        ((u, v) if u < v else (v, u)) in edges for u, v in zip(walk, (*walk[1:], *walk[:1]))
    )
