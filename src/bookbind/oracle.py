"""Independent verification: brute-force matching book thickness on small
graphs, degree/parity lower bounds, and isomorphism-certificate checking.

The search enumerates spine orders with vertex 0 pinned and reflections
pruned, and per order solves an exact colouring of the edge-conflict
structure (conflict = shared endpoint or crossing chords).  Budgets cap the
work; an exhausted budget is reported as such, never converted into a claim.

The kernel is bit-parallel: bit ``e`` of an integer stands for edge ``e``.
Per order, the conflict masks come from one prefix-XOR pass over the spine
plus three bit operations per edge, on incidence masks built once per
graph (``brute_force_mbt`` shares one build and one budget across its page
counts).  The colouring is an explicit-stack DFS that keeps, per page, the
union of its edges' conflict masks.  A node counts those unions level by
level (one mask per k of the uncoloured edges that at least k of them
contain) to find the most saturated edges in a few AND/OR operations per
page, and edges bucketed by conflict degree break ties in the order of
the ``(saturation, degree, -index)`` key.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import permutations

from .graph_core import Graph, is_bipartite, is_regular, make_edge, max_degree
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


class _BudgetClock:
    """Mutable spend tracker shared across the phases of one search."""

    def __init__(self, budget: SearchBudget | None):
        self.budget = budget or SearchBudget()
        self.orders = 0
        self.nodes = 0
        self.start = time.monotonic()
        self._deadline = (
            None if self.budget.time_limit is None else self.start + self.budget.time_limit
        )

    def take_order(self) -> bool:
        if self.budget.max_orders is not None and self.orders >= self.budget.max_orders:
            return False
        self.orders += 1
        return True

    def take_node(self) -> bool:
        """Grant one search node; a refused node is not counted."""

        if self.budget.max_nodes is not None and self.nodes >= self.budget.max_nodes:
            return False
        if (
            self._deadline is not None
            and (self.nodes + 1) % 256 == 0
            and time.monotonic() >= self._deadline
        ):
            return False
        self.nodes += 1
        return True

    def timed_out(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

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
    regular graph that embeds in Δ pages splits into Δ perfect matchings and
    each page of a book embedding with all matchings perfect forces an even
    structure, so nonbipartite regular graphs need Δ+1.
    """

    delta = max_degree(g)
    if delta > 0 and is_regular(g, delta) and not is_bipartite(g):
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
    the edges at ``v``; ``ends[e]`` holds the edges at either end of edge
    ``e``, itself included, and ``bits[e]`` is edge ``e`` alone.
    """

    def __init__(self, g: Graph):
        self.edges = g.edge_list
        self.vertex_masks = [0] * g.n
        for e, (u, v) in enumerate(self.edges):
            self.vertex_masks[u] |= 1 << e
            self.vertex_masks[v] |= 1 << e
        self.bits = [1 << e for e in range(len(self.edges))]
        self.ends = [self.vertex_masks[u] | self.vertex_masks[v] for u, v in self.edges]

    def conflict_masks(self, order: tuple[int, ...]) -> list[int]:
        """Bitmask per edge of the edges it cannot share a page with.

        One pass over the spine stores ``before[v]``, the XOR of the masks
        of the vertices ahead of ``v``.  For a chord with ends at positions
        ``lo < hi``, ``before[u] ^ before[v]`` holds the edges with exactly
        one end in ``[lo, hi)``: every chord crossing it, the chord itself
        and some of the edges sharing an end with it.  OR-ing in ``ends``
        adds the rest of those and XOR-ing out ``bits`` drops the chord.
        """

        before = [0] * len(order)
        acc = 0
        for v in order:
            before[v] = acc
            acc ^= self.vertex_masks[v]
        return [
            ((before[u] ^ before[v]) | ends) ^ bit
            for (u, v), ends, bit in zip(self.edges, self.ends, self.bits)
        ]


def _color_edges(
    inc: _Incidence, order: tuple[int, ...], m: int, clock: _BudgetClock
) -> tuple[str, dict | None]:
    """Exact m-colouring of the conflict structure for one spine order.

    Depth-first search that colours next the uncoloured edge of highest
    saturation (pages already holding a conflicting edge), then highest
    conflict degree, then lowest index, trying pages in increasing order
    and opening at most one new page per step.  Returns ("sat", coloring),
    ("unsat", None), or ("cut", None) when the budget ran dry mid-search.
    """

    edges = inc.edges
    ne = len(edges)
    if ne == 0:
        return "sat", {}
    cap = len(order) // 2  # a page is a matching: at most ⌊n/2⌋ edges
    if m * cap < ne:
        return "unsat", None
    m = min(m, ne)  # at most E pages can hold an edge; a huge m must not cost memory
    masks = inc.conflict_masks(order)
    # the edges of each conflict degree, highest degree first; within one
    # degree the lowest set bit is the lowest edge index
    by_degree = [0] * ne
    for mask, bit in zip(masks, inc.bits):
        by_degree[mask.bit_count()] |= bit
    ranks = [edges_of for edges_of in reversed(by_degree) if edges_of]
    near = [0] * m  # per page: OR of the conflict masks of its edges
    counts = [0] * m
    free = (1 << ne) - 1  # uncoloured edges
    used = 0  # pages 0..used-1 are the nonempty ones
    # an explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, kept alive until a full collection
    frames: list[tuple[int, int, int]] = []  # (edge, page, near[page] before)
    descend = True
    while True:
        if descend:
            if not free:
                return "sat", {edges[e]: c for e, c, _ in sorted(frames)}
            if not clock.take_node():
                return "cut", None
            # at_least[k]: uncoloured edges in the conflict sets of >= k pages
            at_least = [free]
            for c in range(used):
                x = near[c]
                at_least.append(at_least[-1] & x)
                for k in range(c, 0, -1):
                    at_least[k] |= at_least[k - 1] & x
            k = len(at_least) - 1
            while not at_least[k]:
                k -= 1
            for rank in ranks:
                best = at_least[k] & rank
                if best:
                    break
            e = (best & -best).bit_length() - 1
            c = -1
        else:  # the last colouring failed below: undo it, try the next page
            if not frames:
                return "unsat", None
            e, c, saved = frames.pop()
            near[c] = saved
            counts[c] -= 1
            free |= 1 << e
            if not counts[c]:
                used -= 1
        bit = 1 << e
        limit = min(used + 1, m)
        c += 1
        while c < limit and (counts[c] >= cap or near[c] & bit):
            c += 1
        descend = c < limit
        if descend:
            frames.append((e, c, near[c]))
            near[c] |= masks[e]
            if not counts[c]:
                used += 1
            counts[c] += 1
            free ^= bit


def check_page_count(m: int) -> None:
    if m < 1:  # the one test of a page count asked for
        raise OracleError(f"page count must be positive, got {m}")


def search_fixed_pages(g: Graph, m: int, budget: SearchBudget | None = None) -> PageSearchResult:
    """Try every spine order for an m-page matching book embedding."""

    check_page_count(m)
    return _search_phase(g.n, _Incidence(g), m, _BudgetClock(budget))


def _search_phase(n: int, inc: _Incidence, m: int, clock: _BudgetClock) -> PageSearchResult:
    """One page count over every spine order of ``n`` vertices, spending
    from ``clock`` (which the phases of one ``brute_force_mbt`` share)."""

    exhausted = True
    for order in _spine_orders(n):
        if not clock.take_order() or clock.timed_out():
            exhausted = False
            break
        verdict, coloring = _color_edges(inc, order, m, clock)
        if verdict == "sat":
            witness = BookEmbedding(order, coloring, m)
            return PageSearchResult(m, True, witness, False, clock.counters())
        if verdict == "cut":
            exhausted = False
            break
    return PageSearchResult(m, False, None, exhausted, clock.counters())


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
        witness = BookEmbedding(tuple(range(g.n)), {}, 1)
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


def certify(g: Graph, report: ValidationReport) -> CertifyResult:
    """Pin the optimum: a valid embedding of ``g`` (given its validation
    report) meeting the lower bound is exact."""

    if not report.ok:
        raise OracleError(f"embedding invalid: {report.violations[:3]}")
    bound = lower_bound(g)
    status = CERTIFIED if report.pages_used == bound else UPPER_BOUND_ONLY
    return CertifyResult(status, report.pages_used, bound)
