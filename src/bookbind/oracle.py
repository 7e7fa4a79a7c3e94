"""Independent verification: brute-force matching book thickness on small
graphs, degree/parity lower bounds, and isomorphism-certificate checking.

The search enumerates spine orders with vertex 0 pinned and reflections
pruned, and per order solves an exact colouring of the edge-conflict
structure (conflict = shared endpoint or crossing chords).  Budgets cap the
work; an exhausted budget is reported as such, never converted into a claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations

from .graph_core import Graph, is_bipartite, max_degree, is_regular
from .layout_engine import BookEmbedding, ValidationReport, chords_cross

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
            if v is not None and v <= 0:
                raise OracleError(f"{name} must be positive, got {v}")


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
        if self.budget.max_nodes is not None and self.nodes >= self.budget.max_nodes:
            return False
        self.nodes += 1
        if self._deadline is not None and self.nodes % 256 == 0:
            return time.monotonic() < self._deadline
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
    if delta > 0 and is_regular(g, delta) and not is_bipartite(g)[0]:
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


def _conflict_masks(g: Graph, order: tuple[int, ...]) -> list[int]:
    """Bitmask per edge of the edges it cannot share a page with."""

    pos = {v: i for i, v in enumerate(order)}
    edges = g.edge_list
    masks = [0] * len(edges)
    for a in range(len(edges)):
        u, v = edges[a]
        pu, pv = pos[u], pos[v]
        for b in range(a + 1, len(edges)):
            x, y = edges[b]
            if u in (x, y) or v in (x, y) or chords_cross(pu, pv, pos[x], pos[y]):
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return masks


def _color_edges(
    g: Graph, order: tuple[int, ...], m: int, clock: _BudgetClock
) -> tuple[str, dict | None]:
    """Exact m-colouring of the conflict structure for one spine order.

    Returns ("sat", coloring), ("unsat", None), or ("cut", None) when the
    budget ran dry mid-search.
    """

    edges = g.edge_list
    ne = len(edges)
    if ne == 0:
        return "sat", {}
    cap = len(order) // 2  # a page is a matching: at most ⌊n/2⌋ edges
    if m * cap < ne:
        return "unsat", None
    masks = _conflict_masks(g, order)
    conflict_degree = [mask.bit_count() for mask in masks]
    color_of = [-1] * ne
    color_masks = [0] * m  # bitmask of edges already on each page
    color_counts = [0] * m
    used = 0

    def pick() -> int:
        best, best_key = -1, None
        for e in range(ne):
            if color_of[e] >= 0:
                continue
            sat = sum(1 for c in range(used) if masks[e] & color_masks[c])
            key = (sat, conflict_degree[e], -e)
            if best_key is None or key > best_key:
                best, best_key = e, key
        return best

    def dfs(assigned: int) -> str:
        nonlocal used
        if assigned == ne:
            return "sat"
        if not clock.take_node():
            return "cut"
        e = pick()
        bit = 1 << e
        limit = min(used + 1, m)
        for c in range(limit):
            if color_counts[c] >= cap or masks[e] & color_masks[c]:
                continue
            color_of[e] = c
            color_masks[c] |= bit
            color_counts[c] += 1
            grew = c == used
            if grew:
                used += 1
            verdict = dfs(assigned + 1)
            if verdict != "unsat":
                return verdict
            if grew:
                used -= 1
            color_of[e] = -1
            color_masks[c] &= ~bit
            color_counts[c] -= 1
        return "unsat"

    verdict = dfs(0)
    if verdict == "sat":
        return "sat", {edges[e]: color_of[e] for e in range(ne)}
    return verdict, None


def search_fixed_pages(
    g: Graph, m: int, budget: SearchBudget | None = None, clock: _BudgetClock | None = None
) -> PageSearchResult:
    """Try every spine order for an m-page matching book embedding."""

    if m < 1:
        raise OracleError(f"page count must be positive, got {m}")
    clock = clock or _BudgetClock(budget)
    exhausted = True
    for order in _spine_orders(g.n):
        if not clock.take_order() or clock.timed_out():
            exhausted = False
            break
        verdict, coloring = _color_edges(g, order, m, clock)
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
    m = max(1, lower_bound(g))
    first_phase = m
    while True:
        res = search_fixed_pages(g, m, clock=clock)
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
        image.add((mu, mv) if mu < mv else (mv, mu))
    return image == h.edges


@dataclass
class CertifyResult:
    status: str  # certified | upper-bound-only
    pages: int
    bound: int

    @property
    def mbt(self) -> int | None:
        return self.pages if self.status == CERTIFIED else None


def certify(g: Graph, report: ValidationReport) -> CertifyResult:
    """Pin the optimum: a valid embedding of ``g`` (given its validation
    report) meeting the lower bound is exact."""

    if not report.ok:
        raise OracleError(f"embedding invalid: {report.violations[:3]}")
    bound = lower_bound(g)
    status = CERTIFIED if report.pages_used == bound else UPPER_BOUND_ONLY
    return CertifyResult(status, report.pages_used, bound)
