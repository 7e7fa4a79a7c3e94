"""Brute-force thickness oracle: frozen small values and budget semantics.

The numeric expectations here were produced by this oracle and then checked
by hand (spine orders and page matchings verified directly), so they pin
the search against regressions rather than against themselves.
"""

import hashlib
import json
import math
import tracemalloc
import types
from collections import Counter
from unittest import mock

import pytest

import reference
from bookbind import cli, oracle
from bookbind.bundle_decomp import odd_cycle
from bookbind.cli import _sweep_specs
from bookbind.constructions import embed
from bookbind.graph_core import BundleSpec, Graph, Shift, bundle, circulant, make_edge
from bookbind.layout_engine import DISPERSABLE, classify, validate
from bookbind.oracle import (
    CERTIFIED,
    EXACT,
    INCONCLUSIVE,
    LOWER_BOUND_ONLY,
    UPPER_BOUND_ONLY,
    MbtResult,
    OracleError,
    SearchBudget,
    brute_force_mbt,
    certify,
    check_isomorphism,
    lower_bound,
    search_fixed_pages,
)
from reference import embedding_of, reference_certify

try:
    from hypothesis import event, example, given, settings, strategies as st
except ImportError:  # hypothesis is a dev-only dependency; only the property test needs it
    given = None

K4 = Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
K33 = Graph(6, frozenset({(a, b) for a in (0, 1, 2) for b in (3, 4, 5)}))
# K5 minus one edge: max degree 4 but not regular
K5_MINUS = Graph(
    5,
    frozenset(
        {(a, b) for a in range(5) for b in range(a + 1, 5)} - {(3, 4)}
    ),
)
PATH4 = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
STAR3 = Graph(4, frozenset({(0, 1), (0, 2), (0, 3)}))


def test_lower_bound_values():
    assert lower_bound(circulant(4, {1})) == 2  # regular but bipartite
    assert lower_bound(circulant(5, {1})) == 3  # regular and odd
    assert lower_bound(K4) == 4
    assert lower_bound(K5_MINUS) == 4  # irregular: plain max degree
    assert lower_bound(STAR3) == 3
    assert lower_bound(Graph(3, frozenset())) == 0


def test_brute_force_even_cycles_two_pages():
    for n in (4, 6):
        res = brute_force_mbt(circulant(n, {1}))
        assert res.status == EXACT and res.value == 2
        assert validate(circulant(n, {1}), res.witness).ok


def test_brute_force_odd_cycle_three_pages():
    res = brute_force_mbt(circulant(5, {1}))
    assert res.status == EXACT and res.value == 3
    assert validate(circulant(5, {1}), res.witness).ok


def test_brute_force_path_two_pages():
    res = brute_force_mbt(PATH4)
    assert res.status == EXACT and res.value == 2


def test_brute_force_k4_four_pages():
    res = brute_force_mbt(K4)
    assert res.status == EXACT and res.value == 4
    assert validate(K4, res.witness).ok


def test_brute_force_k33_is_dispersable():
    # three pages suffice: e.g. order (0,3,1,4,2,5) with the three
    # perfect matchings {03,12,45}, {01,25,34}, {05,14,23}
    res = brute_force_mbt(K33)
    assert res.status == EXACT and res.value == 3
    assert classify(K33, validate(K33, res.witness)) == DISPERSABLE


def test_brute_force_k5_minus_edge_five_pages():
    # four pages hold at most 4*2 = 8 of the 9 edges, so every order is
    # refuted by counting alone and the answer lands one above the bound
    res = brute_force_mbt(K5_MINUS)
    assert res.status == EXACT and res.value == 5
    assert validate(K5_MINUS, res.witness).ok


def test_brute_force_edgeless_and_empty():
    res = brute_force_mbt(Graph(3, frozenset()))
    assert res.status == EXACT and res.value == 0
    assert validate(Graph(3, frozenset()), res.witness).ok
    res = brute_force_mbt(Graph(0, frozenset()))
    assert res.status == EXACT and res.value == 0 and res.witness is None
    for m in (1, 10**9):  # no edge to colour: the first order is a witness, before any node
        res = search_fixed_pages(Graph(3, frozenset()), m)
        assert res.found and (res.counters["orders"], res.counters["nodes"]) == (1, 0)


def test_search_fixed_pages_exhausts_capacity_refutation():
    # C5 on 2 pages: 2*2 < 5 edges, refuted at each of the (5-1)!/2 orders
    res = search_fixed_pages(circulant(5, {1}), 2)
    assert not res.found and res.exhausted
    assert res.counters["orders"] == 12


def test_search_fixed_pages_finds_witness():
    res = search_fixed_pages(circulant(5, {1}), 3)
    assert res.found and not res.exhausted
    assert res.witness.m == 3
    assert validate(circulant(5, {1}), res.witness).ok


def test_search_fixed_pages_memory_does_not_grow_with_m():
    # at most E pages can hold an edge, so m far above E costs what m = E costs
    g = circulant(6, {1})
    at_e = search_fixed_pages(g, 6)
    tracemalloc.start()
    try:
        res = search_fixed_pages(g, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert res.found and res.witness.m == 10**6
    for key in ("orders", "nodes"):
        assert res.counters[key] == at_e.counters[key]


def test_search_fixed_pages_rejects_zero_pages():
    with pytest.raises(OracleError):
        search_fixed_pages(circulant(4, {1}), 0)


def test_budget_downgrades_to_lower_bound_only():
    # twelve orders cover exactly the capacity-refuted 4-page phase of
    # K5 minus an edge; the 5-page phase then starts and is immediately cut
    res = brute_force_mbt(K5_MINUS, SearchBudget(max_orders=12))
    assert res.status == LOWER_BOUND_ONLY and res.value == 5
    assert res.counters["orders"] == 12

    res = brute_force_mbt(K5_MINUS, SearchBudget(max_nodes=1))
    assert res.status == LOWER_BOUND_ONLY and res.value == 5


def test_brute_force_builds_incidence_once_across_phases(monkeypatch):
    # K5 minus an edge: the 4-page phase is refuted, the 5-page phase finds it
    built = []

    class Counted(oracle._Incidence):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(oracle, "_Incidence", Counted)
    res = brute_force_mbt(K5_MINUS)
    assert (res.status, res.value) == (EXACT, 5)
    assert built == [K5_MINUS]


def test_budget_starves_first_phase_to_inconclusive():
    g = circulant(9, {1, 3})
    res = brute_force_mbt(g, SearchBudget(max_nodes=1))
    assert res.status == INCONCLUSIVE and res.value is None


def test_time_limit_counts_only_explored_nodes(monkeypatch):
    # the clock is read when it starts and before the first order, then it
    # expires; the next deadline check falls on node 256, inside the first
    # order's 658-node search, and refuses it
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) <= 2 else 100.0

    monkeypatch.setattr(oracle.time, "monotonic", monotonic)
    res = search_fixed_pages(circulant(10, {1, 2, 3}), 8, SearchBudget(time_limit=1.0))
    assert not res.found and not res.exhausted
    assert res.counters["orders"] == 1
    assert res.counters["nodes"] == 255


def test_time_limit_is_read_on_every_256th_node(monkeypatch):
    # the reads at the start, before the first order and on node 256 find
    # time left; the clock then expires and node 512 is refused
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) <= 3 else 100.0

    monkeypatch.setattr(oracle.time, "monotonic", monotonic)
    res = search_fixed_pages(circulant(10, {1, 2, 3}), 8, SearchBudget(time_limit=1.0))
    assert not res.found and not res.exhausted
    assert (res.counters["orders"], res.counters["nodes"]) == (1, 511)


def test_time_limit_never_counts_a_refused_order(monkeypatch):
    # four pages of three edges hold C6(1, 2)'s twelve, so each order is
    # searched; the reads at the start and before the first order find time
    # left, the first order is refuted in 5 nodes, and the read before the
    # second order refuses it uncounted
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) <= 2 else 100.0

    monkeypatch.setattr(oracle.time, "monotonic", monotonic)
    res = search_fixed_pages(circulant(6, {1, 2}), 4, SearchBudget(time_limit=1.0))
    assert not res.found and not res.exhausted
    assert (res.counters["orders"], res.counters["nodes"]) == (1, 5)


def test_time_limit_is_read_once_for_a_refuted_page_count(monkeypatch):
    # three pages of three edges cannot hold C6(1, 2)'s twelve: the phase's
    # one grant reads the clock once, finds time left, and counts all
    # (6 - 1)!/2 orders, though the clock has expired by the next read
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) <= 2 else 100.0

    monkeypatch.setattr(oracle.time, "monotonic", monotonic)
    res = search_fixed_pages(circulant(6, {1, 2}), 3, SearchBudget(time_limit=1.0))
    assert not res.found and res.exhausted
    assert (res.counters["orders"], res.counters["nodes"]) == (60, 0)
    assert len(reads) == 3  # the start, the one grant, and the counters' seconds


def test_time_limit_expired_at_a_refuted_page_count_counts_no_order(monkeypatch):
    # the clock has expired by the phase's one read, so no order is counted
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) <= 1 else 100.0

    monkeypatch.setattr(oracle.time, "monotonic", monotonic)
    res = search_fixed_pages(circulant(6, {1, 2}), 3, SearchBudget(time_limit=1.0))
    assert not res.found and not res.exhausted
    assert (res.counters["orders"], res.counters["nodes"]) == (0, 0)


def test_capacity_refuted_phase_builds_no_spine_order(monkeypatch):
    # four pages of four edges cannot hold C9(1, 3)'s eighteen, so its
    # (9 - 1)!/2 orders are counted without one being built
    def refuse(n):
        raise AssertionError(f"the spine orders of {n} vertices were built")

    monkeypatch.setattr(oracle, "_spine_orders", refuse)
    res = search_fixed_pages(circulant(9, {1, 3}), 4)
    assert not res.found and res.exhausted
    assert (res.counters["orders"], res.counters["nodes"]) == (20160, 0)


@pytest.mark.parametrize(
    "n, jumps, budget, found, exhausted, orders, nodes",
    [
        (8, {1, 2}, None, False, True, 2520, 12891),  # every order searched
        (10, {1, 2}, SearchBudget(max_orders=3000), False, False, 3000, 15372),  # the cap cuts
        (9, {1, 3}, None, False, True, 20160, 0),  # refuted by capacity
    ],
)
def test_search_asks_for_a_grant_per_budget_kind_not_per_order(
    n, jumps, budget, found, exhausted, orders, nodes, monkeypatch
):
    # orders and nodes are counted across spine orders, so a phase asks
    # for one grant of each (and one more when the order cap is reached),
    # not one per order searched; the counts are those GOLDEN_MBT pins
    grants = []
    grant = oracle._BudgetClock.grant

    def counted(clock, *args):
        grants.append(args)
        return grant(clock, *args)

    monkeypatch.setattr(oracle._BudgetClock, "grant", counted)
    res = search_fixed_pages(circulant(n, jumps), 4, budget)
    assert (res.found, res.exhausted) == (found, exhausted)
    assert (res.counters["orders"], res.counters["nodes"]) == (orders, nodes)
    assert len(grants) <= 3


def test_brute_force_walks_spine_orders_only_for_searched_page_counts(monkeypatch):
    # K5 minus an edge: the 4-page phase is refuted by capacity and only
    # the 5-page phase, which finds the witness, walks the orders; the
    # outcome is the one a walk of every phase's orders gives
    calls = []
    walk = oracle._spine_orders

    def counted(n):
        calls.append(n)
        return walk(n)

    monkeypatch.setattr(oracle, "_spine_orders", counted)
    res = brute_force_mbt(K5_MINUS)
    assert calls == [5]
    monkeypatch.setattr(oracle, "_search_phase", reference.reference_search_phase)
    want = brute_force_mbt(K5_MINUS)
    del res.counters["seconds"], want.counters["seconds"]
    assert (res.status, res.value) == (EXACT, 5)
    assert res == want


@pytest.mark.parametrize("n", range(3, 10))
def test_spine_order_count_is_half_the_circular_orders(n):
    assert math.factorial(n - 1) // 2 == sum(1 for _ in oracle._spine_orders(n))


def _phase_outcome(search_phase, g, m, budget_caps, reads, whole):
    """The result of ``brute_force_mbt`` (``whole``) or ``search_fixed_pages``
    with ``search_phase`` as the oracle's phase, and the clock reads it made.
    With ``reads`` set, the budget has a time limit and the clock expires
    after that many reads; else it has none and the clock stands still."""

    count = 0

    def monotonic():
        nonlocal count
        count += 1
        return 0.0 if reads is None or count <= reads else 100.0

    budget = SearchBudget(*budget_caps, time_limit=None if reads is None else 1.0)
    clock = types.SimpleNamespace(monotonic=monotonic)
    with mock.patch.object(oracle, "time", clock), mock.patch.object(oracle, "_search_phase", search_phase):
        res = brute_force_mbt(g, budget) if whole else search_fixed_pages(g, m, budget)
    return res, count


if given is not None:

    @st.composite
    def _small_graphs(draw):
        """Graphs on 2..7 vertices, from sparse to complete, so that some
        page counts fall to the capacity cut and others are searched."""

        n = draw(st.integers(2, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        size = draw(st.integers(0, len(pairs)))  # a size drawn first: subsets alone stay sparse
        return Graph(n, frozenset(draw(st.permutations(pairs))[:size]))

    @settings(max_examples=400)  # a few milliseconds each
    @given(
        _small_graphs(),
        st.integers(1, 4),
        st.tuples(st.none() | st.integers(1, 400), st.none() | st.integers(1, 2000)),
        st.none() | st.integers(1, 40),
        st.booleans(),
    )
    # the five fake-clock tests above, by their graphs, page counts and reads
    @example(circulant(10, {1, 2, 3}), 8, (None, None), 2, False)
    @example(circulant(10, {1, 2, 3}), 8, (None, None), 3, False)
    @example(circulant(6, {1, 2}), 4, (None, None), 2, False)
    @example(circulant(6, {1, 2}), 3, (None, None), 2, False)
    @example(circulant(6, {1, 2}), 3, (None, None), 1, False)
    # K5 minus an edge: its refuted 4-page phase spends the 12-order cap, or
    # 12 reads of a clock that then refuses the 5-page phase's first order
    @example(K5_MINUS, 1, (12, None), None, True)
    @example(K5_MINUS, 1, (None, None), 13, True)
    def test_counted_refutation_matches_walking_every_order(g, m, budget_caps, reads, whole):
        # verdicts, witnesses, counters and the number of clock reads equal
        # those of a phase that walks every spine order
        got = _phase_outcome(oracle._search_phase, g, m, budget_caps, reads, whole)
        want = _phase_outcome(reference.reference_search_phase, g, m, budget_caps, reads, whole)
        res = got[0]
        if whole:
            event(f"brute_force_mbt: {res.status}")
        else:
            kind = "refuted" if m * (g.n // 2) < len(g.edges) else "searched"
            event(f"{kind}: {'found' if res.found else 'exhausted' if res.exhausted else 'cut'}")
        assert got == want


def test_budget_validation():
    with pytest.raises(OracleError):
        SearchBudget(max_orders=0)
    with pytest.raises(OracleError):
        SearchBudget(max_nodes=-5)
    with pytest.raises(OracleError):
        SearchBudget(time_limit=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(OracleError):
            SearchBudget(time_limit=bad)
    assert SearchBudget(max_orders=3, max_nodes=10, time_limit=1.0)


def test_check_isomorphism_identity_and_relabel():
    g = circulant(4, {1})
    assert check_isomorphism(g, g, {v: v for v in range(4)})
    # rotating a cycle is an automorphism
    assert check_isomorphism(g, g, {v: (v + 1) % 4 for v in range(4)})
    # swapping two adjacent vertices of C4 breaks the edge set
    assert not check_isomorphism(g, g, {0: 0, 1: 2, 2: 1, 3: 3})


def test_check_isomorphism_rejects_non_bijections():
    g = circulant(4, {1})
    with pytest.raises(OracleError):
        check_isomorphism(g, g, {0: 0, 1: 1, 2: 2})
    with pytest.raises(OracleError):
        check_isomorphism(g, g, {0: 0, 1: 1, 2: 2, 3: 2})
    with pytest.raises(OracleError):
        check_isomorphism(g, circulant(5, {1}), {v: v for v in range(4)})


def test_certify_embedding_at_the_bound():
    from bookbind.constructions import embed

    spec = BundleSpec(3, 6, Shift(2))  # nonbipartite: bound 5
    res = embed(spec)
    cert = certify(res.graph, validate(res.graph, res.embedding))
    assert cert.status == CERTIFIED and cert.pages == 5 and cert.bound == 5

    spec = BundleSpec(4, 6, Shift(2))  # bipartite: bound 4
    res = embed(spec)
    cert = certify(res.graph, validate(res.graph, res.embedding))
    assert cert.status == CERTIFIED and cert.pages == 4


def test_certify_above_the_bound_is_only_an_upper_bound():
    from bookbind.constructions import embed

    spec = BundleSpec(4, 6, Shift(2))
    emb = embed(spec).embedding
    pages = dict(emb.items())
    moved = next(iter(pages))
    pages[moved] = 4  # push one edge onto a fresh page
    wider = embedding_of(emb.order, pages, 5)
    g = bundle(spec)
    report = validate(g, wider)
    cert = certify(g, report)
    assert cert.status == UPPER_BOUND_ONLY
    assert cert.pages == 5 and cert.bound == 4
    # 2|E| = (m - 1)·n here, but no walk of a bipartite graph is odd and closed
    for walk in _walks((), odd_cycle(BundleSpec(3, 6, Shift(2)))):
        assert certify(g, report, walk) == cert == reference_certify(g, report)


def test_certify_rejects_invalid_embedding():
    from bookbind.constructions import embed

    spec = BundleSpec(4, 6, Shift(2))
    emb = embed(spec).embedding
    pages = dict(emb.items())
    e = next(iter(pages))
    # recolour e with the page of a neighbouring edge to break properness
    clash = next(f for f in pages if f != e and set(f) & set(e))
    pages[e] = pages[clash]
    g = bundle(spec)
    report = validate(g, embedding_of(emb.order, pages, emb.m))
    with pytest.raises(OracleError):
        certify(g, report)


def _odd_walk(g: Graph) -> tuple[int, ...]:
    """A closed walk of odd length in ``g``, or ``()`` for a bipartite one:
    the breadth-first tree paths from a root to the two ends of an edge
    whose ends are at depths of one parity, joined by that edge."""

    adjacent = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    parent: dict[int, int | None] = {}
    for root in range(g.n):
        if root not in parent:
            parent[root] = None
            queue = [root]
            for u in queue:
                for v in adjacent[u]:
                    if v not in parent:
                        parent[v] = u
                        queue.append(v)

    def to_root(v):
        path = []
        while v is not None:
            path.append(v)
            v = parent[v]
        return path

    for u, v in sorted(g.edges):
        a, b = to_root(u), to_root(v)
        if len(a) % 2 == len(b) % 2:
            return (*reversed(a), *b[:-1])
    return ()


def _walks(walk, other):
    """``walk`` and wrong ones: none, the walk twice round (even, each step
    an edge), the walk with its last vertex swapped for a non-vertex, and
    ``other``, another graph's walk."""

    walk = walk or ()
    return [walk, (), walk * 2, (*walk[:-1], -1), other]


@pytest.mark.parametrize(
    "g",
    [K33, *(circulant(n, {1}) for n in range(4, 8))]
    + [circulant(n, jumps) for n, jumps in ((6, {1, 2}), (8, {1, 2}), (8, {1, 4}), (9, {1, 3}))],
)
def test_certify_agrees_with_the_reference_on_mbt_witnesses(g):
    report = validate(g, brute_force_mbt(g).witness)
    want = reference_certify(g, report)
    assert want.status == CERTIFIED
    for walk in _walks(_odd_walk(g), odd_cycle(BundleSpec(3, 3, Shift(0)))):
        assert certify(g, report, walk) == want, walk


def test_certify_agrees_with_the_reference_on_every_sweep_row(monkeypatch):
    # every `bookbind sweep` row of s = 3..12, t = 3..30, both families: its
    # own walk certifies it without lower_bound, and no walk, wrong ones
    # included, moves the answer off the reference's
    calls = []
    lower_bound = oracle.lower_bound
    monkeypatch.setattr(oracle, "lower_bound", lambda g: calls.append(g) or lower_bound(g))
    rows, other = 0, odd_cycle(BundleSpec(3, 3, Shift(0)))
    for family in ("shift", "reflection"):
        for spec in _sweep_specs(family, (3, 12), (3, 30)):
            res = embed(spec)
            want = reference_certify(res.graph, res.report)
            assert want.status == CERTIFIED, spec
            walk = odd_cycle(spec)
            calls.clear()
            assert certify(res.graph, res.report, walk) == want and not calls, spec
            for wrong in _walks(walk, other)[1:]:
                assert certify(res.graph, res.report, wrong) == want, (spec, wrong)
            other = walk or other
            rows += 1
    assert rows == 1280


if given is not None:

    def _noncrossing_matching(draw, places):
        """A noncrossing perfect matching of an even run of spine places:
        the first is matched with a place an odd distance on, and the runs
        inside and outside that chord are matched on their own."""

        if not places:
            return []
        j = 2 * draw(st.integers(0, len(places) // 2 - 1)) + 1
        inside, outside = places[1:j], places[j + 1 :]
        return [(places[0], places[j]), *_noncrossing_matching(draw, inside)] + (
            _noncrossing_matching(draw, outside)
        )

    @st.composite
    def _proper_embeddings(draw):
        """A graph and a valid embedding of it: k noncrossing perfect
        matchings of a spine of n places (an edge drawn twice keeps its
        first page), then a few edges dropped, and a few moved or new
        chords put each on a page of its own."""

        n = 2 * draw(st.integers(1, 5))
        order = draw(st.permutations(range(n)))
        k = draw(st.integers(1, 4))
        pages = {}
        for p in range(k):
            for a, b in _noncrossing_matching(draw, list(range(n))):
                pages.setdefault(make_edge(order[a], order[b]), p)
        edges = sorted(pages)
        for e in draw(st.lists(st.sampled_from(edges), unique=True, max_size=2)):
            del pages[e]
        moved = draw(st.lists(st.sampled_from(edges), unique=True, max_size=2))
        chord = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))  # a vertex and a step on
        added = draw(st.lists(chord.map(lambda c: make_edge(c[0], (c[0] + c[1]) % n)), max_size=2))
        m = k
        for e in moved + added:
            pages[e] = m
            m += 1
        return Graph(n, frozenset(pages)), embedding_of(order, pages, m)

    @settings(max_examples=200)  # a few milliseconds each
    @given(_proper_embeddings())
    def test_certify_agrees_with_the_reference_on_drawn_embeddings(case):
        g, emb = case
        report = validate(g, emb)
        assert report.ok
        m, twice, want = report.pages_used, 2 * len(g.edges), reference_certify(g, report)
        degree = Counter(x for e in g.edges for x in e)
        shape = "regular" if len({degree[v] for v in range(g.n)}) == 1 else "irregular"
        if twice == m * g.n:
            event(f"2|E| = m·n, {shape}")
        elif twice == (m - 1) * g.n:
            event(f"2|E| = (m - 1)·n, {shape}, {want.status}")
        for walk in _walks(_odd_walk(g), odd_cycle(BundleSpec(3, 3, Shift(0)))):
            assert certify(g, report, walk) == want, walk


def test_mbt_result_counters_present():
    res = brute_force_mbt(circulant(4, {1}))
    assert {"orders", "nodes", "seconds"} <= set(res.counters)
    assert isinstance(res, MbtResult)


# `bookbind mbt` outcomes, pinned: sha256 prefix of the exit code and the
# payload with `counters.seconds` dropped, so orders, nodes, verdicts and
# witnesses must all match.  The oracle workload's seven cases come first,
# then small graphs by name, one small bundle per family, and budget cuts.
SMALL_GRAPHS = {
    "C4": circulant(4, {1}),
    "C5": circulant(5, {1}),
    "K4": K4,
    "K3,3": K33,
    "K5-e": K5_MINUS,
}
GOLDEN_MBT = {
    "circulant:n=8,S=1,2 --pages 4": "aecd9df58ba0047d",
    "circulant:n=8,S=2,3 --pages 4": "934e385f05d4b66d",
    "circulant:n=10,S=1,2 --pages 4 --max-orders 3000": "42ba4204f005d037",
    "circulant:n=10,S=1,4 --pages 4 --max-orders 3000": "9e9779cf36364e98",
    "circulant:n=9,S=1,3 --pages 4": "43e87e8004c4f4d4",
    "s=3,t=4,phi=shift:2": "da79f19e804e3fe7",
    "s=3,t=4,phi=refl:two": "dde28f549677ce0d",
    "C4": "daaf69f9c445d06e",
    "C5": "e38de837ab605cc3",
    "C5 --pages 2": "2a29bf34da597749",
    "K4": "42eff8174083c653",
    "K4 --pages 3": "906c50a994e5fbdd",
    "K3,3": "5df29e3f577ad8f7",
    "K5-e": "48c59668fcd76533",
    "s=3,t=3,phi=shift:1": "0a0b3d00d0d4c6a6",
    "s=3,t=3,phi=refl:one": "2399db60d88f3f82",
    "s=4,t=3,phi=refl:one": "d26b0d4676b3208d",
    "s=3,t=4,phi=refl:none": "9d1acac6fccbdb60",
    "circulant:n=10,S=1,2 --pages 4 --max-nodes 500": "31378c490456954a",
    "circulant:n=9,S=1,3 --max-nodes 1": "495b8447642ca6de",
    "s=3,t=4,phi=shift:2 --max-orders 1": "30a2d95c502ee2ee",
    "s=4,t=4,phi=shift:2 --max-orders 300": "18fddc9c3b0795d5",
    "K5-e --max-orders 12": "929bef9d2484f36b",
    "K5-e --max-nodes 1": "6d08c095a08ad9ef",
}


def _mbt_digest(args: str, monkeypatch, capsys) -> str:
    parse = cli._parse_spec
    monkeypatch.setattr(
        cli, "_parse_spec", lambda text: SMALL_GRAPHS[text] if text in SMALL_GRAPHS else parse(text)
    )
    spec, *flags = args.split(" ")
    code = cli.main(["mbt", spec, *flags])
    payload = json.loads(capsys.readouterr().out)
    del payload["counters"]["seconds"]
    blob = json.dumps([code, payload], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("args", list(GOLDEN_MBT))
def test_mbt_outcome_is_pinned(args, monkeypatch, capsys):
    assert _mbt_digest(args, monkeypatch, capsys) == GOLDEN_MBT[args]
