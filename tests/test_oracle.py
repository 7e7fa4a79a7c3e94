"""Brute-force thickness oracle: frozen small values and budget semantics.

The numeric expectations here were produced by this oracle and then checked
by hand (spine orders and page matchings verified directly), so they pin
the search against regressions rather than against themselves.
"""

import hashlib
import json
import math
import tracemalloc

import pytest

from bookbind import cli, oracle
from bookbind.graph_core import BundleSpec, Graph, Shift, bundle, circulant
from bookbind.layout_engine import DISPERSABLE, BookEmbedding, classify, validate
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
    # the clock expires after the first node; the next deadline check falls
    # on node 256, inside the first order's 658-node search, and refuses it
    explored = []
    take_node = oracle._BudgetClock.take_node

    def counted(self):
        granted = take_node(self)
        if granted:
            explored.append(self.nodes)
        return granted

    monkeypatch.setattr(oracle._BudgetClock, "take_node", counted)
    monkeypatch.setattr(oracle.time, "monotonic", lambda: 100.0 if explored else 0.0)
    res = search_fixed_pages(circulant(10, {1, 2, 3}), 8, SearchBudget(time_limit=1.0))
    assert not res.found and not res.exhausted
    assert res.counters["orders"] == 1
    assert res.counters["nodes"] == len(explored) == 255


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
    pages = dict(emb.pages)
    moved = next(iter(pages))
    pages[moved] = 4  # push one edge onto a fresh page
    wider = BookEmbedding(emb.order, pages, 5)
    g = bundle(spec)
    cert = certify(g, validate(g, wider))
    assert cert.status == UPPER_BOUND_ONLY
    assert cert.pages == 5 and cert.bound == 4


def test_certify_rejects_invalid_embedding():
    from bookbind.constructions import embed

    spec = BundleSpec(4, 6, Shift(2))
    emb = embed(spec).embedding
    pages = dict(emb.pages)
    e = next(iter(pages))
    # recolour e with the page of a neighbouring edge to break properness
    clash = next(f for f in pages if f != e and set(f) & set(e))
    pages[e] = pages[clash]
    g = bundle(spec)
    report = validate(g, BookEmbedding(emb.order, pages, emb.m))
    with pytest.raises(OracleError):
        certify(g, report)


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
