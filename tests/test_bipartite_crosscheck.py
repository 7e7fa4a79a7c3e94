"""The one-pass degree and colouring helpers against their definitions:
``max_degree`` and ``oracle.lower_bound`` read unsorted neighbour rows, and
are checked here against networkx's degrees and 2-colouring (networkx is
test-only), as is the reference BFS ``is_bipartite`` that the parity law is
checked against."""

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import example, given, strategies as st  # noqa: E402

from bookbind.graph_core import (  # noqa: E402
    BundleSpec,
    Graph,
    Reflection,
    Shift,
    bundle,
    circulant,
    max_degree,
)
from bookbind.oracle import lower_bound  # noqa: E402
from reference import is_bipartite  # noqa: E402


@st.composite
def graphs(draw):
    """Random graphs on up to 16 vertices, often disconnected, with isolated
    vertices, uneven degrees and edges in either orientation."""

    n = draw(st.integers(0, 16))
    if n < 2:
        return Graph(n, frozenset())
    vertex = st.integers(0, n - 1)
    size = draw(st.integers(0, 30))  # a size drawn first: lists alone stay near-empty
    pair = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(pair, min_size=size, max_size=size))
    return Graph(n, frozenset(pairs))


@st.composite
def circulants(draw):
    """Regular graphs, bipartite or not: circulants on 3..16 vertices."""

    n = draw(st.integers(3, 16))
    return circulant(n, draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3)))


@given(st.one_of(graphs(), graphs(), circulants()))  # random graphs 2:1 over circulants
@example(Graph(0, frozenset()))
@example(Graph(1, frozenset()))
@example(Graph(7, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)})))
@example(Graph(9, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (7, 8)})))
@example(Graph(4, frozenset({(0, 1), (1, 2), (2, 0)})))  # nonbipartite, vertex 3 isolated
@example(circulant(5, {1}))
@example(circulant(6, {1, 3}))
@example(bundle(BundleSpec(3, 6, Shift(2))))
@example(bundle(BundleSpec(4, 6, Shift(2))))
@example(bundle(BundleSpec(3, 6, Reflection("none"))))
def test_degree_helpers_and_lower_bound_match_their_definitions(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    degrees = [d for _, d in h.degree]
    delta = max(degrees, default=0)
    bipartite = nx.is_bipartite(h)
    regular = all(d == delta for d in degrees)
    assert max_degree(g) == delta
    assert is_bipartite(g) == bipartite
    assert lower_bound(g) == (delta + 1 if delta > 0 and regular and not bipartite else delta)
