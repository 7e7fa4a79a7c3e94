"""``is_bipartite`` against networkx on random graphs (networkx is test-only)."""

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
from hypothesis import example, given, strategies as st  # noqa: E402

from bookbind.graph_core import Graph, is_bipartite  # noqa: E402


@st.composite
def graphs(draw):
    """Sparse random graphs on up to 12 vertices, often disconnected, with
    edges in either orientation."""

    n = draw(st.integers(0, 12))
    if n < 2:
        return Graph(n, frozenset())
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=20))
    return Graph(n, frozenset(pairs))


@given(graphs())
@example(Graph(0, frozenset()))
@example(Graph(1, frozenset()))
@example(Graph(7, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)})))
@example(Graph(9, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (7, 8)})))
def test_is_bipartite_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    assert is_bipartite(g) == nx.is_bipartite(h)
