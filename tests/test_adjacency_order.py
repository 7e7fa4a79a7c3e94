"""``Graph.adjacency`` rows come out ascending without a sort of their own:
walking the sorted ``edge_list`` hands each vertex its smaller neighbours in
order, then its larger ones."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from bookbind.graph_core import (  # noqa: E402
    BundleSpec,
    Graph,
    Reflection,
    Shift,
    bundle,
    circulant,
)


@st.composite
def graphs(draw):
    """Random graphs on up to 16 vertices, edges in either orientation."""

    n = draw(st.integers(0, 16))
    if n < 2:
        return Graph(n, frozenset())
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=60))
    return Graph(n, frozenset(pairs))


@given(graphs())
@example(bundle(BundleSpec(5, 8, Shift(3))))
@example(bundle(BundleSpec(4, 7, Reflection("one"))))
@example(circulant(11, {1, 3, 5}))
def test_adjacency_rows_are_sorted(g):
    assert all(list(row) == sorted(row) for row in g.adjacency)
    assert sorted(v for row in g.adjacency for v in row) == sorted(
        v for e in g.edges for v in e
    )
