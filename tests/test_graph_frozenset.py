"""``Graph`` on a frozenset keeps the contract of its per-edge check: the
same inputs are kept as handed, canonicalised or rejected, with the same
exception type and message, as ``reference.reference_graph_edges``."""

from collections import namedtuple

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from bookbind.graph_core import Graph  # noqa: E402
from reference import reference_graph_edges  # noqa: E402

Pair = namedtuple("Pair", "u v")  # a tuple subclass: canonicalised to a plain tuple

_ODD = st.sampled_from([0.0, 1.0, 2.5, True, False, -1.0])  # floats and bools


@st.composite
def edge_sets(draw):
    """A vertex count and a frozenset mixing canonical, reversed,
    out-of-range, loop, float/bool and non-numeric pairs, 3-tuples and
    pairs that are not tuples at all."""

    n = draw(st.integers(-1, 8))
    vertex = st.integers(-1, max(n, 0) + 1)
    canonical = st.tuples(st.integers(0, 6), st.integers(1, 7)).filter(lambda e: e[0] < e[1])
    element = st.one_of(
        canonical,
        canonical,  # drawn twice as often: most sets should reach the fast path
        st.tuples(vertex, vertex),
        st.tuples(st.one_of(_ODD, vertex), st.one_of(_ODD, vertex)),
        st.tuples(st.one_of(st.sampled_from(["a", "b", None]), vertex), vertex),
        st.tuples(vertex, vertex, vertex),
        st.binary(min_size=2, max_size=2),
        st.frozensets(st.integers(0, 7), min_size=2, max_size=2),
        st.builds(Pair, vertex, vertex),
    )
    return n, draw(st.frozensets(element, max_size=6))


def _outcome(build, edges):
    try:
        got = build()
    except Exception as exc:  # the type and the message are the contract
        return type(exc), str(exc)
    return sorted(map(repr, got)), got is edges


@given(edge_sets())
@example((4, frozenset({(0, 1), (2, 3)})))
@example((4, frozenset({(1, 0), (2, 3)})))
@example((4, frozenset({(0, 1), (3, 4)})))
@example((4, frozenset({(2, 2)})))
@example((4, frozenset({(0, 1, 2)})))
@example((4, frozenset({("a", "b")})))
@example((4, frozenset({(0.0, 2.5)})))
@example((4, frozenset({(False, True)})))
@example((4, frozenset({b"\x01\x02"})))
@example((4, frozenset({frozenset({1, 2})})))
@example((4, frozenset({Pair(1, 2)})))
@example((-1, frozenset({(0, 1)})))
def test_graph_on_a_frozenset_matches_the_per_edge_check(case):
    n, edges = case
    assert _outcome(lambda: Graph(n, edges).edges, edges) == _outcome(
        lambda: reference_graph_edges(n, edges), edges
    )
