"""Graph values, bundle constructors, and structural predicates."""

import json
import random

import pytest

from bookbind import cli
from bookbind.graph_core import (
    MAX_VERTICES,
    BundleSpec,
    Graph,
    InvalidSpecError,
    Reflection,
    Shift,
    SpecFormatError,
    _neighbours,
    bundle,
    circulant,
    format_bundle_spec,
    make_edge,
    max_degree,
    parse_bundle_spec,
    predict_bipartite,
    vertex_index,
    vertex_pair,
)
from reference import is_bipartite


def _regular_degree(g: Graph) -> int:
    """The degree of g, asserted regular: Δ·n counts every edge twice only
    when every degree is Δ."""

    delta = max_degree(g)
    assert delta * g.n == 2 * len(g.edges)
    return delta


def test_make_edge_orders_endpoints():
    assert make_edge(5, 2) == (2, 5)
    assert make_edge(2, 5) == (2, 5)


def test_make_edge_rejects_loops():
    with pytest.raises(InvalidSpecError):
        make_edge(3, 3)


def test_graph_canonicalizes_and_validates():
    g = Graph(4, frozenset({(3, 1), (0, 1)}))
    assert g.edges == {(1, 3), (0, 1)}
    assert g.edge_list == ((0, 1), (1, 3))
    rows = _neighbours(g)
    assert len(rows[1]) == 2 and len(rows[2]) == 0
    assert sorted(rows[1]) == [0, 3]
    canonical = frozenset({(0, 1), (1, 3)})
    assert Graph(4, canonical).edges is canonical  # kept as it is handed
    for edges in (frozenset({(0, 5)}), frozenset({(5, 0)}), {(0, 5)}):
        with pytest.raises(InvalidSpecError, match=r"^edge \(0, 5\) out of range for n=2$"):
            Graph(2, edges)
    with pytest.raises(InvalidSpecError, match="^loop edge at vertex 1$"):
        Graph(4, frozenset({(0, 1), (1, 1)}))
    with pytest.raises(InvalidSpecError):
        Graph(-1, frozenset())


def test_graph_json_roundtrip():
    g = circulant(7, {1, 3})
    payload = json.loads(cli._dumps(g.to_payload()))
    assert Graph(payload["n"], frozenset(map(tuple, payload["edges"]))) == g


def test_cycle_graph_small():
    g = circulant(4, {1})  # the cycle C_4
    assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}
    with pytest.raises(InvalidSpecError):
        circulant(2, {1})


def test_circulant_edges_and_degree():
    g = circulant(9, {1, 3})
    assert g.n == 9 and len(g.edges) == 18
    assert _regular_degree(g) == 4
    # the half jump contributes a single edge per vertex pair
    h = circulant(8, {4})
    assert len(h.edges) == 4 and _regular_degree(h) == 1


def test_circulant_accepts_any_iterable():
    # generators must not be consumed before duplicate detection
    g = circulant(6, (k for k in (1, 2)))
    assert _regular_degree(g) == 4


def test_circulant_rejects_bad_jumps():
    with pytest.raises(InvalidSpecError):
        circulant(6, {0})
    with pytest.raises(InvalidSpecError):
        circulant(6, {4})  # above n//2
    with pytest.raises(InvalidSpecError):
        circulant(6, [1, 1])
    # an empty jump set is legal and gives the edgeless graph
    assert len(circulant(6, []).edges) == 0


def test_shift_validation_and_apply():
    assert Shift(2).apply(5, 6) == 1
    assert Shift(0).apply(4, 6) == 4
    with pytest.raises(InvalidSpecError):
        BundleSpec(3, 6, Shift(6))
    with pytest.raises(InvalidSpecError):
        BundleSpec(3, 6, Shift(-1))


def test_reflection_validation_and_fixed_columns():
    # t even, no fixed column: q -> t-1-q
    r = Reflection("none")
    assert [r.apply(q, 6) for q in range(6)] == [5, 4, 3, 2, 1, 0]
    # t even, two fixed columns: q -> (t-q) % t
    r = Reflection("two")
    assert [r.apply(q, 6) for q in range(6)] == [0, 5, 4, 3, 2, 1]
    # t odd, one fixed column
    r = Reflection("one")
    assert [r.apply(q, 7) for q in range(7)] == [6, 5, 4, 3, 2, 1, 0]
    with pytest.raises(InvalidSpecError):
        BundleSpec(3, 7, Reflection("none"))
    with pytest.raises(InvalidSpecError):
        BundleSpec(3, 6, Reflection("one"))
    with pytest.raises(InvalidSpecError):
        Reflection("diag").validate(6)


def test_bundle_spec_bounds():
    with pytest.raises(InvalidSpecError):
        BundleSpec(2, 5, Shift(1))
    with pytest.raises(InvalidSpecError):
        BundleSpec(5, 2, Shift(1))


def test_vertex_count_limit():
    # MAX_VERTICES itself is allowed; a bundle or circulant past it is refused
    assert MAX_VERTICES == 10**6
    assert BundleSpec(1000, 1000, Shift(2)).s == 1000
    with pytest.raises(InvalidSpecError, match="over the limit"):
        BundleSpec(1001, 1000, Shift(2))
    with pytest.raises(InvalidSpecError, match="over the limit"):
        BundleSpec(3, 10**20, Shift(1))
    with pytest.raises(InvalidSpecError, match="over the limit"):
        circulant(MAX_VERTICES + 1, {1})


def test_vertex_indexing_roundtrip():
    t = 7
    for v in range(3 * t):
        p, q = vertex_pair(v, t)
        assert vertex_index(p, q, t) == v


def test_bundle_shape_and_seam():
    spec = BundleSpec(4, 6, Shift(2))
    g = bundle(spec)
    assert g.n == 24 and len(g.edges) == 48
    assert _regular_degree(g) == 4
    # seam joins (s-1, q) to (0, (q+2) % 6)
    assert make_edge(vertex_index(3, 1, 6), vertex_index(0, 3, 6)) in g.edges
    # interior rung
    assert make_edge(vertex_index(1, 5, 6), vertex_index(2, 5, 6)) in g.edges
    # fiber wrap edge
    assert make_edge(vertex_index(2, 5, 6), vertex_index(2, 0, 6)) in g.edges


def test_bundle_reflection_seam():
    g = bundle(BundleSpec(3, 6, Reflection("two")))
    assert make_edge(vertex_index(2, 2, 6), vertex_index(0, 4, 6)) in g.edges
    assert _regular_degree(g) == 4


def test_is_bipartite_even_cycle():
    assert is_bipartite(circulant(6, {1})) is True


def test_is_bipartite_odd_cycle():
    assert is_bipartite(circulant(5, {1})) is False


def test_predict_bipartite_matches_bfs():
    rng = random.Random(7)
    specs = []
    for _ in range(40):
        s, t = rng.randint(3, 6), rng.randint(3, 8)
        if rng.random() < 0.5:
            specs.append(BundleSpec(s, t, Shift(rng.randint(0, t - 1))))
        else:
            kinds = ("one",) if t % 2 else ("none", "two")
            specs.append(BundleSpec(s, t, Reflection(rng.choice(kinds))))
    for spec in specs:
        assert predict_bipartite(spec) == is_bipartite(bundle(spec)), spec


def test_parse_format_roundtrip():
    for text in ("s=5,t=7,phi=shift:3", "s=3,t=8,phi=refl:none", "s=4,t=9,phi=refl:one"):
        assert format_bundle_spec(parse_bundle_spec(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "s=5,t=7",
        "s=5,t=7,phi=twist:1",
        "s=5,t=7,phi=shift:x",
        "s=5.0,t=7,phi=shift:1",
        "s=3,t=6,phi=shift:2,d=4",
        "s=3,t=6,phi=shift:2,s=5",
        # int() reads these too, but a spec integer is a sign and ASCII digits
        "s=1_0,t=4,phi=shift:2",
        "s=\uff13,t=4,phi=shift:2",
        "s=5,t=7,phi=shift:\u0661",
        "s=5,t=+-7,phi=shift:1",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(SpecFormatError):
        parse_bundle_spec(text)


def test_parse_allows_spaces_and_a_sign_around_the_digits():
    assert parse_bundle_spec(" s = 5 ,t=+7,phi=shift: 1 ") == BundleSpec(5, 7, Shift(1))


def test_parse_names_unknown_and_repeated_keys():
    with pytest.raises(SpecFormatError, match="field 'd'"):
        parse_bundle_spec("s=3,t=6,phi=shift:2,d=4")
    with pytest.raises(SpecFormatError, match="field 's'"):
        parse_bundle_spec("s=3,t=6,phi=shift:2,s=5")


def test_parse_rejects_out_of_range_values():
    with pytest.raises(InvalidSpecError):
        parse_bundle_spec("s=2,t=7,phi=shift:1")
    with pytest.raises(InvalidSpecError):
        parse_bundle_spec("s=3,t=7,phi=shift:9")
    with pytest.raises(InvalidSpecError):
        parse_bundle_spec("s=5,t=7,phi=refl:three")


def test_parse_is_field_order_insensitive():
    assert parse_bundle_spec("t=7,s=5,phi=shift:1") == BundleSpec(5, 7, Shift(1))


def test_max_degree_empty():
    assert max_degree(Graph(3, frozenset())) == 0
