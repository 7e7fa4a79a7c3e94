"""Chord geometry (the tests' reference predicate), embedding containers,
and the validity checker."""

import dataclasses
import json

import pytest

from bookbind import cli
from bookbind.graph_core import (
    BundleSpec,
    Graph,
    Shift,
    SpecFormatError,
    bundle,
    bundle_edges,
    circulant,
    make_edge,
)
from bookbind.layout_engine import (
    DISPERSABLE,
    NEARLY_DISPERSABLE,
    NEITHER,
    REASON_CROSSING,
    REASON_ENDPOINT,
    BookEmbedding,
    CoverageError,
    ValidationReport,
    classify,
    validate,
    violations,
)
from reference import chords_cross, embedding_of


def test_chords_cross_truth_table():
    assert chords_cross(0, 2, 1, 3)
    assert chords_cross(1, 3, 0, 2)
    assert not chords_cross(0, 1, 2, 3)  # disjoint arcs
    assert not chords_cross(0, 3, 1, 2)  # nested
    assert not chords_cross(0, 2, 2, 3)  # shared endpoint
    assert not chords_cross(0, 2, 0, 2)  # identical
    # argument order within each chord is irrelevant
    assert chords_cross(2, 0, 3, 1)


def test_book_embedding_canonicalizes_pages():
    # a file's edges are canonicalised where they enter, in from_payload
    emb = BookEmbedding.from_payload({"order": [1, 0, 2], "pages": [[2, 0, 1], [0, 1, 0]], "m": 2})
    assert (emb.edges, emb.pages) == (((0, 2), (0, 1)), [1, 0])  # in file order
    assert emb.pos == [1, 0, 2]  # pos[v] is vertex v's spine place
    assert validate(Graph(3, frozenset(emb.edges)), emb).pages_used == 2


def test_payload_keeps_every_row_in_file_order():
    # a repeated edge, in either orientation, is kept at each of its places
    # with its own page, so validate names it as listed twice
    rows = [[0, 2, 0], [1, 0, 1], [2, 1, 2], [0, 1, 3], [2, 0, 4]]
    emb = BookEmbedding.from_payload({"order": [0, 1, 2], "pages": rows, "m": 5})
    assert emb.edges == ((0, 2), (0, 1), (1, 2), (0, 1), (0, 2))
    assert emb.pages == [0, 1, 2, 3, 4]
    with pytest.raises(CoverageError) as info:
        validate(Graph(3, frozenset({(0, 1), (0, 2), (1, 2)})), emb)
    assert str(info.value).endswith("listed twice [(0, 1), (0, 2)]")


def test_validate_names_a_non_canonical_page_key():
    # a hand-built edge list is not repaired: its edges must be (u, v) with u < v
    g = Graph(3, frozenset({(0, 1), (0, 2)}))
    emb = BookEmbedding((0, 1, 2), [(2, 0), (0, 1)], [1, 0], 2)
    with pytest.raises(CoverageError) as info:
        validate(g, emb)
    assert str(info.value) == "page map mismatch: missing [(0, 2)], extra [(2, 0)]"
    # against a bundle spec only pairs 0 <= u < v < n are keyed, and a
    # failing check names the offenders as the spec's graph does
    spec = BundleSpec(3, 4, Shift(2))
    edges = bundle_edges(spec)  # edges[5] is the rung (2, 6)
    for bad in ((6, 2), (2, -1)):
        listed = [*edges[:5], bad, *edges[6:]]
        emb = BookEmbedding(range(12), listed, [0] * len(listed), 1)
        texts = []
        for graph in (spec, bundle(spec)):
            with pytest.raises(CoverageError) as info:
                validate(graph, emb)
            texts.append(str(info.value))
        assert texts == [f"page map mismatch: missing [(2, 6)], extra [{bad}]"] * 2


def test_book_embedding_fields_are_not_reassigned():
    # pos and edge_set are computed once, so order and edges cannot change
    # under them (the edges are kept as a tuple); a page array stays writable
    edges = [(0, 1)]
    emb = BookEmbedding([2, 0, 1], edges, bytearray([0]), 2)
    assert emb.order == (2, 0, 1) and emb.pos == [1, 2, 0]
    edges.append((0, 1))
    assert emb.edges == ((0, 1),) and emb.edge_set == {(0, 1)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        emb.order = (0, 1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        emb.pages = bytearray([1])
    emb.pages[0] = 1
    assert list(emb.items()) == [((0, 1), 1)]


def test_book_embedding_needs_one_page_per_edge():
    with pytest.raises(ValueError, match="2 edges but 1 pages"):
        BookEmbedding((0, 1, 2), [(0, 1), (1, 2)], [0], 2)


def test_book_embedding_json_roundtrip():
    g = circulant(5, {1})
    edges = g.edge_list[::-1]  # rows come out sorted by edge, whatever the list order
    emb = BookEmbedding((0, 1, 2, 3, 4), edges, bytearray(i % 3 for i in range(len(edges))), 3)
    back = BookEmbedding.from_payload(json.loads(cli._dumps(emb)))
    assert back.order == emb.order
    assert sorted(back.items()) == sorted(emb.items())
    assert back.edges == tuple(sorted(edges))
    assert back.m == emb.m


@pytest.mark.parametrize("text", ["[]", "{}", '{"order": [0], "pages": 3, "m": 1}'])
def test_book_embedding_rejects_bad_payload(text):
    with pytest.raises(SpecFormatError):
        BookEmbedding.from_payload(json.loads(text))


# (payload, exact message): the first offender is named, reading `order`, then
# each triple's u, v and p, then `m`; each key is read only after the one before
BAD_PAYLOADS = [
    ('{"order": [true, 1], "pages": [], "m": 1}', "expected an integer, got True"),
    ('{"order": [0, 1.0, "1"], "pages": [], "m": 1}', "expected an integer, got 1.0"),
    ('{"order": ["1", true], "pages": [], "m": 1}', "expected an integer, got '1'"),
    ('{"order": [0, 1], "pages": [[true, 1.0, "1"]], "m": 1}', "expected an integer, got True"),
    ('{"order": [0, 1], "pages": [[0, 1, 0], [0, 1.0, "1"]], "m": 1}', "expected an integer, got 1.0"),
    ('{"order": [0, 1], "pages": [[0, 1, "1"]], "m": 1.0}', "expected an integer, got '1'"),
    ('{"order": [0, 1], "pages": [[0, 1, 0]], "m": true}', "expected an integer, got True"),
    ('{"order": [0, 1], "pages": [[0, 1, 0]], "m": 1.0}', "expected an integer, got 1.0"),
    ('{"order": [0, 1], "pages": [[0, 1, 0]], "m": "1"}', "expected an integer, got '1'"),
    ('{"order": [true], "m": 1}', "expected an integer, got True"),
    ('{"order": [0, 1], "pages": [[0, true, 0]]}', "expected an integer, got True"),
    ('{"order": {"a": 1}, "pages": [], "m": 1}', "expected an integer, got 'a'"),
    ('{"order": [0, 1], "pages": [{"a": 1, "b": 2, "c": 3}], "m": 1}', "expected an integer, got 'a'"),
    ('{"pages": [[0, 1, 0]], "m": 1}', "'order'"),
    ('{"order": [0, 1], "m": 1}', "'pages'"),
    ('{"order": [0, 1], "pages": [[0, 1, 0]]}', "'m'"),
    ("[]", "list indices must be integers or slices, not str"),
    ('{"order": 5, "pages": [], "m": 1}', "'int' object is not iterable"),
    ('{"order": [0, 1], "pages": [[0, 1]], "m": 1}', "not enough values to unpack (expected 3, got 2)"),
    ('{"order": [0, 1], "pages": [[0, 1, 0, 0]], "m": 1}', "too many values to unpack (expected 3)"),
    ('{"order": [0, 1], "pages": 3, "m": 1}', "'int' object is not iterable"),
    ('{"order": [0, 1], "pages": [[0, 1, 0], [1, 1, 0]], "m": 1}', "loop edge at vertex 1"),
]


@pytest.mark.parametrize("text, message", BAD_PAYLOADS)
def test_bad_payload_messages_are_pinned(text, message):
    with pytest.raises(SpecFormatError) as info:
        BookEmbedding.from_payload(json.loads(text))
    assert str(info.value) == f"bad embedding payload: {message}"


def test_payload_order_may_be_any_iterable_of_integers():
    # `order` need not be a list: any iterable of ints is read one by one, and "" is an empty spine
    emb = BookEmbedding.from_payload({"order": "", "pages": [], "m": 1})
    assert emb.order == () and list(emb.items()) == []
    emb = BookEmbedding.from_payload({"order": (1, 0), "pages": ((1, 0, 0),), "m": 1})
    assert emb.order == (1, 0) and list(emb.items()) == [((0, 1), 0)]


_C4_PAGES = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1}
_NOT_A_PERMUTATION = "spine order is not a permutation of the vertex set"


@pytest.mark.parametrize(
    "order, pages, m, message",
    [
        ((0, 1, 2, 2), _C4_PAGES, 2, _NOT_A_PERMUTATION),  # a duplicate
        ((0, 1, 2), _C4_PAGES, 2, _NOT_A_PERMUTATION),  # a missing vertex
        ((0, 1, 2, 4), _C4_PAGES, 2, _NOT_A_PERMUTATION),  # past the end
        ((-1, 1, 2, 3), _C4_PAGES, 2, _NOT_A_PERMUTATION),  # below zero
        ((1, 2, 3, -4), _C4_PAGES, 2, _NOT_A_PERMUTATION),  # below zero, where pos[-4] is pos[0]
        ((0, 1, 2, 3, 4), _C4_PAGES, 2, _NOT_A_PERMUTATION),  # one too many
        ((0, 1, 2, 3), {(0, 1): 0, (1, 2): 1, (2, 3): 0}, 2, "page map mismatch: missing [(0, 3)], extra []"),
        ((0, 1, 2, 3), _C4_PAGES, 0, "page count m=0 must be at least 1"),
        # two pages out of range: the first in map order is named
        ((0, 1, 2, 3), {(0, 1): 0, (1, 2): 5, (2, 3): 0, (0, 3): -1}, 2, "page 5 of edge (1, 2) outside 0..1"),
        ((0, 1, 2, 3), {(0, 3): -1, (1, 2): 5, (2, 3): 0, (0, 1): 0}, 2, "page -1 of edge (0, 3) outside 0..1"),
        ((0, 1, 2, 3), {(0, 1): 0, (1, 2): 1, (2, 3): 2, (0, 3): 3}, 3, "page 3 of edge (0, 3) outside 0..2"),
    ],
)
def test_coverage_messages_are_pinned(order, pages, m, message):
    with pytest.raises(CoverageError) as info:
        validate(circulant(4, {1}), embedding_of(order, pages, m))
    assert str(info.value) == message


def test_validate_accepts_the_empty_graph():
    report = validate(Graph(0, frozenset()), BookEmbedding((), [], [], 1))
    assert report.ok and report.pages_used == 0 and report.violations == ()


def _c4_embedding():
    g = circulant(4, {1})
    return g, BookEmbedding((0, 1, 2, 3), [(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 0, 1], 2)


def test_validate_accepts_two_page_square():
    g, emb = _c4_embedding()
    report = validate(g, emb)
    assert report.ok and report.is_proper and report.is_noncrossing
    assert report.pages_used == 2 and report.violations == ()


def test_validate_flags_shared_endpoint():
    g, emb = _c4_embedding()
    emb.pages[1] = 0  # (1, 2) now meets (0, 1) at vertex 1
    report = validate(g, emb)
    assert not report.ok and not report.is_proper
    assert ((0, 1), (1, 2), REASON_ENDPOINT) in report.violations


def test_validate_flags_crossing():
    g = circulant(4, {1})
    # order (0,1,2,3) makes the two diagonals of the square cross
    pages = {(0, 1): 0, (1, 2): 0, (2, 3): 0, (0, 3): 1}
    emb = embedding_of((0, 2, 1, 3), pages, 2)
    report = validate(g, emb)
    assert not report.is_noncrossing
    assert any(r == REASON_CROSSING for _, _, r in report.violations)


def test_validate_raises_on_structural_breakage():
    g, emb = _c4_embedding()
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding((0, 1, 2), emb.edges, emb.pages, 2))
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding((0, 1, 2, 2), emb.edges, emb.pages, 2))
    missing = dict(emb.items())
    del missing[(0, 1)]
    with pytest.raises(CoverageError):
        validate(g, embedding_of(emb.order, missing, 2))
    extra = dict(emb.items())
    extra[(0, 2)] = 0
    with pytest.raises(CoverageError):
        validate(g, embedding_of(emb.order, extra, 2))
    # an edge listed twice, in place of a missing one or as one listing too many
    twice = r"missing \[\(0, 3\)\], extra \[\], listed twice \[\(0, 1\)\]$"
    with pytest.raises(CoverageError, match=twice):
        validate(g, BookEmbedding(emb.order, [(0, 1), (0, 1), (1, 2), (2, 3)], [0, 1, 2, 0], 3))
    twice = r"missing \[\], extra \[\], listed twice \[\(0, 1\), \(2, 3\)\]$"
    with pytest.raises(CoverageError, match=twice):
        validate(g, BookEmbedding(emb.order, [*emb.edges, (2, 3), (0, 1)], [*emb.pages, 0, 0], 2))
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding(emb.order, emb.edges, emb.pages, 0))
    high = dict(emb.items())
    high[(0, 1)] = 7
    with pytest.raises(CoverageError):
        validate(g, embedding_of(emb.order, high, 2))


def test_violations_groups_edges_by_any_page_number():
    # pages are only labels here: a negative or huge page is its own page
    pos = [0, 1, 2, 3]
    cross = [(0, 2), (1, 3)]
    for p, q in ((-1, 5), (-1, -2), (0, 10**9)):
        assert violations(cross, [p, q], pos) == []
    for p in (-1, 0, 10**9):
        assert violations(cross, [p, p], pos) == [((0, 2), (1, 3), REASON_CROSSING)]
    assert violations([(0, 1), (1, 2), (0, 2)], [-3, 7, -3], pos) == [((0, 1), (0, 2), REASON_ENDPOINT)]


def test_validation_report_ok_property():
    assert ValidationReport(True, True, 3).ok
    assert not ValidationReport(False, True, 3).ok
    assert not ValidationReport(True, False, 3).ok


def test_classify_against_max_degree():
    g, emb = _c4_embedding()
    assert classify(g, validate(g, emb)) == DISPERSABLE  # 2 pages, max degree 2
    three = BookEmbedding(emb.order, emb.edges, [0, 1, 2, 1], 3)
    assert classify(g, validate(g, three)) == NEARLY_DISPERSABLE
    four = BookEmbedding(emb.order, emb.edges, [0, 1, 2, 3], 4)
    assert classify(g, validate(g, four)) == NEITHER


def test_classify_rejects_invalid_embedding():
    g, emb = _c4_embedding()
    emb.pages[1] = 0  # (1, 2) on the page of (0, 1)
    with pytest.raises(CoverageError):
        classify(g, validate(g, emb))
