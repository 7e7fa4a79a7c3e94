"""Chord geometry (the tests' reference predicate), embedding containers,
and the validity checker."""

import json

import pytest

from bookbind import cli
from bookbind.graph_core import Graph, SpecFormatError, circulant, make_edge
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
)
from reference import chords_cross


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
    emb = BookEmbedding((0, 1, 2), {(2, 0): 1, (0, 1): 0}, 2)
    assert (0, 2) in emb.pages and (2, 0) not in emb.pages
    assert emb.position() == {0: 0, 1: 1, 2: 2}
    assert emb.pages_used() == 2


def test_book_embedding_json_roundtrip():
    g = circulant(5, {1})
    emb = BookEmbedding(
        (0, 1, 2, 3, 4),
        {e: i % 3 for i, e in enumerate(g.edge_list)},
        3,
    )
    back = BookEmbedding.from_payload(json.loads(cli._dumps(emb.to_payload())))
    assert back.order == emb.order
    assert back.pages == emb.pages
    assert back.m == emb.m


@pytest.mark.parametrize("text", ["[]", "{}", '{"order": [0], "pages": 3, "m": 1}'])
def test_book_embedding_rejects_bad_payload(text):
    with pytest.raises(SpecFormatError):
        BookEmbedding.from_payload(json.loads(text))


def _c4_embedding():
    g = circulant(4, {1})
    pages = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1}
    return g, BookEmbedding((0, 1, 2, 3), pages, 2)


def test_validate_accepts_two_page_square():
    g, emb = _c4_embedding()
    report = validate(g, emb)
    assert report.ok and report.is_proper and report.is_noncrossing
    assert report.pages_used == 2 and report.violations == ()


def test_validate_flags_shared_endpoint():
    g, emb = _c4_embedding()
    emb.pages[(1, 2)] = 0  # now meets (0,1) at vertex 1
    report = validate(g, emb)
    assert not report.ok and not report.is_proper
    assert ((0, 1), (1, 2), REASON_ENDPOINT) in report.violations


def test_validate_flags_crossing():
    g = circulant(4, {1})
    # order (0,1,2,3) makes the two diagonals of the square cross
    pages = {(0, 1): 0, (1, 2): 0, (2, 3): 0, (0, 3): 1}
    emb = BookEmbedding((0, 2, 1, 3), pages, 2)
    report = validate(g, emb)
    assert not report.is_noncrossing
    assert any(r == REASON_CROSSING for _, _, r in report.violations)


def test_validate_raises_on_structural_breakage():
    g, emb = _c4_embedding()
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding((0, 1, 2), emb.pages, 2))
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding((0, 1, 2, 2), emb.pages, 2))
    missing = dict(emb.pages)
    del missing[(0, 1)]
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding(emb.order, missing, 2))
    extra = dict(emb.pages)
    extra[(0, 2)] = 0
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding(emb.order, extra, 2))
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding(emb.order, emb.pages, 0))
    high = dict(emb.pages)
    high[(0, 1)] = 7
    with pytest.raises(CoverageError):
        validate(g, BookEmbedding(emb.order, high, 2))


def test_validation_report_ok_property():
    assert ValidationReport(True, True, 3).ok
    assert not ValidationReport(False, True, 3).ok
    assert not ValidationReport(True, False, 3).ok


def test_classify_against_max_degree():
    g, emb = _c4_embedding()
    assert classify(g, validate(g, emb)) == DISPERSABLE  # 2 pages, max degree 2
    three = BookEmbedding(emb.order, {(0, 1): 0, (1, 2): 1, (2, 3): 2, (0, 3): 1}, 3)
    assert classify(g, validate(g, three)) == NEARLY_DISPERSABLE
    four = BookEmbedding(emb.order, {(0, 1): 0, (1, 2): 1, (2, 3): 2, (0, 3): 3}, 4)
    assert classify(g, validate(g, four)) == NEITHER


def test_classify_rejects_invalid_embedding():
    g, emb = _c4_embedding()
    emb.pages[(1, 2)] = 0
    with pytest.raises(CoverageError):
        classify(g, validate(g, emb))
