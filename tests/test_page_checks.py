"""The near-linear page checks agree with pairwise scans.

``validate`` checks each page in one bracket-matching pass and lists a
failing page's violations in one sweep along the spine; ``_PageAssigner``
answers conflict queries from a per-page index over spine positions; the
oracle builds its per-order conflict masks from prefix XORs along the spine.
All three are compared here with the plain pairwise definitions, built on
the crossing predicate in ``reference``, which no bookbind module binds.
"""

import importlib
import pkgutil

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import bookbind  # noqa: E402
from bookbind import oracle  # noqa: E402
from bookbind.constructions import _PageAssigner, embed  # noqa: E402
from bookbind.graph_core import (  # noqa: E402
    BundleSpec,
    Graph,
    Reflection,
    Shift,
    bundle,
    format_bundle_spec,
)
from bookbind.layout_engine import (  # noqa: E402
    REASON_CROSSING,
    REASON_ENDPOINT,
    BookEmbedding,
    ValidationReport,
    validate,
)
from reference import chords_cross  # noqa: E402

# one small spec per rule tag, plus the three-column one-fixed pattern
SPECS = (
    BundleSpec(3, 6, Shift(2)),
    BundleSpec(3, 6, Shift(3)),
    BundleSpec(4, 6, Shift(3)),
    BundleSpec(3, 15, Shift(3)),
    BundleSpec(5, 7, Reflection("one")),
    BundleSpec(5, 8, Reflection("none")),
    BundleSpec(5, 6, Reflection("two")),
    BundleSpec(4, 3, Reflection("one")),
    BundleSpec(4, 5, Reflection("one")),
    BundleSpec(4, 6, Reflection("none")),
    BundleSpec(4, 6, Reflection("two")),
)
_BUILT = {spec: embed(spec) for spec in SPECS}
# the base the benchmark mutates at about 1000 edges
_E1K = embed(BundleSpec(22, 22, Shift(2)))


def _conflict(e, f, pos) -> str | None:
    if set(e) & set(f):
        return REASON_ENDPOINT
    if chords_cross(pos[e[0]], pos[e[1]], pos[f[0]], pos[f[1]]):
        return REASON_CROSSING
    return None


def reference_validate(g: Graph, emb: BookEmbedding) -> ValidationReport:
    """Every pair of same-page edges compared directly."""

    pos = emb.position()
    edges = sorted(emb.pages)
    violations = []
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if emb.pages[e] == emb.pages[f]:
                why = _conflict(e, f, pos)
                if why is not None:
                    violations.append((e, f, why))
    violations.sort()
    reasons = {why for _, _, why in violations}
    return ValidationReport(
        REASON_ENDPOINT not in reasons,
        REASON_CROSSING not in reasons,
        len(set(emb.pages.values())),
        tuple(violations),
    )


@st.composite
def graphs_with_spines(draw, min_n=3, max_n=12):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, frozenset()), tuple(range(n))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n, unique=True))
    order = draw(st.permutations(range(n)))
    return Graph(n, frozenset(edges)), tuple(order)


@st.composite
def random_embeddings(draw):
    g, order = draw(graphs_with_spines())
    m = draw(st.integers(1, 4))
    pages = {e: draw(st.integers(0, m - 1)) for e in sorted(g.edges)}
    return g, BookEmbedding(order, pages, m)


@given(random_embeddings())
def test_validate_matches_pairwise_reference_on_random_pages(case):
    g, emb = case
    assert validate(g, emb) == reference_validate(g, emb)


def _one_page(n, edges, order=None):
    """All of ``edges`` on one page, spine ``order`` (default 0..n-1)."""

    g = Graph(n, frozenset(edges))
    return g, BookEmbedding(order or range(n), dict.fromkeys(g.edges, 0), 1)


@st.composite
def dense_single_pages(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k] or pairs[:1]
    return _one_page(n, edges, tuple(draw(st.permutations(range(n)))))


@given(dense_single_pages())
@example(_one_page(8, [(0, v) for v in range(1, 8)], (3, 0, 5, 1, 7, 2, 6, 4)))  # a star
@example(_one_page(12, [(i, i + 6) for i in range(6)]))  # diameters: every pair crosses
@example(_one_page(6, [(0, 3), (0, 5), (1, 4), (2, 5)]))  # two chords open at 0
@example(_one_page(7, [(0, 5), (2, 5), (1, 3), (4, 6)]))  # two chords close at 5
@example(_one_page(10, [(0, 6), (3, 9), (4, 5), (1, 2)]))  # nested inside a crossing pair
def test_validate_matches_pairwise_reference_on_dense_single_pages(case):
    g, emb = case
    assert validate(g, emb) == reference_validate(g, emb)


def _flip_mutant(res, pick: int, shift: int) -> BookEmbedding:
    emb = res.embedding
    edges = sorted(emb.pages)
    e = edges[pick % len(edges)]
    pages = dict(emb.pages)
    pages[e] = (pages[e] + shift) % emb.m
    return BookEmbedding(emb.order, pages, emb.m)


@given(st.sampled_from(SPECS), st.integers(0, 10**6), st.integers(1, 4))
def test_validate_matches_pairwise_reference_on_page_flip_mutants(spec, pick, shift):
    res = _BUILT[spec]
    mutant = _flip_mutant(res, pick, shift)
    assert validate(res.graph, mutant) == reference_validate(res.graph, mutant)


@settings(max_examples=8)
@given(st.integers(0, 10**6), st.integers(1, _E1K.embedding.m - 1))
def test_validate_matches_pairwise_reference_on_e1k_flip_mutants(pick, shift):
    mutant = _flip_mutant(_E1K, pick, shift)
    assert validate(_E1K.graph, mutant) == reference_validate(_E1K.graph, mutant)


@given(
    graphs_with_spines(),
    st.lists(st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(0, 3)), max_size=40),
)
def test_page_index_matches_pairwise_scan_through_places_and_backtracks(case, steps):
    g, order = case
    asg = _PageAssigner(order, 4, "test")
    pos = asg.pos
    edges = g.edge_list

    def pairwise_conflicts(e, page):
        return any(_conflict(e, f, pos) for f, p in asg.pages.items() if p == page)

    for remove, pick, page in steps:
        if remove and asg.pages:
            placed = sorted(asg.pages)
            asg._unplace(placed[pick % len(placed)])
        else:
            e = edges[pick % len(edges)]
            if e not in asg.pages and not pairwise_conflicts(e, page):
                asg._place(e, page)
        for e in edges:
            if e not in asg.pages:
                for p in range(4):
                    assert asg._conflicts(e, p) == pairwise_conflicts(e, p), (e, p)


def reference_conflict_masks(g: Graph, order: tuple[int, ...]) -> list[int]:
    """Per edge, the bitmask of the edges it conflicts with, pair by pair."""

    pos = {v: i for i, v in enumerate(order)}
    edges = g.edge_list
    return [
        sum(1 << b for b, f in enumerate(edges) if f != e and _conflict(e, f, pos))
        for e in edges
    ]


@given(graphs_with_spines(min_n=0, max_n=10))
@example((Graph(0, frozenset()), ()))
@example((Graph(1, frozenset()), (0,)))
@example((Graph(2, frozenset({(0, 1)})), (1, 0)))
def test_oracle_conflict_masks_match_pairwise_reference(case):
    g, order = case
    assert oracle._Incidence(g).conflict_masks(order) == reference_conflict_masks(g, order)


def _modules_binding_chords_cross() -> list[str]:
    """The bookbind modules that bind a name ``chords_cross``: with the
    pairwise predicate out of the package, no check can fall back on it."""

    names = ["bookbind"] + [f"bookbind.{m.name}" for m in pkgutil.iter_modules(bookbind.__path__)]
    return [name for name in names if hasattr(importlib.import_module(name), "chords_cross")]


# besides one embed per spec, one exhaustive search whose witness is validated
MBT_INPUT = "mbt:s=3,t=4,phi=shift:2"


@pytest.mark.parametrize(
    "spec", [*SPECS, MBT_INPUT], ids=lambda p: p if p == MBT_INPUT else format_bundle_spec(p)
)
def test_valid_embedding_is_built_and_checked_without_pairwise_scans(spec):
    if spec == MBT_INPUT:
        g = bundle(BundleSpec(3, 4, Shift(2)))
        emb = oracle.brute_force_mbt(g).witness
    else:
        res = embed(spec)
        g, emb = res.graph, res.embedding
    assert validate(g, emb).ok
    assert _modules_binding_chords_cross() == []


def test_failing_page_lists_every_violation():
    res = _BUILT[BundleSpec(5, 8, Reflection("none"))]
    emb = res.embedding
    pos = emb.position()
    e = max(emb.pages, key=lambda f: abs(pos[f[0]] - pos[f[1]]))  # the longest chord
    pages = dict(emb.pages)
    pages[e] = (pages[e] + 1) % emb.m
    mutant = BookEmbedding(emb.order, pages, emb.m)
    report = validate(res.graph, mutant)
    assert not report.ok and _modules_binding_chords_cross() == []
    assert report == reference_validate(res.graph, mutant)
    assert any(e in (f, h) for f, h, _ in report.violations)
