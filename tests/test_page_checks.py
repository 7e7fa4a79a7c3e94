"""The near-linear page checks agree with pairwise scans.

``validate`` writes each page of at least n/4 chords into a place array
in one pass, walks it once along the spine and lists a failing one from
that array, and lists every other page in one sweep along the spine (pages
on both sides of that cut are drawn here, a spy pins the walks at 4E
places, and every single-edge flip of one construction is listed as its
pages listed alone, no page sorted again); ``_PageAssigner``'s search
tests each fit on a per-page index over spine positions and must visit the
nodes of a search that tests fits pairwise; the
oracle builds its per-order conflict masks from prefix XORs along the spine
and colours them with a bit-parallel search.  All four are compared here
with the plain pairwise definitions, built on the crossing predicate in
``reference``; no bookbind module binds a name that ``reference`` defines.
The plan check, which pins fixed pages into the index and leaves their
clashes to ``validate``, is compared on plans with several faults at once
with a reference built from ``Counter``.
"""

import importlib
import pkgutil
import types
from collections import Counter
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings, strategies as st  # noqa: E402

import bookbind  # noqa: E402
from bookbind import layout_engine, oracle  # noqa: E402
from bookbind.constructions import (  # noqa: E402
    _TODO,
    CompletionError,
    _check_plan,
    _PageAssigner,
    _select,
    embed,
    parity_pages,
)
from bookbind.graph_core import (  # noqa: E402
    BundleSpec,
    Graph,
    Numbering,
    Reflection,
    Shift,
    bundle,
    circulant,
    format_bundle_spec,
)
from bookbind.layout_engine import (  # noqa: E402
    REASON_CROSSING,
    REASON_ENDPOINT,
    BookEmbedding,
    ValidationReport,
    _page_violations,
    validate,
    violations,
)
import reference  # noqa: E402
from reference import chords_cross, embedding_of  # noqa: E402

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
    """Every pair of same-page edges compared directly, on spine places read
    off the order here, not off the embedding's ``pos``."""

    pos = {v: i for i, v in enumerate(emb.order)}
    pages = dict(emb.items())
    edges = sorted(pages)
    violations = []
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if pages[e] == pages[f]:
                why = _conflict(e, f, pos)
                if why is not None:
                    violations.append((e, f, why))
    violations.sort()
    reasons = {why for _, _, why in violations}
    return ValidationReport(
        REASON_ENDPOINT not in reasons,
        REASON_CROSSING not in reasons,
        len(set(pages.values())),
        tuple(violations),
    )


@st.composite
def graphs_with_spines(draw, min_n=3, max_n=12):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, frozenset()), tuple(range(n))
    # no more unique edges than there are pairs; the invalid examples that
    # --hypothesis-show-statistics reports here are overruns of the engine's
    # own mutation replays, which stop before the test body runs
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=min(3 * n, len(pairs)), unique=True))
    order = draw(st.permutations(range(n)))
    return Graph(n, frozenset(edges)), tuple(order)


@st.composite
def random_embeddings(draw):
    g, order = draw(graphs_with_spines())
    m = draw(st.integers(1, 4))
    pages = {e: draw(st.integers(0, m - 1)) for e in sorted(g.edges)}
    return g, embedding_of(order, pages, m)


@given(random_embeddings())
def test_validate_matches_pairwise_reference_on_random_pages(case):
    g, emb = case
    assert validate(g, emb) == reference_validate(g, emb)


def _crowded(n, edges, crowd, order=None):
    """The first ``crowd`` of ``edges`` on page 0 and every other one on a
    page of its own, spine ``order`` (default 0..n-1)."""

    g = Graph(n, frozenset(edges))
    pages = {e: max(0, i - crowd + 1) for i, e in enumerate(edges)}
    return g, embedding_of(order or range(n), pages, len(edges) - crowd + 1)


_C12 = circulant(12, {1, 2}).edge_list  # 24 edges on 12 places, so the cut is at 3 chords


@st.composite
def embeddings_across_the_cut(draw):
    """Pages on both sides of ``violations``' cut at n/4 chords: a drawn
    share of the edges crowds onto one to three pages, which may reach the
    dense walk, and the rest spread over up to E more, mostly far below it."""

    g, order = draw(graphs_with_spines(min_n=5, max_n=16))
    edges = draw(st.permutations(g.edge_list))
    crowd, few = draw(st.integers(0, len(edges))), draw(st.integers(1, 3))
    pages = {
        e: draw(st.integers(0, few - 1)) if i < crowd else few + draw(st.integers(0, len(edges)))
        for i, e in enumerate(edges)
    }
    dense = {4 * size >= g.n for size in Counter(pages.values()).values()}  # which sides are reached
    event("both sides" if len(dense) == 2 else "dense pages only" if True in dense else "sparse pages only")
    return g, embedding_of(order, pages, max(pages.values()) + 1)


@settings(max_examples=200)
@given(embeddings_across_the_cut())
@example(_crowded(12, _C12, 1))  # one edge per page: no page is dense
@example(_crowded(12, _C12, len(_C12)))  # every edge on one page
@example(_crowded(12, _C12, 3))  # page 0 holds exactly n/4 chords: dense
@example(_crowded(13, _C12, 3))  # one place more: the same page is sparse
@example(_crowded(12, _C12, 6, (0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11)))  # a dense page that fails
def test_validate_matches_pairwise_reference_across_the_dense_cut(case):
    g, emb = case
    assert validate(g, emb) == reference_validate(g, emb)


def test_dense_walks_cover_at_most_4e_places():
    # only a page of at least n/4 chords is walked place by place, so the
    # walks cover at most 4E places however many pages an embedding uses;
    # walking every page would cover E * n = 468512 places at one edge per page
    walked = []
    walk = layout_engine._walk

    def spy(at):
        walked.append(len(at))
        return walk(at)

    g, emb = _E1K.graph, _E1K.embedding
    spread = BookEmbedding(emb.order, emb.edges, list(range(len(emb.edges))), len(emb.edges))
    with mock.patch.object(layout_engine, "_walk", spy):
        assert validate(g, emb).ok
        assert walked == [g.n] * emb.m  # every page of the construction is dense
        walked.clear()
        report = validate(g, spread)
    assert report.ok and report.pages_used == len(g.edges)
    assert sum(walked) <= 4 * len(g.edges)


# every page dense: 378 edges on 5 pages of 189 spine places
_S9 = embed(BundleSpec(9, 21, Shift(3))).embedding


def _listed_page_by_page(edges, pages, pos) -> list:
    """Each page's chords listed alone by ``_page_violations``, sorted."""

    by_page = {}
    for e, p in zip(edges, pages):
        by_page.setdefault(p, []).append(e)
    return sorted(v for page_edges in by_page.values() for v in _page_violations(page_edges, pos))


def _single_flips(emb):
    """Every embedding with one edge moved onto another page, its edges in
    the order a file lists them, as (edges, pages)."""

    rows = sorted(emb.items())
    edges = [e for e, _ in rows]
    pages = [p for _, p in rows]
    for k, old in enumerate(pages):
        for p in range(emb.m):
            if p != old:
                yield edges, [*pages[:k], p, *pages[k + 1 :]]


def test_every_single_flip_lists_as_its_pages_listed_alone():
    pos = _S9.pos
    flips = list(_single_flips(_S9))
    assert len(flips) == 378 * 4
    for edges, pages in flips:
        assert violations(edges, pages, pos) == _listed_page_by_page(edges, pages, pos)


def _swept(call):
    """``call()``'s result, and the number of chords handed to each
    ``_page_violations`` sweep while it ran."""

    listed = []
    sweep = layout_engine._page_violations

    def spy(page_edges, pos):
        listed.append(len(page_edges))
        return sweep(page_edges, pos)

    with mock.patch.object(layout_engine, "_page_violations", spy):
        return call(), listed


def test_a_single_flip_is_listed_from_its_place_array():
    # 1393 of the 1512 flips clash; a flip sets aside at most two chords,
    # whose shorter arcs cover at most n places, so the failing dense page
    # is listed from its place array and never sorted again: only its
    # set-aside chords are, among themselves
    found, listed = _swept(lambda: [violations(e, p, _S9.pos) for e, p in _single_flips(_S9)])
    assert sum(map(bool, found)) == 1393 and max(listed) <= 2


def test_a_page_with_many_chords_set_aside_is_sorted_and_swept():
    # two pages of the e1k construction merged into one: half its chords
    # meet a taken place and their arcs cover far more than n places, so the
    # page goes to _page_violations whole
    emb = _E1K.embedding
    pages = [0 if p == 1 else p for p in emb.pages]
    found, listed = _swept(lambda: violations(emb.edges, pages, emb.pos))
    assert listed == [pages.count(0)]
    assert found and found == _listed_page_by_page(emb.edges, pages, emb.pos)


def _one_page(n, edges, order=None):
    """All of ``edges`` on one page, spine ``order`` (default 0..n-1)."""

    g = Graph(n, frozenset(edges))
    return g, embedding_of(order or range(n), dict.fromkeys(g.edges, 0), 1)


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


def pairwise_page_violations(page_edges, pos) -> list:
    """Every pair of one page's edges compared directly, each pair once."""

    found = []
    for i, e in enumerate(page_edges):
        for f in page_edges[i + 1 :]:
            why = _conflict(e, f, pos)
            if why is not None:
                found.append((min(e, f), max(e, f), why))
    return found


@st.composite
def pages_with_ties(draw):
    """One page, listed in a drawn order, where chords meet at one or two hub
    vertices (so several open or close at one spine position), plus a few
    chords anywhere, which may cross the hub chords or each other."""

    n = draw(st.integers(4, 14))
    pos = {v: i for i, v in enumerate(draw(st.permutations(range(n))))}
    edges = set()
    for hub in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
        others = st.integers(0, n - 1).filter(lambda v, hub=hub: v != hub)
        edges |= {(min(hub, v), max(hub, v)) for v in draw(st.lists(others, min_size=2, max_size=n, unique=True))}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return draw(st.permutations(sorted(edges))), pos


@given(pages_with_ties())
@example(([(0, 3), (0, 5), (2, 4), (1, 6)], {v: v for v in range(7)}))  # opens tie at 0, both crossed
@example(([(1, 4), (0, 4), (4, 6), (4, 7), (3, 5), (2, 8)], {v: v for v in range(9)}))  # closes and opens at 4
@example(([(2, 5), (0, 5), (5, 7), (1, 5), (3, 6), (4, 8)], {v: (2 * v) % 9 for v in range(9)}))
@example(([(0, 4), (0, 2), (0, 6), (1, 5)], {v: v for v in range(7)}))  # three chords open at 0
@example(([(0, 3), (3, 5), (3, 6), (1, 4)], {v: v for v in range(7)}))  # one closes and two open at 3
@example(([(0, 2), (1, 2), (1, 3), (0, 3)], {v: v for v in range(4)}))  # ties at four adjacent places
def test_page_listing_matches_pairwise_reference_on_ties(case):
    page_edges, pos = case
    got = _page_violations(page_edges, pos)
    ends = Counter(pos[v] for e in page_edges for v in e)
    event("tie" if max(ends.values()) > 1 else "no tie")
    event("crossing" if any(r == REASON_CROSSING for _, _, r in got) else "no crossing")
    assert sorted(got) == sorted(pairwise_page_violations(page_edges, pos))


def _flip_mutant(res, pick: int, shift: int) -> BookEmbedding:
    emb = res.embedding
    pages = dict(emb.items())
    edges = sorted(pages)
    e = edges[pick % len(edges)]
    pages[e] = (pages[e] + shift) % emb.m
    return embedding_of(emb.order, pages, emb.m)


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


@given(graphs_with_spines(), st.data())
def test_completion_search_matches_pairwise_reference_node_for_node(case, data):
    # up to eight todo edges of a small graph, each with a palette of up to
    # four pages in a drawn order: the folded search (span, fit walk,
    # placement and undo in one frame) must visit exactly the nodes of the
    # pairwise search and find the same pages, or fail where it fails
    g, order = case
    edges = g.edge_list  # edge number k is edges[k]
    m = data.draw(st.integers(1, 4))
    numbers = data.draw(st.lists(st.integers(0, len(edges) - 1), unique=True, max_size=8))
    todo = [(k, tuple(data.draw(st.permutations(range(m)))[: data.draw(st.integers(1, m))])) for k in numbers]
    emb = BookEmbedding(order, edges, bytearray([_TODO]) * len(edges), m)
    asg = _PageAssigner(emb, "test")
    found, nodes, placed = reference.reference_complete(edges, order, todo)
    event("found" if found else "no completion")
    if found:
        assert asg.complete(todo) is emb
        assert {k: emb.pages[k] for k in numbers} == placed
    else:
        with pytest.raises(CompletionError, match="no completion within the given palette"):
            asg.complete(todo)
    assert asg._nodes == nodes


@st.composite
def plans_with_fixed_pages(draw):
    """A small bundle's numbering, a random spine, and a plan that fixes random
    pages on a random few of its edge numbers and leaves the rest to do."""

    spec = draw(st.sampled_from(SPECS[:3] + SPECS[4:]))  # 18 to 40 vertices
    num = Numbering(spec)
    m = parity_pages(spec)
    spine = draw(st.permutations(range(spec.s * spec.t)))
    fixed = draw(
        st.lists(
            st.tuples(st.integers(0, num.size - 1), st.integers(0, m - 1)),
            max_size=12,
            unique_by=lambda f: f[0],
        )
    )
    pinned = {k for k, _ in fixed}
    todo = [(k, (0,)) for k in range(num.size) if k not in pinned]
    return num, (list(spine), fixed, todo), m


def _assert_pinned(index: _PageAssigner, num: Numbering, fixed) -> None:
    """Every fixed page is in ``pages``; unless two fixed edges share an end
    on one page (the later pin then overwrites that place), the index holds
    exactly the fixed chords."""

    pos = index.emb.pos
    assert all(index.pages[k] == p for k, p in fixed)
    clashes = violations([num.edges[k] for k, _ in fixed], [p for _, p in fixed], pos)
    if any(why == REASON_ENDPOINT for _, _, why in clashes):
        return
    for k, p in fixed:
        a, b = sorted(pos[v] for v in num.edges[k])
        assert index.partner[p][a] == b and index.partner[p][b] == a
    assert sum(x != -1 for page in index.partner for x in page) == 2 * len(fixed)


@given(plans_with_fixed_pages())
def test_plan_check_pins_fixed_pages_and_leaves_clashes_to_the_validator(case):
    num, plan, m = case
    index = _check_plan(num, plan, m, "test")  # a clash is no listing fault
    _assert_pinned(index, num, plan[1])
    assert index.emb.edges is num.edges and len(index.pages) == num.size
    assert all(index.pages[k] == _TODO for k, _ in plan[2])


def reference_plan_verdict(num: Numbering, plan, m: int) -> str | None:
    """What the plan check must say, from its definition: the first listing
    fault in priority order (numbers out of range, numbers listed twice,
    numbers missing, pages out of range), each naming up to four offenders;
    None for a plan that lists every number once, clashing or not."""

    _, fixed, todo = plan
    decode, edges = num.edges.__getitem__, range(num.size)
    count = Counter(k for k, _ in [*fixed, *todo])
    pages = [*fixed, *((k, p) for k, palette in todo for p in palette)]
    outside = sorted(set(count) - set(edges))
    if outside:  # only numbers in range index the edge list
        return f"numbers outside 0..{num.size - 1}: {outside[:4]}"
    for fault, offenders in (
        ("listed twice", [decode(k) for k, c in count.items() if c > 1]),
        ("missing from the plan", sorted(decode(k) for k in edges if k not in count)),
        (f"pages outside 0..{m - 1}", [(decode(k), p) for k, p in pages if not 0 <= p < m]),
    ):
        if offenders:
            return f"{fault}: {offenders[:4]}"
    return None


# one spec per shift rule tag and two reflections; each plan has fixed and todo entries
PLAN_SPECS = (
    BundleSpec(3, 4, Shift(2)),
    BundleSpec(3, 6, Shift(3)),
    BundleSpec(4, 6, Shift(3)),
    BundleSpec(3, 15, Shift(3)),
    BundleSpec(5, 7, Reflection("one")),
    BundleSpec(4, 6, Reflection("two")),
)
PLAN_FAULT_KINDS = (
    "number past the end",
    "repeat within fixed",
    "repeat within todo",
    "repeat across the lists",
    "drop a number",
    "fixed page >= m",
    "palette page >= m",
    "move a fixed page onto a clash",
)


@st.composite
def multi_fault_plans(draw):
    """A layout's own plan with up to three listing faults and up to two
    fixed pages moved onto a clash, applied one after another in a drawn order."""

    spec = draw(st.sampled_from(PLAN_SPECS))
    num, m = Numbering(spec), parity_pages(spec)
    rule, layout = _select(spec)
    spine, fixed, todo = layout(num)
    pos = {v: x for x, v in enumerate(spine)}

    def clash(e, f) -> bool:
        return bool(set(e) & set(f)) or chords_cross(pos[e[0]], pos[e[1]], pos[f[0]], pos[f[1]])

    moves = ["move a fixed page onto a clash"] * draw(st.integers(0, 2))
    faults = draw(st.lists(st.sampled_from(PLAN_FAULT_KINDS[:-1]), max_size=3))
    for fault in draw(st.permutations(faults + moves)):
        lists = [entries for entries in (fixed, todo) if entries]
        entries = lists[draw(st.integers(0, len(lists) - 1))]
        i = draw(st.integers(0, len(entries) - 1))
        k, page = entries[i]
        if fault == "number past the end":
            entries[i] = (num.size + draw(st.integers(0, 3)), page)
        elif fault == "repeat within fixed" and fixed:
            fixed.append(fixed[i % len(fixed)])
        elif fault == "repeat within todo" and todo:
            todo.append(todo[i % len(todo)])
        elif fault == "repeat across the lists":
            p = draw(st.integers(0, m - 1))
            if entries is todo:
                fixed.append((k, p))
            else:
                todo.append((k, (p,)))
        elif fault == "drop a number":
            del entries[i]
        elif fault == "fixed page >= m" and fixed:
            j = i % len(fixed)
            fixed[j] = (fixed[j][0], m + draw(st.integers(0, 2)))
        elif fault == "palette page >= m" and todo:
            j = i % len(todo)
            todo[j] = (todo[j][0], todo[j][1] + (m + draw(st.integers(0, 2)),))
        elif fault == "move a fixed page onto a clash" and fixed:
            j = i % len(fixed)
            k, page = fixed[j]
            edge = num.edges[k] if k in range(num.size) else None
            # the pages of the fixed edges this one would clash with
            onto = sorted(
                {p for k2, p in fixed if edge and k2 != k and k2 in range(num.size) and clash(edge, num.edges[k2])}
                - {page}
            )
            if onto:
                fixed[j] = (k, draw(st.sampled_from(onto)))
    return num, rule, (spine, fixed, todo), m


@settings(max_examples=200)  # eight fault kinds in combination on six specs
@given(multi_fault_plans())
def test_plan_check_names_faults_in_combination_as_the_reference_does(case):
    num, rule, plan, m = case
    _, fixed, todo = plan
    verdict = reference_plan_verdict(num, plan, m)
    event("sound" if verdict is None else verdict.split(":")[0])
    if verdict is not None:
        with pytest.raises(CompletionError) as info:
            _check_plan(num, plan, m, rule)
        assert str(info.value) == f"{rule}: {verdict}"
        return
    index = _check_plan(num, plan, m, rule)
    _assert_pinned(index, num, fixed)
    assert all(index.pages[k] == _TODO for k, _ in todo)


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
    masks, _ = reference.order_conflicts(oracle._Incidence(g), order)
    assert masks == reference_conflict_masks(g, order)


@st.composite
def colouring_cases(draw):
    """Graphs on up to 9 vertices with a spine: from ``graphs_with_spines``,
    most of them thinned to a drawn maximum degree, or circulants, so that
    m = 1..5 pages leave the search real work."""

    if draw(st.booleans()):
        n = draw(st.integers(4, 9))
        jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=2))
        return circulant(n, jumps), tuple(draw(st.permutations(range(n))))
    g, order = draw(graphs_with_spines(min_n=0, max_n=9))
    most = draw(st.sampled_from([2, 3, 4, None]))
    if most is None:
        return g, order
    degree = [0] * g.n
    kept = []
    for u, v in g.edge_list:
        if degree[u] < most and degree[v] < most:
            kept.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(g.n, frozenset(kept)), order


# a few milliseconds each; unsat needs many draws, and about a quarter of
# them fall to the capacity cut, which colours no order
@settings(max_examples=400)
@given(colouring_cases(), st.integers(1, 5), st.integers(1, 200), st.sampled_from([None, 1.0]))
@example((Graph(4, frozenset({(0, 1), (2, 3)})), (0, 1, 2, 3)), 1, 10, None)  # no conflicts at all
@example((Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})), (0, 2, 4, 1, 3)), 2, 200, 1.0)
@example((circulant(8, {1, 2}), (0, 3, 6, 1, 4, 7, 2, 5)), 4, 200, None)
@example(  # 166 nodes per order: the deadline is read at node 256, then node 301 is cut
    (circulant(10, {1, 3}), (9, 2, 8, 5, 6, 3, 7, 4, 0, 1)), 6, 300, 1.0
)
@example(  # a page whose union already holds part of the next edge's mask
    (
        Graph(
            8,
            frozenset({(0, 1), (0, 6), (0, 7), (1, 2), (1, 3), (2, 4), (2, 6), (3, 6), (3, 7)}),
        ),
        (3, 2, 6, 7, 4, 0, 5, 1),
    ),
    4,
    200,
    None,
)
def test_oracle_colouring_matches_reference_node_for_node(case, m, max_nodes, time_limit):
    # one page count over two spine orders on one budget, so the second
    # order's search starts where the first one left the clock: the
    # verdict, the witness and the order and node counts agree with the
    # reference colouring each order in turn; with a time limit on a clock
    # that never moves, every deadline read finds time left and must cut
    # nothing
    g, order = case
    spines = (order[::-1], order)
    spent = orders = 0
    for spine in spines:
        verdict, colouring, nodes = reference.reference_color_edges(
            g.edge_list, spine, m, max_nodes - spent
        )
        spent += nodes
        orders += 1
        if verdict != "unsat":
            break
    with (
        mock.patch.object(oracle, "time", types.SimpleNamespace(monotonic=lambda: 0.0)),
        mock.patch.object(oracle, "_spine_orders", lambda n: iter(spines)),
    ):
        clock = oracle._BudgetClock(oracle.SearchBudget(max_nodes=max_nodes, time_limit=time_limit))
        res = oracle._search_phase(g.n, oracle._Incidence(g), m, clock)
    if m * (g.n // 2) < len(g.edges):
        # refuted by capacity, every order counted and none searched: the
        # reference's pages of at most ⌊n/2⌋ edges hold no colouring either
        event("refuted by capacity")
        assert verdict != "sat"
        assert (res.found, res.exhausted, clock.nodes) == (False, True, 0)
        return
    event(verdict)
    assert (res.found, res.exhausted) == (verdict == "sat", verdict == "unsat")
    assert (clock.orders, clock.nodes) == (orders, spent)
    if verdict == "sat":
        assert res.witness.order == spine
        assert list(res.witness.pages) == colouring


def _reference_names_in_bookbind() -> list[str]:
    """Every ``module.name`` by which a bookbind module binds a name that
    ``reference`` defines: with the references out of the package (the
    pairwise crossing predicate, the fibre cycles, ``cycle_edges``), no
    runtime code can fall back on them."""

    defined = {
        name for name, value in vars(reference).items()
        if getattr(value, "__module__", None) == reference.__name__
    }
    assert {"chords_cross", "cycle_edges", "fiber_cycles"} <= defined
    modules = ["bookbind"] + [f"bookbind.{m.name}" for m in pkgutil.iter_modules(bookbind.__path__)]
    return [
        f"{module}.{name}"
        for module in modules
        for name in sorted(defined & vars(importlib.import_module(module)).keys())
    ]


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
    assert _reference_names_in_bookbind() == []


def test_failing_page_lists_every_violation():
    res = _BUILT[BundleSpec(5, 8, Reflection("none"))]
    emb = res.embedding
    pos = emb.pos
    e = max(emb.edges, key=lambda f: abs(pos[f[0]] - pos[f[1]]))  # the longest chord
    pages = dict(emb.items())
    pages[e] = (pages[e] + 1) % emb.m
    mutant = embedding_of(emb.order, pages, emb.m)
    report = validate(res.graph, mutant)
    assert not report.ok and _reference_names_in_bookbind() == []
    assert report == reference_validate(res.graph, mutant)
    assert any(e in (f, h) for f, h, _ in report.violations)
