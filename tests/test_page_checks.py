"""The near-linear page checks agree with pairwise scans.

``validate`` checks each page in one bracket-matching pass and lists a
failing page's violations in one sweep along the spine; ``_PageAssigner``
answers conflict queries from a per-page index over spine positions; the
oracle builds its per-order conflict masks from prefix XORs along the spine.
All three are compared here with the plain pairwise definitions, built on
the crossing predicate in ``reference``; no bookbind module binds a name
that ``reference`` defines.  The plan check, which pins fixed pages into the
index and walks each page once, is compared with ``violations``, and on
plans with several faults at once with a reference built from ``Counter``
and ``violations``.
"""

import importlib
import pkgutil
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings, strategies as st  # noqa: E402

import bookbind  # noqa: E402
from bookbind import oracle  # noqa: E402
from bookbind.constructions import (  # noqa: E402
    _TODO,
    CompletionError,
    SequenceCatalog,
    _check_plan,
    _PageAssigner,
    _select,
    embed,
    parity_pages,
)
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
    violations,
)
import reference  # noqa: E402
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

    pos = emb.pos
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
    emb = BookEmbedding(order, {}, 4)
    edges = g.edge_list  # edge number k is edges[k]
    asg = _PageAssigner(emb, len(edges), "test")
    placed: dict[int, int] = {}  # edge number -> page, beside the index

    def pairwise_conflicts(e, page):
        return any(_conflict(e, edges[k], emb.pos) for k, p in placed.items() if p == page)

    for remove, pick, page in steps:
        if remove and placed:
            numbers = sorted(placed)
            k = numbers[pick % len(numbers)]
            asg._unplace(k, *asg._span(edges[k]))
            del placed[k]
        else:
            k = pick % len(edges)
            if k not in placed and not pairwise_conflicts(edges[k], page):
                asg._place(k, *asg._span(edges[k]), page)
                placed[k] = page
        assert all(asg.slot[k] == p for k, p in placed.items())
        for k, e in enumerate(edges):
            if k not in placed:
                assert asg.slot[k] >= _TODO
                for p in range(4):
                    assert asg._conflicts(*asg._span(e), p) == pairwise_conflicts(e, p), (e, p)


@st.composite
def plans_with_fixed_pages(draw):
    """A small bundle's catalog, a random spine, and a plan that fixes random
    pages on a random few of its edge numbers and leaves the rest to do."""

    spec = draw(st.sampled_from(SPECS[:3] + SPECS[4:]))  # 18 to 40 vertices
    cat = SequenceCatalog(spec)
    m = parity_pages(spec)
    spine = draw(st.permutations(range(spec.s * spec.t)))
    fixed = draw(
        st.lists(
            st.tuples(st.integers(0, cat.size - 1), st.integers(0, m - 1)),
            max_size=12,
            unique_by=lambda f: f[0],
        )
    )
    pinned = {k for k, _ in fixed}
    todo = [(k, (0,)) for k in range(cat.size) if k not in pinned]
    return cat, (list(spine), fixed, todo), BookEmbedding(spine, {}, m)


@given(plans_with_fixed_pages())
def test_plan_check_pins_fixed_pages_iff_the_validator_finds_no_clash(case):
    cat, plan, emb = case
    _, fixed, _ = plan
    clashes = violations(((cat.decode(k), p) for k, p in fixed), emb.pos)
    if clashes:
        with pytest.raises(CompletionError) as info:
            _check_plan(cat, plan, emb, "test")
        assert str(info.value) == f"test: fixed pages clash: {clashes[:4]}"
    else:
        index = _check_plan(cat, plan, emb, "test")
        for k, p in fixed:
            a, b = index._span(cat.decode(k))
            assert index.slot[k] == p and index.partner[p][a] == b and index.partner[p][b] == a
        assert sum(x != -1 for page in index.partner for x in page) == 2 * len(fixed)
    assert emb.pages == {}


def reference_plan_verdict(cat: SequenceCatalog, plan, m: int) -> str | None:
    """What the plan check must say, from its definition: the first listing
    fault in priority order (numbers out of range, numbers listed twice,
    numbers missing, pages out of range), each naming up to four offenders,
    else the validator's clashes among the fixed pages; None for a sound plan."""

    spine, fixed, todo = plan
    decode, edges = cat.decode, range(cat.size)
    count = Counter(k for k, _ in [*fixed, *todo])
    pages = [*fixed, *((k, p) for k, palette in todo for p in palette)]
    for fault, offenders in (
        (f"numbers outside 0..{cat.size - 1}", sorted(set(count) - set(edges))),
        ("listed twice", [decode(k) for k, c in count.items() if c > 1]),
        ("missing from the plan", sorted(decode(k) for k in edges if k not in count)),
        (f"pages outside 0..{m - 1}", [(decode(k), p) for k, p in pages if not 0 <= p < m]),
    ):
        if offenders:
            return f"{fault}: {offenders[:4]}"
    pos = {v: x for x, v in enumerate(spine)}
    clashes = violations(((decode(k), p) for k, p in fixed), pos)
    return f"fixed pages clash: {clashes[:4]}" if clashes else None


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
    cat, m = SequenceCatalog(spec), parity_pages(spec)
    rule, layout = _select(spec)
    spine, fixed, todo = layout(cat, spec)
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
            entries[i] = (cat.size + draw(st.integers(0, 3)), page)
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
            edge = cat.decode(k) if k in range(cat.size) else None
            # the pages of the fixed edges this one would clash with
            onto = sorted(
                {p for k2, p in fixed if edge and k2 != k and k2 in range(cat.size) and clash(edge, cat.decode(k2))}
                - {page}
            )
            if onto:
                fixed[j] = (k, draw(st.sampled_from(onto)))
    return cat, rule, (spine, fixed, todo), m


@settings(max_examples=200)  # eight fault kinds in combination on six specs
@given(multi_fault_plans())
def test_plan_check_names_faults_in_combination_as_the_reference_does(case):
    cat, rule, plan, m = case
    _, fixed, todo = plan
    emb = BookEmbedding(plan[0], {}, m)
    verdict = reference_plan_verdict(cat, plan, m)
    event("sound" if verdict is None else verdict.split(":")[0])
    if verdict is not None:
        with pytest.raises(CompletionError) as info:
            _check_plan(cat, plan, emb, rule)
        assert str(info.value) == f"{rule}: {verdict}"
        return
    index = _check_plan(cat, plan, emb, rule)
    assert all(index.slot[k] == p for k, p in fixed)
    assert all(index.slot[k] == _TODO for k, _ in todo)
    for k, p in fixed:
        a, b = index._span(cat.decode(k))
        assert index.partner[p][a] == b and index.partner[p][b] == a
    assert sum(x != -1 for page in index.partner for x in page) == 2 * len(fixed)


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
    e = max(emb.pages, key=lambda f: abs(pos[f[0]] - pos[f[1]]))  # the longest chord
    pages = dict(emb.pages)
    pages[e] = (pages[e] + 1) % emb.m
    mutant = BookEmbedding(emb.order, pages, emb.m)
    report = validate(res.graph, mutant)
    assert not report.ok and _reference_names_in_bookbind() == []
    assert report == reference_validate(res.graph, mutant)
    assert any(e in (f, h) for f, h, _ in report.violations)
