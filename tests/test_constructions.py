"""Closed-form embeddings: every family must validate at its claimed page count."""

import hashlib
import json
import math
import tracemalloc

import pytest

from bookbind import cli, constructions
from bookbind.bundle_decomp import residual_cycles
from bookbind.constructions import (
    RULE_REFL_BASE_EVEN,
    RULE_REFL_BASE_ODD,
    RULE_SHIFT_EVEN_GCD,
    RULE_SHIFT_ODD_BIPARTITE,
    RULE_SHIFT_ODD_EVEN_RESIDUAL,
    RULE_SHIFT_ODD_ODD_RESIDUAL,
    CompletionError,
    ConstructionResult,
    SequenceCatalog,
    Unsupported,
    _check_plan,
    _select,
    _wraps,
    embed,
    parity_pages,
)
from bookbind.cli import _sweep_specs
from bookbind.graph_core import (
    BundleSpec,
    Reflection,
    Shift,
    bundle,
    format_bundle_spec,
    predict_bipartite,
)
from bookbind.layout_engine import PURPLE, RED, YELLOW, BookEmbedding, validate
from reference import cycle_edges


def _check(result, spec):
    assert isinstance(result, ConstructionResult)
    report = validate(result.graph, result.embedding)
    assert report.ok, report.violations[:3]
    assert result.report == report
    assert report.pages_used == result.embedding.m
    assert result.embedding.m == (4 if predict_bipartite(spec) else 5)
    assert result.graph == bundle(spec)


def test_sequence_catalog_wraps_indices():
    cat = SequenceCatalog(BundleSpec(3, 5, Shift(2)))
    assert cat.flat(1, 1) == 0
    assert cat.flat(3, 5) == 14
    assert cat.flat(4, 6) == 0  # wraps both axes
    assert cat.flat(1, 0) == 4  # column 0 means column t
    assert cat.row(2) == (5, 6, 7, 8, 9)
    assert cat.column(2) == (1, 6, 11)
    assert cat.size == 30
    # kind 0 is the fibre edge toward column j+1, kind 1 the rung toward row i+1
    assert (cat.fibre(1, 1), cat.rung(1, 1)) == (0, 1)
    assert cat.fibre(1, 5) == cat.fibre(4, 0) == 8 and cat.decode(8) == (0, 4)  # back to column 1
    assert cat.rung(2, 5) == cat.rung(-1, 10) == 19 and cat.decode(19) == (9, 14)
    # the rung from row s is the seam, landing on row 1 at phi(column)
    assert cat.rung(3, 1) == cat.rung(0, 1) == 21 and cat.decode(21) == (2, 10)
    assert cat.rung(3, 4) == 27 and cat.decode(27) == (0, 13)  # 3 + 2 wraps to 0
    assert SequenceCatalog(BundleSpec(3, 4, Reflection("two"))).decode(17) == (0, 8)


def _catalog_specs(s_max: int, t_max: int):
    for s in range(3, s_max + 1):
        for t in range(3, t_max + 1):
            kinds = ("one",) if t % 2 else ("none", "two")
            yield from (BundleSpec(s, t, Shift(d)) for d in range(t))
            yield from (BundleSpec(s, t, Reflection(kind)) for kind in kinds)


def test_edge_numbers_name_every_edge_once():
    # 2 * flat + kind is a bijection onto the edges, and a residual cycle's
    # edges are the rungs 2 * v + 1 of its vertices in walk order
    checked = 0
    for spec in _catalog_specs(9, 15):
        cat = SequenceCatalog(spec)
        decoded = [cat.decode(k) for k in range(cat.size)]
        assert len(set(decoded)) == cat.size and set(decoded) == bundle(spec).edges, spec
        for cyc in residual_cycles(spec):
            assert cycle_edges(cyc) == [cat.decode(2 * v + 1) for v in cyc], spec
        checked += 1
    assert checked == 7 * 136


_PLAN_SPEC = BundleSpec(3, 4, Shift(2))  # shift/gcd-even: 5 pages, fixed and todo both used
_decode = SequenceCatalog(_PLAN_SPEC).decode


def _edit_plan(monkeypatch, edit) -> None:
    """Make `embed` of _PLAN_SPEC use its plan as changed in place by
    `edit(spine, fixed, todo)`, and fail the test if the search starts (the
    plan check itself pins the fixed pages into the search's index)."""

    rule, layout = _select(_PLAN_SPEC)

    def edited(cat, spec):
        spine, fixed, todo = layout(cat, spec)
        edit(spine, fixed, todo)
        return spine, fixed, todo

    def no_search(*args):
        raise AssertionError("the search started on a faulty plan")

    monkeypatch.setattr(constructions, "_select", lambda spec: (rule, edited))
    monkeypatch.setattr(constructions._PageAssigner, "complete", no_search)


def _assert_plan_fault(monkeypatch, edit) -> None:
    """`edit` returns the fault it made; `embed` must name exactly that."""

    named = []
    _edit_plan(monkeypatch, lambda *plan: named.append(edit(*plan)))
    with pytest.raises(CompletionError) as info:
        embed(_PLAN_SPEC)
    assert str(info.value) == f"{RULE_SHIFT_EVEN_GCD}: {named[0]}"


def _number_past_the_end(spine, fixed, todo) -> str:
    fixed[0] = (24, fixed[0][1])  # _PLAN_SPEC has 2 * 3 * 4 = 24 edges
    return "numbers outside 0..23: [24]"


def _repeat(source, target, page=None) -> str:
    k, palette = source[0]
    target.append((k, palette if page is None else page))
    return f"listed twice: [{_decode(k)}]"


def _drop_last_todo(spine, fixed, todo) -> str:
    k, _ = todo.pop()
    return f"missing from the plan: [{_decode(k)}]"


def _fixed_page_5(spine, fixed, todo) -> str:
    k, _ = fixed[0]
    fixed[0] = (k, 5)
    return f"pages outside 0..4: [{(_decode(k), 5)}]"


def _palette_page_5(spine, fixed, todo) -> str:
    k, _ = todo[-1]
    todo[-1] = (k, (RED, 5))
    return f"pages outside 0..4: [{(_decode(k), 5)}]"


def _spine_repeats_a_vertex(spine, fixed, todo) -> str:
    spine[0] = spine[1]
    return "spine is not a permutation of the vertices"


# _PLAN_SPEC's spine is 0 4 8 2 6 10 11 7 3 9 5 1; its fixed list opens with
# the fibre edges 0 = (0, 1) yellow, 2 = (1, 2) purple, 4 = (2, 3) yellow,
# and its red seams are 21 = (0, 10) and 23 = (1, 11)


def _fixed_share_an_endpoint(spine, fixed, todo) -> str:
    assert fixed[:2] == [(0, YELLOW), (2, PURPLE)]
    assert (_decode(0), _decode(2)) == ((0, 1), (1, 2))
    fixed[0] = (0, PURPLE)
    return "fixed pages clash: [((0, 1), (1, 2), 'shared-endpoint')]"


def _fixed_cross(spine, fixed, todo) -> str:
    assert fixed[2] == (4, YELLOW) and {(21, RED), (23, RED)} <= set(fixed)
    assert [_decode(k) for k in (4, 21, 23)] == [(2, 3), (0, 10), (1, 11)]
    fixed[2] = (4, RED)  # spine places 3..8 inside the seams' 0..5 and 6..11
    return (
        "fixed pages clash: [((0, 10), (2, 3), 'crossing'), ((1, 11), (2, 3), 'crossing')]"
    )


PLAN_FAULTS = {
    "number >= 2st": _number_past_the_end,
    "repeat within fixed": lambda spine, fixed, todo: _repeat(fixed, fixed),
    "repeat within todo": lambda spine, fixed, todo: _repeat(todo, todo),
    "repeat across fixed and todo": lambda spine, fixed, todo: _repeat(todo, fixed, RED),
    "missing edge": _drop_last_todo,
    "fixed page >= m": _fixed_page_5,
    "palette page >= m": _palette_page_5,
    "spine not a permutation": _spine_repeats_a_vertex,
    "fixed edges share an endpoint": _fixed_share_an_endpoint,
    "fixed edges cross": _fixed_cross,
}


@pytest.mark.parametrize("fault", PLAN_FAULTS)
def test_plan_fault_fails_before_placement(fault, monkeypatch):
    _assert_plan_fault(monkeypatch, PLAN_FAULTS[fault])


def test_plan_fault_exits_as_construction_failure(monkeypatch, capsys):
    # a palette page >= m is a faulty layout (70), not an invalid embedding (2)
    _edit_plan(monkeypatch, _palette_page_5)
    assert cli.main(["embed", format_bundle_spec(_PLAN_SPEC)]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith(f"bookbind: construction failed: {RULE_SHIFT_EVEN_GCD}: pages outside")


class _CountedList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("spec", [_PLAN_SPEC, BundleSpec(5, 7, Reflection("one"))])
def test_plan_check_walks_a_sound_fixed_list_once(spec):
    rule, layout = _select(spec)
    cat = SequenceCatalog(spec)
    spine, fixed, todo = layout(cat, spec)
    fixed = _CountedList(fixed)
    emb = BookEmbedding(spine, {}, parity_pages(spec))
    index = _check_plan(cat, (spine, fixed, todo), emb, rule)
    assert fixed.iterations == 1
    assert all(index.slot[k] == page for k, page in list.__iter__(fixed))


def test_shift_even_gcd_cases():
    for s, t, d in ((3, 6, 2), (4, 6, 2), (5, 8, 4), (4, 12, 4), (6, 10, 4)):
        spec = BundleSpec(s, t, Shift(d))
        res = embed(spec)
        _check(res, spec)
        assert res.rule == RULE_SHIFT_EVEN_GCD


def test_shift_even_gcd_page_count_follows_base_parity():
    # even gcd forces t and d even, so bipartite iff s even
    assert embed(BundleSpec(4, 6, Shift(2))).embedding.m == 4
    assert embed(BundleSpec(3, 6, Shift(2))).embedding.m == 5


def test_shift_odd_gcd_bipartite_cases():
    for s, t, d in ((3, 6, 3), (5, 10, 5), (3, 18, 3), (5, 14, 7)):
        spec = BundleSpec(s, t, Shift(d))
        assert predict_bipartite(spec)
        res = embed(spec)
        _check(res, spec)
        assert res.rule == RULE_SHIFT_ODD_BIPARTITE
        assert res.embedding.m == 4


def test_shift_odd_gcd_even_residual_cases():
    # residual cycles of even length s*t/g: five pages via the interleaved spine
    for s, t, d in ((4, 6, 3), (6, 6, 3), (4, 10, 5), (4, 12, 3), (4, 9, 3), (6, 9, 3)):
        spec = BundleSpec(s, t, Shift(d))
        assert not predict_bipartite(spec)
        assert (s * t // math.gcd(t, d)) % 2 == 0
        res = embed(spec)
        _check(res, spec)
        assert res.rule == RULE_SHIFT_ODD_EVEN_RESIDUAL


def test_shift_odd_gcd_odd_residual_cases():
    # residual cycles of odd length: s and t both odd
    for s, t, d in ((3, 9, 3), (5, 9, 3), (7, 9, 3), (3, 15, 3), (3, 15, 5), (5, 15, 5)):
        spec = BundleSpec(s, t, Shift(d))
        assert not predict_bipartite(spec)
        assert (s * t // math.gcd(t, d)) % 2 == 1
        res = embed(spec)
        _check(res, spec)
        assert res.rule == RULE_SHIFT_ODD_ODD_RESIDUAL


def test_shift_odd_gcd_triple_residual_needs_matching_jump():
    # three residual cycles with d > g: the pages that depend on where the
    # cycles wrap must follow the jump d, not raw columns 1 and t
    for s, t, d in ((3, 15, 6), (4, 15, 6), (3, 21, 9), (5, 15, 12)):
        spec = BundleSpec(s, t, Shift(d))
        res = embed(spec)
        _check(res, spec)
        assert res.rule in (RULE_SHIFT_ODD_EVEN_RESIDUAL, RULE_SHIFT_ODD_ODD_RESIDUAL)


_KIND_SUFFIX = {"none": "no-fixed", "one": "one-fixed", "two": "two-fixed"}


def test_reflection_base_odd_cases():
    for s, t, kind in ((3, 6, "none"), (5, 8, "none"), (3, 6, "two"), (5, 7, "one"), (3, 9, "one")):
        spec = BundleSpec(s, t, Reflection(kind))
        res = embed(spec)
        _check(res, spec)
        assert res.rule == RULE_REFL_BASE_ODD + _KIND_SUFFIX[kind]
        assert res.embedding.m == (4 if kind == "none" else 5)


def test_reflection_base_even_cases():
    for s, t, kind in (
        (4, 6, "two"),
        (6, 12, "two"),
        (4, 4, "two"),
        (4, 7, "one"),
        (6, 9, "one"),
        (4, 3, "one"),
        (6, 3, "one"),
        (4, 6, "none"),
        (6, 10, "none"),
        (4, 4, "none"),
    ):
        spec = BundleSpec(s, t, Reflection(kind))
        res = embed(spec)
        _check(res, spec)
        assert res.rule == RULE_REFL_BASE_EVEN + _KIND_SUFFIX[kind]
        assert res.embedding.m == (4 if kind == "two" else 5)


def test_three_column_one_fixed_pattern():
    # the 3-column case uses its own periodic page pattern
    for s in (4, 6, 8, 10):
        spec = BundleSpec(s, 3, Reflection("one"))
        _check(embed(spec), spec)


def test_embed_dispatch_covers_all_supported_families():
    cases = [
        BundleSpec(3, 6, Shift(2)),
        BundleSpec(3, 6, Shift(3)),
        BundleSpec(4, 6, Shift(3)),
        BundleSpec(3, 9, Shift(3)),
        BundleSpec(5, 8, Reflection("none")),
        BundleSpec(4, 6, Reflection("two")),
        BundleSpec(4, 7, Reflection("one")),
        BundleSpec(6, 8, Reflection("none")),
    ]
    for spec in cases:
        res = embed(spec)
        _check(res, spec)


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="the completion search recurses once per todo edge, past the recursion limit",
)
def test_e4k_embed_completes():
    spec = BundleSpec(44, 44, Shift(2))  # about 1900 todo edges
    _check(embed(spec), spec)


def test_embed_footprint_per_edge_is_pinned():
    # one slot per edge number until the search ends, and one int per vertex
    # in the graph: a whole e4k embed peaks near 355-370 bytes per edge on
    # Python 3.10-3.13; holding each edge three times took 487-547
    spec = BundleSpec(44, 45, Shift(3))  # E = 3960, about 660 todo edges
    tracemalloc.start()
    try:
        res = embed(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _check(res, spec)
    assert peak < 425 * 3960, peak / 3960


def test_embed_lays_out_large_shifts_as_given():
    # d > t/2 is not folded to t - d: the embedding is of the graph as named
    for spec in (BundleSpec(5, 8, Shift(6)), BundleSpec(3, 15, Shift(9))):
        res = embed(spec)
        assert res.graph == bundle(spec)
        _check(res, spec)


def _walked_wraps(s: int, t: int, d: int) -> tuple[set[int], set[int]]:
    """Where the residual cycles wrap, read off the cycles themselves.

    Each cycle is a run of column blocks.  The fibre edges leaving block 0 of
    the last cycle land on block u of cycle 1; a column of the last cycle
    wraps iff its fibre edges land on one of cycle 1's first u blocks.
    """

    cycles = residual_cycles(BundleSpec(s, t, Shift(d)))
    first, last = cycles[0], cycles[-1]
    block = {first[b * s] % t: b for b in range(len(first) // s)}  # column -> block
    u = block[(last[0] + 1) % t]
    wrapping = {q for q in {v % t for v in last} if block[(q + 1) % t] < u}
    return {(q + 1) % t + 1 for q in wrapping}, {q + 1 for q in wrapping}  # 1-based


def test_wraps_match_the_residual_cycles():
    checked = 0
    for s in range(3, 7):
        for t in range(3, 31):
            for d in range(1, t):
                g = math.gcd(t, d)
                if g > 1:
                    assert _wraps(t, d) == _walked_wraps(s, t, d), (s, t, d)
                    assert d != g or _wraps(t, d) == ({1}, {t})  # d = g: raw columns
                    checked += 1
    assert checked == 4 * 158


def test_embed_trivial_shift_unsupported():
    with pytest.raises(Unsupported) as info:
        embed(BundleSpec(4, 5, Shift(0)))
    assert info.value.reduction is None
    assert str(info.value) == info.value.reason


def test_embed_coprime_shift_returns_reduction():
    with pytest.raises(Unsupported) as info:
        embed(BundleSpec(5, 7, Shift(3)))
    out = info.value
    assert out.reduction is not None
    assert out.reduction.n == 35 and out.reduction.jump == 10
    # the reduction is of the spec as given: d=5 on t=7 is not folded to d=2
    with pytest.raises(Unsupported) as info:
        embed(BundleSpec(3, 7, Shift(5)))
    assert info.value.reduction.d == 5


def test_blue_seam_collision_repair_regression():
    # three residual cycles with d = 3: one fibre edge must dodge the final
    # cycle's closing page; this used to double-book a vertex
    for s in (3, 5, 7):
        spec = BundleSpec(s, 9, Shift(3))
        _check(embed(spec), spec)


def test_rules_are_stable_strings():
    assert embed(BundleSpec(3, 6, Shift(2))).rule == "shift/gcd-even"
    assert embed(BundleSpec(3, 6, Shift(3))).rule == "shift/gcd-odd/bipartite"
    assert embed(BundleSpec(4, 6, Shift(3))).rule == "shift/gcd-odd/even-residual"
    assert embed(BundleSpec(3, 9, Shift(3))).rule == "shift/gcd-odd/odd-residual"
    assert embed(BundleSpec(3, 6, Reflection("none"))).rule == "reflection/base-odd/no-fixed"
    assert embed(BundleSpec(4, 6, Reflection("two"))).rule == "reflection/base-even/two-fixed"


def test_sweep_style_grid_all_valid():
    # a broad mixed grid; anything embeddable must validate at 4-iff-bipartite
    for s in range(3, 7):
        for t in range(3, 11):
            for d in range(1, t // 2 + 1):
                if math.gcd(t, d) == 1:
                    continue
                spec = BundleSpec(s, t, Shift(d))
                _check(embed(spec), spec)
            kinds = ("one",) if t % 2 else ("none", "two")
            for kind in kinds:
                spec = BundleSpec(s, t, Reflection(kind))
                _check(embed(spec), spec)


def _grid_outcome(spec) -> str:
    try:
        res = embed(spec)
    except Unsupported as exc:
        return f"unsupported: {exc.reason}"
    except Exception as exc:  # the failure itself is part of the outcome
        return f"{type(exc).__name__}: {exc}"
    text = json.dumps(res.embedding.to_payload(), indent=2, sort_keys=True)
    return f"{res.rule} {res.embedding.m} {text}"


# s = 3..8, t = 3..16, every shift d and every reflection kind, in that order
GRID_SPECS = [
    BundleSpec(s, t, phi)
    for s in range(3, 9)
    for t in range(3, 17)
    for phi in [Shift(d) for d in range(t)]
    + [Reflection(kind) for kind in (("one",) if t % 2 else ("none", "two"))]
]

# sha256 of every `embed` outcome on GRID_SPECS; any change to placement shows here
GRID_DIGEST = "c5eb17a80f738a05a8915c63950b8b1c3cde8aeb64aa6c26f0045011b53f2558"


def test_embed_outcomes_on_small_grid_are_pinned():
    digest = hashlib.sha256()
    for spec in GRID_SPECS:
        digest.update(_grid_outcome(spec).encode() + b"\n")
    assert digest.hexdigest() == GRID_DIGEST


def _plan_text(spec) -> str:
    rule, layout = _select(spec)
    cat = SequenceCatalog(spec)
    spine, fixed, todo = layout(cat, spec)
    fixed = [[list(cat.decode(k)), page] for k, page in fixed]
    todo = [[list(cat.decode(k)), list(palette)] for k, palette in todo]
    return json.dumps([rule, list(spine), fixed, todo])


# sha256 of every layout's plan (rule, spine, fixed list in order, todo list
# in order) on the sweep grid s = 3..12, t = 3..30, shifts then reflections:
# 1280 rows.  Fixed pages are pinned, so their order changes nothing but this
# digest; the todo order is the search's, and its length sets the search depth.
PLAN_DIGEST = "5c8f8cee3217f78caf08e86c65be2f3ae560ec367747212d63ead15401d57983"


def test_layout_plans_on_sweep_grid_are_pinned():
    digest = hashlib.sha256()
    rows = 0
    for family in ("shift", "reflection"):
        for spec in _sweep_specs(family, (3, 12), (3, 30)):
            digest.update(_plan_text(spec).encode() + b"\n")
            rows += 1
    assert rows == 1280
    assert digest.hexdigest() == PLAN_DIGEST
