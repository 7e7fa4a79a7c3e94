"""Closed-form embeddings: every family must validate at its claimed page count."""

import hashlib
import json
import math
import sys
import tracemalloc
from collections import Counter

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
    Unsupported,
    _check_plan,
    _select,
    _wraps,
    embed,
    fibres,
    parity_pages,
)
from bookbind.cli import _sweep_specs
from bookbind.graph_core import (
    BundleSpec,
    Numbering,
    Reflection,
    Shift,
    bundle,
    circulant,
    format_bundle_spec,
    make_edge,
    parse_bundle_spec,
    predict_bipartite,
)
from bookbind.layout_engine import PURPLE, RED, YELLOW, BookEmbedding, validate, violations
from bookbind.oracle import CERTIFIED, certify, check_isomorphism
from reference import (
    closed_form_todo_pages,
    cycle_edges,
    plan_text,
    reference_decode,
    row_pump,
    smith_form_map,
)


def _check(result, spec):
    assert isinstance(result, ConstructionResult)
    report = validate(result.graph, result.embedding)
    assert report.ok, report.violations[:3]
    assert result.report == report
    assert report.pages_used == result.embedding.m
    assert result.embedding.m == (4 if predict_bipartite(spec) else 5)
    assert result.graph == bundle(spec)


def test_numbering_wraps_indices():
    num = Numbering(BundleSpec(3, 5, Shift(2)))
    assert num.flat(1, 1) == 0
    assert num.flat(3, 5) == 14
    assert num.flat(4, 6) == 0  # wraps both axes
    assert num.flat(1, 0) == 4  # column 0 means column t
    assert num.row(2) == (5, 6, 7, 8, 9)
    assert num.column(2) == (1, 6, 11)
    assert num.size == 30
    # kind 0 is the fibre edge toward column j+1, kind 1 the rung toward row i+1
    assert (num.fibre(1, 1), num.rung(1, 1)) == (0, 1)
    assert num.fibre(1, 5) == num.fibre(4, 0) == 8 and num.edges[8] == (0, 4)  # back to column 1
    assert num.rung(2, 5) == num.rung(-1, 10) == 19 and num.edges[19] == (9, 14)
    # the rung from row s is the seam, landing on row 1 at phi(column)
    assert num.rung(3, 1) == num.rung(0, 1) == 21 and num.edges[21] == (2, 10)
    assert num.rung(3, 4) == 27 and num.edges[27] == (0, 13)  # 3 + 2 wraps to 0
    assert Numbering(BundleSpec(3, 4, Reflection("two"))).edges[17] == (0, 8)
    # the strides the layouts build their lists from, against the per-edge forms:
    # fibre pages listed row by row, then cells written over them in turn
    pages = list(range(100, 115))
    want = [(num.fibre(i, j), pages[num.flat(i, j)]) for i in range(1, 4) for j in range(1, 6)]
    assert fibres(num, list(pages)) == want
    want[4] = (8, 2)  # (1, 0) and (4, 5) both name (1, 5), the last write stands
    assert fibres(num, list(pages), [((1, 0), 1), ((4, 5), 2)]) == want
    # a column's rungs over rows 1..s-1, wrapped columns (1 - d, 0, past t) included
    for other in (num, Numbering(BundleSpec(6, 4, Reflection("none")))):
        for j in (1, 3, 4, 1 - 2, 0, 6):
            want = [other.rung(i, j) for i in range(1, other.s)]
            assert list(other.column_rungs(j)) == want, (other.s, j)


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
        num = Numbering(spec)
        decoded = [num.edges[k] for k in range(num.size)]
        assert len(set(decoded)) == num.size and set(decoded) == bundle(spec).edges, spec
        for cyc in residual_cycles(spec):
            assert cycle_edges(cyc) == [num.edges[2 * v + 1] for v in cyc], spec
        checked += 1
    assert checked == 7 * 136


def test_numbering_follows_the_definition():
    # the graph, the search and the page map all read this one list, so
    # validate cannot see a wrong number in it; the reference can.  The
    # keys verify checks a file against are built apart from it: as strides
    # of u * n + v, they must name the same edges as both
    checked = 0
    for spec in _catalog_specs(10, 24):
        edges = Numbering(spec).edges
        n = spec.s * spec.t
        assert edges == tuple(reference_decode(spec, k) for k in range(2 * n)), spec
        keys = Numbering(spec).keys()
        assert type(keys) is frozenset and len(keys) == 2 * n, spec
        assert keys == {u * n + v for u, v in edges}, spec
        assert keys == {u * n + v for u, v in map(reference_decode, [spec] * 2 * n, range(2 * n))}, spec
        checked += 1
    assert checked == 8 * 330


def test_page_map_shares_the_graph_tuples():
    # the tuples Numbering.edges built once, not equal copies of them
    specs = (BundleSpec(5, 8, Shift(2)), BundleSpec(6, 9, Shift(3)), BundleSpec(4, 7, Reflection("one")))
    for spec in specs:
        res = embed(spec)
        assert {*map(id, res.embedding.edges)} == {*map(id, res.graph.edges)}, spec


_PLAN_SPEC = BundleSpec(3, 4, Shift(2))  # shift/gcd-even: 5 pages, fixed and todo both used
_decode = Numbering(_PLAN_SPEC).edges.__getitem__


def _edit_plan(monkeypatch, edit, search: bool = False) -> None:
    """Make `embed` of _PLAN_SPEC use its plan as changed in place by
    `edit(spine, fixed, todo)`.  Unless `search` is set, fail the test if
    the search starts: a listing fault must stop the plan check first."""

    rule, layout = _select(_PLAN_SPEC)

    def edited(num):
        spine, fixed, todo = layout(num)
        edit(spine, fixed, todo)
        return spine, fixed, todo

    def no_search(*args):
        raise AssertionError("the search started on a faulty plan")

    monkeypatch.setattr(constructions, "_select", lambda spec: (rule, edited))
    if not search:
        monkeypatch.setattr(constructions._PageAssigner, "complete", no_search)


def _assert_plan_fault(monkeypatch, edit, search: bool = False) -> None:
    """`edit` returns the fault it made; `embed` must name exactly that."""

    named = []
    _edit_plan(monkeypatch, lambda *plan: named.append(edit(*plan)), search)
    with pytest.raises(CompletionError) as info:
        embed(_PLAN_SPEC)
    assert str(info.value) == f"{RULE_SHIFT_EVEN_GCD}: {named[0]}"


def _number_past_the_end(spine, fixed, todo) -> str:
    fixed[0] = (24, fixed[0][1])  # _PLAN_SPEC has 2 * 3 * 4 = 24 edges
    return "numbers outside 0..23: [24]"


def _number_past_the_end_twice(spine, fixed, todo) -> str:
    # the other faults are never looked up for a number with no edge
    fixed[:2] = [(24, 5), (24, 5)]
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


def _spine_has_a_negative_vertex(spine, fixed, todo) -> str:
    # -n in place of vertex 0: indexing from the end, it would name vertex 0 again
    spine[spine.index(0)] = -len(spine)
    return "spine is not a permutation of the vertices"


# _PLAN_SPEC's spine is 0 4 8 2 6 10 11 7 3 9 5 1; its fixed list opens with
# the fibre edges 0 = (0, 1) yellow, 2 = (1, 2) purple, 4 = (2, 3) yellow,
# and its red seams are 21 = (0, 10) and 23 = (1, 11)


# Clashing fixed pages list every number once, so the plan check passes
# them and the search runs.  It completes around a shared endpoint, which
# ``validate`` then names; no todo edge fits beside the crossing red chord.


def _fixed_share_an_endpoint(spine, fixed, todo) -> str:
    assert fixed[:2] == [(0, YELLOW), (2, PURPLE)]
    assert (_decode(0), _decode(2)) == ((0, 1), (1, 2))
    fixed[0] = (0, PURPLE)
    return "assignment invalid: (((0, 1), (1, 2), 'shared-endpoint'),)"


def _fixed_cross(spine, fixed, todo) -> str:
    assert fixed[2] == (4, YELLOW) and {(21, RED), (23, RED)} <= set(fixed)
    assert [_decode(k) for k in (4, 21, 23)] == [(2, 3), (0, 10), (1, 11)]
    fixed[2] = (4, RED)  # spine places 3..8 inside the seams' 0..5 and 6..11
    return "no completion within the given palette"


PLAN_FAULTS = {
    "number >= 2st": _number_past_the_end,
    "number >= 2st twice, page >= m": _number_past_the_end_twice,
    "repeat within fixed": lambda spine, fixed, todo: _repeat(fixed, fixed),
    "repeat within todo": lambda spine, fixed, todo: _repeat(todo, todo),
    "repeat across fixed and todo": lambda spine, fixed, todo: _repeat(todo, fixed, RED),
    "missing edge": _drop_last_todo,
    "fixed page >= m": _fixed_page_5,
    "palette page >= m": _palette_page_5,
    "spine not a permutation": _spine_repeats_a_vertex,
    "spine holds a negative vertex": _spine_has_a_negative_vertex,
}
PLAN_CLASHES = {
    "fixed edges share an endpoint": _fixed_share_an_endpoint,
    "fixed edges cross": _fixed_cross,
}


@pytest.mark.parametrize("fault", PLAN_FAULTS)
def test_plan_fault_fails_before_placement(fault, monkeypatch):
    _assert_plan_fault(monkeypatch, PLAN_FAULTS[fault])


@pytest.mark.parametrize("fault", PLAN_CLASHES)
def test_plan_clash_fails_in_the_search_or_the_validator(fault, monkeypatch):
    _assert_plan_fault(monkeypatch, PLAN_CLASHES[fault], search=True)


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
    num = Numbering(spec)
    spine, fixed, todo = layout(num)
    fixed = _CountedList(fixed)
    index = _check_plan(num, (spine, fixed, todo), parity_pages(spec), rule)
    assert fixed.iterations == 1
    assert all(index.pages[k] == page for k, page in list.__iter__(fixed))


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


# the completion search near E = 1k, one spec for each rule tag: (nodes
# visited, todo edges).  One frame per todo edge, in plan order and palette
# order, so a search that backtracks visits more nodes than it has todo
# edges and any other visits exactly one per edge.
E1K_SEARCH_NODES = {
    "s=23,t=21,phi=shift:3": (297, 160),
    "s=22,t=23,phi=refl:one": (522, 502),
    "s=22,t=22,phi=shift:2": (482, 482),
    "s=23,t=24,phi=shift:3": (528, 528),
    "s=22,t=21,phi=shift:3": (153, 153),
    "s=23,t=22,phi=refl:none": (506, 506),
    "s=23,t=23,phi=refl:one": (529, 529),
    "s=23,t=22,phi=refl:two": (506, 506),
    "s=22,t=22,phi=refl:two": (484, 484),
    "s=22,t=22,phi=refl:none": (454, 454),
}


@pytest.mark.parametrize("text", sorted(E1K_SEARCH_NODES))
def test_search_nodes_on_the_e1k_ladder_are_pinned(text):
    spec = parse_bundle_spec(text)
    rule, layout = _select(spec)
    num = Numbering(spec)
    spine, fixed, todo = layout(num)
    index = _check_plan(num, (spine, fixed, todo), parity_pages(spec), rule)
    emb = index.complete(todo)
    assert (index._nodes, len(todo)) == E1K_SEARCH_NODES[text]
    assert validate(bundle(spec), emb).ok


def test_embed_footprint_per_edge_is_pinned():
    # one page byte per edge number, one list slot per vertex for the spine
    # places and one tuple per edge, shared by the graph and the embedding,
    # whose edge set is built after the search: a whole e4k embed peaks near
    # 214 bytes per edge on Python 3.11 to 3.13, 239 when it is the first
    # embed in the process (235 and 284 on 3.10); with the graph built
    # before the search, 247 and 271 (264 and 317 on 3.10); with the places
    # in a dict, 280 and 302; building the page map's tuples a second time
    # took 355-378, holding each edge three times 487-547
    spec = BundleSpec(44, 45, Shift(3))  # E = 3960, about 660 todo edges
    tracemalloc.start()
    try:
        res = embed(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _check(res, spec)
    assert peak < 310 * 3960, peak / 3960


def test_verify_footprint_per_edge_is_pinned():
    # a decoded e4k file to a report: the rows become one list of edge
    # tuples and one of pages, the embedding keeps the edges as a tuple and
    # one set of them, built to find an edge listed twice and compared by
    # validate with E(g); near 148 bytes per edge on Python 3.11 when first
    # in the process (119 after), about 8 of them the dense pages' place
    # arrays, all alive after validate's one pass (140 and 112 with one
    # chord list per page and one place array at a time); the page dict it
    # replaced took 128 (99 after); a set built and dropped in the constructor, with
    # validate testing each edge against E(g), 122 (94 after), at one more
    # hash per edge in validate
    spec = BundleSpec(44, 45, Shift(3))
    payload = json.loads(cli._dumps(embed(spec).embedding))
    graph = bundle(spec)
    tracemalloc.start()
    try:
        report = validate(graph, BookEmbedding.from_payload(payload))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 150 * 3960, peak / 3960


def test_verify_path_footprint_per_edge_is_pinned():
    # the path verify takes on a decoded e4k file: from_payload, then
    # validate against the spec, which builds the expected keys inside the
    # window and no graph; near 195 bytes per edge on Python 3.11, first in
    # the process or not.  The same window with bundle(spec) built in it and
    # handed to validate took 222; the expected keys gathered in a set and
    # copied into a frozenset, 228
    spec = BundleSpec(44, 45, Shift(3))
    payload = json.loads(cli._dumps(embed(spec).embedding))
    tracemalloc.start()
    try:
        report = validate(spec, BookEmbedding.from_payload(payload))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 205 * 3960, peak / 3960


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


def _formula_wraps(t: int, d: int) -> tuple[set[int], set[int]]:
    """Where the residual cycles wrap, by arithmetic.  With g = gcd(t, d),
    T = t/g and u = (d/g)^-1 mod T, the fibre edges leaving the last u
    columns of class g land on the first u columns of residual cycle 1."""

    g = math.gcd(t, d)
    u = pow(d // g, -1, t // g)
    landing = {1 + k * d % t for k in range(u)}
    return landing, {(j - 2) % t + 1 for j in landing}  # 1-based


def test_wraps_match_the_residual_cycles():
    # _wraps reads cycle 1's walk up to column g; the formula and the last
    # cycle's blocks are two other ways to the same columns
    checked = 0
    for s in range(3, 7):
        for t in range(3, 31):
            for d in range(1, t):
                g = math.gcd(t, d)
                if g > 1:
                    spec = BundleSpec(s, t, Shift(d))
                    wraps = _wraps(Numbering(spec), residual_cycles(spec))
                    assert wraps == _formula_wraps(t, d) == _walked_wraps(s, t, d), (s, t, d)
                    assert d != g or wraps == ({1}, {t})  # d = g: raw columns
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


# sha256 of every layout's plan (rule, spine, fixed list in order, todo list
# in order) on the sweep grid s = 3..12, t = 3..30, shifts then reflections:
# 1280 rows.  Fixed pages are pinned, so their order changes nothing but this
# digest; the todo order is the search's, and its length sets the search depth.
PLAN_DIGEST = "5c8f8cee3217f78caf08e86c65be2f3ae560ec367747212d63ead15401d57983"


# each rule tag's e1k ladder spec beside its e4k one (s and t about doubled),
# and the three-column one-fixed layout with s doubled
LAYOUT_SIZE_PAIRS = [
    ("s=22,t=22,phi=shift:2", "s=44,t=44,phi=shift:2"),
    ("s=23,t=24,phi=shift:3", "s=45,t=42,phi=shift:3"),
    ("s=22,t=21,phi=shift:3", "s=44,t=45,phi=shift:3"),
    ("s=23,t=21,phi=shift:3", "s=45,t=45,phi=shift:3"),
    ("s=23,t=22,phi=refl:none", "s=45,t=44,phi=refl:none"),
    ("s=23,t=23,phi=refl:one", "s=45,t=45,phi=refl:one"),
    ("s=23,t=22,phi=refl:two", "s=45,t=44,phi=refl:two"),
    ("s=22,t=22,phi=refl:two", "s=44,t=44,phi=refl:two"),
    ("s=22,t=23,phi=refl:one", "s=44,t=45,phi=refl:one"),
    ("s=22,t=22,phi=refl:none", "s=44,t=44,phi=refl:none"),
    ("s=22,t=3,phi=refl:one", "s=44,t=3,phi=refl:one"),
]


def _layout_calls(text: str) -> int:
    # Python-level calls (not C builtins) made while the layout runs
    spec = parse_bundle_spec(text)
    _, layout = _select(spec)
    num = Numbering(spec)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        layout(num)
    finally:
        sys.setprofile(outer)
    return calls


@pytest.mark.parametrize("small, large", LAYOUT_SIZE_PAIRS)
def test_layout_calls_grow_with_s_plus_t(small, large):
    # a layout builds its lists from strides and row patterns, with at most a
    # call per row, column or residual cycle: doubling s and t about doubles
    # its calls, where a call per edge would about quadruple them
    calls = _layout_calls(small), _layout_calls(large)
    assert calls[1] <= 2.5 * calls[0], calls


def test_layout_plans_on_sweep_grid_are_pinned():
    digest = hashlib.sha256()
    rows = 0
    for family in ("shift", "reflection"):
        for spec in _sweep_specs(family, (3, 12), (3, 30)):
            rule, layout = _select(spec)
            num = Numbering(spec)
            plan = layout(num)
            # the plan check leaves clashes to validate: a layout edit that
            # makes its fixed pages clash is named here, before the digest
            edges = [num.edges[k] for k, _ in plan[1]]
            pages = [page for _, page in plan[1]]
            assert violations(edges, pages, BookEmbedding(plan[0], (), (), 1).pos) == [], spec
            digest.update(plan_text(rule, num, plan).encode() + b"\n")
            rows += 1
    assert rows == 1280
    assert digest.hexdigest() == PLAN_DIGEST


def test_closed_form_rules_give_the_searched_pages():
    # the closed-form todo-page rules, held in tests/reference.py only: on
    # s = 3..12, t = 3..30, every shift d with a rule and every reflection,
    # a rule covers exactly the layout's todo edges, and each one's page in
    # embed's embedding is the rule's page
    specs = 0
    for s in range(3, 13):
        for t in range(3, 31):
            kinds = ("one",) if t % 2 else ("none", "two")
            for phi in [Shift(d) for d in range(1, t) if math.gcd(t, d) > 1] + [*map(Reflection, kinds)]:
                spec = BundleSpec(s, t, phi)
                rule, layout = _select(spec)
                todo = layout(Numbering(spec))[2]
                if not todo:
                    continue
                want = closed_form_todo_pages(spec, rule)
                assert want.keys() == {k for k, _ in todo}, spec
                pages = embed(spec).embedding.pages
                assert all(pages[k] == page for k, page in want.items()), spec
                specs += 1
    assert specs == 1995


def test_every_rule_tag_pumps_by_two_rows():
    # on s = 3..12, t = 3..20, deleting two interior rows of embed(s + 2, t)
    # (one slice of its pages and 2t spine places) gives embed(s, t) on
    # every tag, with one known base case: from s = 3 to s = 5 no
    # shift/gcd-odd/odd-residual spec pumps
    pumped, misses, odd_residual_at_3 = Counter(), Counter(), 0
    for t in range(3, 21):
        kinds = ("one",) if t % 2 else ("none", "two")
        for phi in [Shift(d) for d in range(1, t) if math.gcd(t, d) > 1] + [*map(Reflection, kinds)]:
            rows = {}
            for s in range(3, 15):
                res = embed(BundleSpec(s, t, phi))
                rows[s] = res.rule, res.embedding.pages, res.embedding.order
            for s in range(3, 13):
                rule = rows[s][0]
                odd_residual_at_3 += (s, rule) == (3, RULE_SHIFT_ODD_ODD_RESIDUAL)
                if row_pump(rows[s], rows[s + 2], t) is None:
                    misses[s, rule] += 1
                else:
                    pumped[rule] += 1
    assert misses == {(3, RULE_SHIFT_ODD_ODD_RESIDUAL): odd_residual_at_3} and odd_residual_at_3 == 8
    assert len(pumped) == 10 and sum(pumped.values()) == 892


def test_embeddings_certify_on_the_isomorphic_circulant():
    # every supported shift with s, t <= 10 and gcd(s, t, d) = 1 is a
    # circulant by the Smith-form map; embed's embedding, carried through
    # the map, must validate and certify there, so a seam that Numbering
    # and reference_decode put in the same wrong column is caught
    specs = 0
    for s in range(3, 11):
        for t in range(3, 11):
            for d in range(1, t):
                if math.gcd(s, t, d) != 1 or math.gcd(t, d) == 1:
                    continue
                spec = BundleSpec(s, t, Shift(d))
                a, b, image = smith_form_map(spec)
                n = s * t
                h = circulant(n, {min(a, n - a), min(b, n - b)})
                assert check_isomorphism(bundle(spec), h, dict(enumerate(image))), spec
                emb = embed(spec).embedding
                moved = BookEmbedding(
                    [image[v] for v in emb.order],
                    [make_edge(image[u], image[v]) for u, v in emb.edges],
                    emb.pages,
                    emb.m,
                )
                report = validate(h, moved)
                assert report.ok and certify(h, report).status == CERTIFIED, spec
                specs += 1
    assert specs == 61


def test_embeddings_validate_on_the_mirror_spec():
    # (s, t, d) ≅ (s, t, t - d) under (p, q) -> (p, -q mod t): embed's
    # embedding of every shift with a rule on s = 3..12, t = 3..30, carried
    # through the map, must validate on bundle(s, t, t - d) in as many pages
    specs = 0
    for s in range(3, 13):
        for t in range(3, 31):
            mirror = [p * t + -q % t for p in range(s) for q in range(t)]  # flat id -> image
            for d in range(1, t):
                if math.gcd(t, d) == 1:
                    continue
                emb = embed(BundleSpec(s, t, Shift(d))).embedding
                moved = BookEmbedding(
                    [mirror[v] for v in emb.order],
                    [make_edge(mirror[u], mirror[v]) for u, v in emb.edges],
                    emb.pages,
                    emb.m,
                )
                report = validate(BundleSpec(s, t, Shift(t - d)), moved)
                assert report.ok and report.pages_used == emb.m, (s, t, d)
                specs += 1
    assert specs == 1580
