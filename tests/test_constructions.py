"""Closed-form embeddings: every family must validate at its claimed page count."""

import hashlib
import json
import math

import pytest

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
    _PageAssigner,
    _select,
    embed,
)
from bookbind.cli import _sweep_specs
from bookbind.graph_core import (
    BundleSpec,
    Reflection,
    Shift,
    bundle,
    predict_bipartite,
)
from bookbind.layout_engine import validate


def _check(result, spec):
    assert isinstance(result, ConstructionResult)
    report = validate(result.graph, result.embedding)
    assert report.ok, report.violations[:3]
    assert result.report == report
    assert report.pages_used == result.embedding.m
    assert result.embedding.m == (4 if predict_bipartite(spec) else 5)
    assert result.graph == bundle(spec)


def test_sequence_catalog_wraps_indices():
    cat = SequenceCatalog(3, 5)
    assert cat.flat(1, 1) == 0
    assert cat.flat(3, 5) == 14
    assert cat.flat(4, 6) == 0  # wraps both axes
    assert cat.flat(1, 0) == 4  # column 0 means column t
    assert cat.col(0) == 5 and cat.col(6) == 1
    assert cat.row(2) == (5, 6, 7, 8, 9)
    assert cat.column(2) == (1, 6, 11)
    assert cat.fiber_edge(1, 5) == (0, 4)  # wraps back to column 1


def test_assigner_rejects_non_canonical_edges():
    # layouts hand over canonical (low, high) edges; a reversed one is not
    # silently repaired
    g = bundle(BundleSpec(3, 4, Shift(2)))
    asg = _PageAssigner(g, range(g.n), "test")
    with pytest.raises(CompletionError, match="not an edge"):
        asg.assign((1, 0), 0)
    with pytest.raises(CompletionError, match="not an edge"):
        asg.complete([((1, 0), (0, 1))])


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
    # three residual cycles with d > g: the closed-form colouring has a
    # genuine conflict and must fail loudly instead of emitting a bad witness
    with pytest.raises(CompletionError):
        embed(BundleSpec(3, 15, Shift(6)))


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


def test_embed_normalizes_large_shifts():
    res = embed(BundleSpec(5, 8, Shift(6)))
    assert res.spec.phi == Shift(2)
    _check(res, BundleSpec(5, 8, Shift(2)))


def test_embed_trivial_shift_unsupported():
    out = embed(BundleSpec(4, 5, Shift(0)))
    assert isinstance(out, Unsupported)
    assert out.reduction is None


def test_embed_coprime_shift_returns_reduction():
    out = embed(BundleSpec(5, 7, Shift(3)))
    assert isinstance(out, Unsupported)
    assert out.reduction is not None
    assert out.reduction.n == 35 and out.reduction.jump == 10
    # normalisation happens before the gcd test: d=5 on t=7 folds to d=2
    out = embed(BundleSpec(3, 7, Shift(5)))
    assert isinstance(out, Unsupported)
    assert out.reduction.d == 2


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
    except Exception as exc:  # the failure itself is part of the outcome
        return f"{type(exc).__name__}: {exc}"
    if isinstance(res, Unsupported):
        return f"unsupported: {res.reason}"
    text = json.dumps(res.embedding.to_payload(), indent=2, sort_keys=True)
    return f"{res.rule} {res.embedding.m} {text}"


# sha256 of every `embed` outcome on s = 3..8, t = 3..16, every shift d and
# every reflection kind, in that order; any change to placement shows here
GRID_DIGEST = "4df52a1e84ff09bb8c334e71aa76105809e262428487bc1d753d3736fbd7eaf3"


def test_embed_outcomes_on_small_grid_are_pinned():
    digest = hashlib.sha256()
    for s in range(3, 9):
        for t in range(3, 17):
            phis = [Shift(d) for d in range(t)]
            phis += [Reflection(kind) for kind in (("one",) if t % 2 else ("none", "two"))]
            for phi in phis:
                digest.update(_grid_outcome(BundleSpec(s, t, phi)).encode() + b"\n")
    assert digest.hexdigest() == GRID_DIGEST


def _plan_text(spec) -> str:
    rule, layout = _select(spec)
    spine, fixed, todo = layout(SequenceCatalog(spec.s, spec.t), spec)
    fixed = [[list(e), page] for e, page in fixed]
    todo = [[list(e), list(palette)] for e, palette in todo]
    return json.dumps([rule, list(spine), fixed, todo])


# sha256 of every layout's plan (rule, spine, fixed list in order, todo list
# in order) on the sweep grid s = 3..12, t = 3..30, shifts then reflections:
# 1280 rows, including the odd-gcd rows that fail later in `embed`.  The
# fixed order names the edge a failing spec reports; the todo length sets
# the depth of the completion search.
PLAN_DIGEST = "91dd52b41c28e124e442c860013fe587b0bcb59082de50ff0840af440e886d02"


def test_layout_plans_on_sweep_grid_are_pinned():
    digest = hashlib.sha256()
    rows = 0
    for family in ("shift", "reflection"):
        for spec in _sweep_specs(family, (3, 12), (3, 30)):
            digest.update(_plan_text(spec).encode() + b"\n")
            rows += 1
    assert rows == 1280
    assert digest.hexdigest() == PLAN_DIGEST
