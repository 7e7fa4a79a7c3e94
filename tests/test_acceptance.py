"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (outside pytest's capture so the
summary always reaches the terminal) and then asserts, so a red run still
shows which criterion fell over and why.
"""

import math
import random
import time

import pytest

from bookbind import cli
from bookbind.bundle_decomp import residual_cycles, to_circulant
from bookbind.constructions import ConstructionResult, embed, parity_pages
from bookbind.graph_core import (
    BundleSpec,
    Graph,
    Reflection,
    Shift,
    bundle,
    circulant,
    format_bundle_spec,
    parse_bundle_spec,
    predict_bipartite,
)
from bookbind.layout_engine import REASON_ENDPOINT, validate
from bookbind.oracle import (
    EXACT,
    LOWER_BOUND_ONLY,
    SearchBudget,
    brute_force_mbt,
    check_isomorphism,
    lower_bound,
    search_fixed_pages,
)
from reference import chords_cross, cycle_edges, embedding_of, fiber_cycles

SEED = 20260814


@pytest.fixture
def report(capfd):
    def _report(criterion: str, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)

    return _report


def _shift_sweep_specs():
    for s in range(3, 9):
        for t in range(4, 15):
            for d in range(1, t // 2 + 1):
                if math.gcd(t, d) > 1:
                    yield BundleSpec(s, t, Shift(d))


def _shift_grid_specs():
    # the README's shift claim: every d with gcd(t, d) > 1, as given
    for s in range(3, 13):
        for t in range(3, 31):
            for d in range(1, t):
                if math.gcd(t, d) > 1:
                    yield BundleSpec(s, t, Shift(d))


def _reflection_sweep_specs():
    for s in range(3, 9):
        for t in range(3, 13):
            kinds = ("one",) if t % 2 else ("none", "two")
            for kind in kinds:
                yield BundleSpec(s, t, Reflection(kind))


def _run_sweep(specs):
    failures = []
    rows = 0
    for spec in specs:
        rows += 1
        expected = parity_pages(spec)
        try:
            res = embed(spec)
            assert isinstance(res, ConstructionResult)
            assert res.graph == bundle(spec)
            report = validate(res.graph, res.embedding)
            if not (report.ok and report.pages_used == expected == res.embedding.m):
                failures.append((format_bundle_spec(spec), report.pages_used, expected))
        except Exception as exc:  # any breakage is a sweep failure
            failures.append((format_bundle_spec(spec), "error", str(exc)))
    return rows, failures


def test_criterion_1_shift_sweep_under_a_minute(report):
    start = time.monotonic()
    rows, failures = _run_sweep(_shift_grid_specs())
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report(
        "criterion 1 shift sweep s=3..12 t=3..30, every d with gcd > 1",
        ok,
        f"rows={rows} failures={len(failures)} elapsed={elapsed:.1f}s",
    )
    assert ok, failures[:5]


def test_criterion_2_reflection_sweep(report):
    rows, failures = _run_sweep(_reflection_sweep_specs())
    ok = not failures
    report(
        "criterion 2 reflection sweep s=3..8 t=3..12",
        ok,
        f"rows={rows} failures={len(failures)}",
    )
    assert ok, failures[:5]


def test_criterion_3_circulant_reductions(report):
    failures = []
    red = to_circulant(5, 7, 3)
    if (red.n, red.jump) != (35, 10):
        failures.append(("anchor", red.n, red.jump))
    checked = 0
    for s in range(3, 11):
        for t in range(3, 11):
            for d in range(1, t):
                if math.gcd(t, d) != 1:
                    continue
                checked += 1
                r = to_circulant(s, t, d)
                src = bundle(BundleSpec(s, t, Shift(d)))
                if not check_isomorphism(src, r.target(), r.flat_map()):
                    failures.append((s, t, d))
    ok = not failures
    report(
        "criterion 3 coprime-shift circulant reductions s,t<=10",
        ok,
        f"checked={checked} failures={len(failures)}",
    )
    assert ok, failures[:5]


def test_criterion_4_decompositions_partition_the_sweeps(report):
    failures = []
    rows = 0
    for spec in list(_shift_sweep_specs()) + list(_reflection_sweep_specs()):
        rows += 1
        g = bundle(spec)
        fib = fiber_cycles(spec)
        res = residual_cycles(spec)
        if isinstance(spec.phi, Shift):
            gg = math.gcd(spec.t, spec.phi.d)
            shape_ok = len(res) == gg and all(len(c) == spec.s * spec.t // gg for c in res)
        else:
            expected_count = {
                "none": spec.t // 2,
                "two": spec.t // 2 + 1,
                "one": (spec.t + 1) // 2,
            }[spec.phi.kind]
            shape_ok = len(res) == expected_count
        fe = {e for c in fib for e in cycle_edges(c)}
        re_ = {e for c in res for e in cycle_edges(c)}
        partition_ok = fe.isdisjoint(re_) and (fe | re_) == g.edges
        if not (shape_ok and partition_ok):
            failures.append(format_bundle_spec(spec))
    ok = not failures
    report(
        "criterion 4 fiber+residual decompositions across both sweeps",
        ok,
        f"rows={rows} failures={len(failures)}",
    )
    assert ok, failures[:5]


def test_criterion_5_oracle_baselines(report):
    budgetless = []
    start = time.monotonic()
    r4 = brute_force_mbt(circulant(4, {1}))
    budgetless.append((r4.status, r4.value) == (EXACT, 2))
    r5 = brute_force_mbt(circulant(5, {1}))
    budgetless.append((r5.status, r5.value) == (EXACT, 3))
    g = circulant(9, {1, 3})
    four = search_fixed_pages(g, 4)
    budgetless.append(four.exhausted and not four.found)
    rg = brute_force_mbt(g)
    budgetless.append((rg.status, rg.value) == (EXACT, 5))
    budgetless.append(validate(g, rg.witness).ok)
    elapsed = time.monotonic() - start
    ok = all(budgetless) and elapsed < 600.0
    report(
        "criterion 5 oracle: C4=2, C5=3, C(9;1,3)=5 with 4 pages refuted",
        ok,
        f"orders_refuting_4_pages={four.counters['orders']:.0f} elapsed={elapsed:.1f}s",
    )
    assert ok, budgetless


def _random_small_graph(rng):
    kind = rng.choice(("cycle", "circulant", "bundle"))
    if kind == "cycle":
        return circulant(rng.randint(3, 8), {1}), None
    if kind == "circulant":
        n = rng.randint(5, 9)
        jumps = sorted(rng.sample(range(1, n // 2 + 1), rng.randint(1, 2)))
        return circulant(n, jumps), None
    s, t = rng.randint(3, 4), rng.randint(3, 4)
    if rng.random() < 0.5:
        spec = BundleSpec(s, t, Shift(rng.randint(0, t - 1)))
    else:
        kinds = ("one",) if t % 2 else ("none", "two")
        spec = BundleSpec(s, t, Reflection(rng.choice(kinds)))
    return bundle(spec), spec


def test_criterion_6_budgeted_runs_never_contradict(report):
    rng = random.Random(SEED)
    failures = []
    for i in range(200):
        g, spec = _random_small_graph(rng)
        budget = (
            SearchBudget(max_orders=5)
            if i % 2
            else SearchBudget(max_orders=50, max_nodes=2000)
        )
        res = brute_force_mbt(g, budget)
        lb = lower_bound(g)
        if res.status in (EXACT, LOWER_BOUND_ONLY) and res.value < lb:
            failures.append((i, "below bound", res.status, res.value, lb))
        if res.status == EXACT:
            if res.witness is not None and not validate(g, res.witness).ok:
                failures.append((i, "bad witness"))
            if spec is not None:
                want = 4 if predict_bipartite(spec) else 5
                if res.value != want:
                    failures.append((i, format_bundle_spec(spec), res.value, want))
    ok = not failures
    report(
        "criterion 6 two hundred budgeted searches vs the known bounds",
        ok,
        f"failures={len(failures)}",
    )
    assert ok, failures[:5]


def test_criterion_7_crossing_invariance_and_mutants(report):
    rng = random.Random(SEED)
    failures = []
    for i in range(1000):
        n = rng.randint(8, 40)
        a, b, c, d = rng.sample(range(n), 4)
        base = chords_cross(a, b, c, d)
        variants = [
            chords_cross(c, d, a, b),
            chords_cross(b, a, d, c),
            chords_cross((a + 7) % n, (b + 7) % n, (c + 7) % n, (d + 7) % n),
            chords_cross((n - a) % n, (n - b) % n, (n - c) % n, (n - d) % n),
        ]
        if any(v != base for v in variants):
            failures.append(("invariance", i, (n, a, b, c, d)))

    pool = [
        embed(spec)
        for spec in (
            BundleSpec(3, 6, Shift(2)),
            BundleSpec(4, 6, Shift(3)),
            BundleSpec(3, 9, Shift(3)),
            BundleSpec(5, 8, Reflection("none")),
            BundleSpec(4, 6, Reflection("two")),
            BundleSpec(4, 7, Reflection("one")),
        )
    ]
    for i in range(100):
        res = pool[rng.randrange(len(pool))]
        pages = dict(res.embedding.items())
        edges = sorted(pages)
        e = rng.choice(edges)
        f = rng.choice([x for x in edges if x != e and set(x) & set(e)])
        pages[e] = pages[f]
        mutant = embedding_of(res.embedding.order, pages, res.embedding.m)
        verdict = validate(res.graph, mutant)
        pair = (min(e, f), max(e, f), REASON_ENDPOINT)
        if verdict.ok or pair not in verdict.violations:
            failures.append(("mutant", i, e, f))
    ok = not failures
    report(
        "criterion 7 chord-test invariances and rejected mutants",
        ok,
        f"failures={len(failures)}",
    )
    assert ok, failures[:5]


def test_criterion_8_render_determinism(tmp_path, report):
    specs = [
        "s=6,t=10,phi=shift:4",
        "s=5,t=20,phi=shift:5",
        "s=5,t=12,phi=refl:none",
        "s=6,t=8,phi=refl:two",
        "s=8,t=10,phi=refl:none",
    ]
    failures = []
    for idx, text in enumerate(specs):
        out1 = tmp_path / f"a{idx}.svg"
        out2 = tmp_path / f"b{idx}.svg"
        code1 = cli.main(["render", text, "--out", str(out1)])
        code2 = cli.main(["render", text, "--out", str(out2)])
        if code1 != 0 or code2 != 0:
            failures.append((text, "exit", code1, code2))
            continue
        svg1, svg2 = out1.read_bytes(), out2.read_bytes()
        if svg1 != svg2:
            failures.append((text, "nondeterministic"))
            continue
        strokes = set()
        for line in svg1.decode().splitlines():
            if 'class="chord"' in line:
                strokes.add(line.split('stroke="')[1].split('"')[0])
        res = embed(parse_bundle_spec(text))
        if len(strokes) != res.embedding.m:
            failures.append((text, "palette", len(strokes), res.embedding.m))
    ok = not failures
    report(
        "criterion 8 deterministic renders use exactly the claimed pages",
        ok,
        f"specs={len(specs)} failures={len(failures)}",
    )
    assert ok, failures
