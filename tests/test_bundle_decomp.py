"""Cycle decompositions and the coprime-shift relabelling."""

import hashlib
import json
import math
import random

import pytest

from bookbind import cli
from bookbind.bundle_decomp import DecompositionError, odd_cycle, residual_cycles, to_circulant
from bookbind.graph_core import (
    BundleSpec,
    Reflection,
    Shift,
    bundle,
    circulant,
    make_edge,
    vertex_index,
)
from reference import cycle_edges, fiber_cycles, odd_cycle_fault


def _cycle_edges_in(dec, g):
    # every consecutive pair (wrapping) must be an edge of g
    for cyc in dec:
        for i, u in enumerate(cyc):
            assert make_edge(u, cyc[(i + 1) % len(cyc)]) in g.edges


def _edge_set(dec):
    return {e for cyc in dec for e in cycle_edges(cyc)}


def test_cycle_edges_in_traversal_order_closing_edge_last():
    assert cycle_edges((3, 1, 4, 2)) == [(1, 3), (1, 4), (2, 4), (2, 3)]


def test_fiber_cycles_rows():
    dec = fiber_cycles(BundleSpec(3, 4, Shift(1)))
    assert dec == (
        (0, 1, 2, 3),
        (4, 5, 6, 7),
        (8, 9, 10, 11),
    )


def test_shift_residual_frozen_small_case():
    dec = residual_cycles(BundleSpec(3, 6, Shift(2)))
    assert dec == (
        (0, 6, 12, 2, 8, 14, 4, 10, 16),
        (1, 7, 13, 3, 9, 15, 5, 11, 17),
    )


def test_shift_residual_counts_and_lengths():
    for s, t, d in ((3, 6, 2), (4, 8, 2), (5, 12, 3), (3, 9, 3), (4, 10, 5)):
        dec = residual_cycles(BundleSpec(s, t, Shift(d)))
        g = math.gcd(t, d)
        assert len(dec) == g
        assert all(len(c) == s * t // g for c in dec)
        _cycle_edges_in(dec, bundle(BundleSpec(s, t, Shift(d))))


def test_shift_residual_trivial_kind():
    # d = 0 is the general walk with gcd(t, 0) = t: one s-cycle per column
    dec = residual_cycles(BundleSpec(4, 5, Shift(0)))
    assert dec == tuple(
        tuple(vertex_index(p, q, 5) for p in range(4)) for q in range(5)
    )
    _cycle_edges_in(dec, bundle(BundleSpec(4, 5, Shift(0))))


def test_reflection_residual_counts():
    # swapped pair -> 2s-cycle, fixed column -> s-cycle
    dec = residual_cycles(BundleSpec(3, 6, Reflection("none")))
    assert len(dec) == 3 and all(len(c) == 6 for c in dec)

    dec = residual_cycles(BundleSpec(4, 6, Reflection("two")))
    assert len(dec) == 4
    assert sorted(len(c) for c in dec) == [4, 4, 8, 8]

    dec = residual_cycles(BundleSpec(3, 7, Reflection("one")))
    assert len(dec) == 4
    assert sorted(len(c) for c in dec) == [3, 6, 6, 6]


def test_reflection_residual_order_and_edges():
    for s, t, kind in ((3, 6, "none"), (4, 6, "two"), (3, 7, "one"), (4, 8, "none")):
        dec = residual_cycles(BundleSpec(s, t, Reflection(kind)))
        # cycles listed by ascending smallest column
        starts = [min(c) for c in dec]
        assert starts == sorted(starts)
        _cycle_edges_in(dec, bundle(BundleSpec(s, t, Reflection(kind))))


def test_fiber_and_residual_partition_bundle():
    rng = random.Random(3)
    specs = []
    for _ in range(25):
        s, t = rng.randint(3, 6), rng.randint(3, 9)
        if rng.random() < 0.5:
            specs.append(BundleSpec(s, t, Shift(rng.randint(0, t - 1))))
        else:
            kinds = ("one",) if t % 2 else ("none", "two")
            specs.append(BundleSpec(s, t, Reflection(rng.choice(kinds))))
    for spec in specs:
        g = bundle(spec)
        fib = _edge_set(fiber_cycles(spec))
        res = _edge_set(residual_cycles(spec))
        assert fib.isdisjoint(res), spec
        assert fib | res == g.edges, spec


def test_to_circulant_tiny_case_frozen():
    red = to_circulant(3, 3, 1)
    assert (red.n, red.jump) == (9, 3)
    assert red.labels == (
        (0, 0, 0),
        (0, 1, 6),
        (0, 2, 3),
        (1, 0, 8),
        (1, 1, 5),
        (1, 2, 2),
        (2, 0, 7),
        (2, 1, 4),
        (2, 2, 1),
    )
    assert red.target().edges == circulant(9, {1, 3}).edges


def test_to_circulant_five_by_seven():
    red = to_circulant(5, 7, 3)
    assert (red.n, red.jump) == (35, 10)
    # seam-first numbering puts the second fibre vertex ten steps along
    assert red.flat_map()[vertex_index(0, 1, 7)] == 10


def test_to_circulant_is_graph_isomorphism():
    rng = random.Random(5)
    cases = [(3, 3, 1), (5, 7, 3), (3, 4, 1), (4, 9, 2)]
    for _ in range(10):
        s, t = rng.randint(3, 8), rng.randint(3, 9)
        ds = [d for d in range(1, t) if math.gcd(t, d) == 1]
        cases.append((s, t, rng.choice(ds)))
    for s, t, d in cases:
        red = to_circulant(s, t, d)
        src = bundle(BundleSpec(s, t, Shift(d)))
        m = red.flat_map()
        assert sorted(m) == list(range(s * t))
        assert sorted(m.values()) == list(range(s * t))
        mapped = {make_edge(m[u], m[v]) for u, v in src.edges}
        assert mapped == red.target().edges, (s, t, d)


def test_to_circulant_jump_images():
    # rungs and seams land on jump 1; fibre edges on the stored jump
    s, t, d = 3, 10, 3
    red = to_circulant(s, t, d)
    m = {(p, q): lab for p, q, lab in red.labels}
    n = red.n
    for p in range(s - 1):
        diff = (m[(p, 0)] - m[(p + 1, 0)]) % n
        assert min(diff, n - diff) == 1
    seam = (m[(s - 1, 2)] - m[(0, (2 + d) % t)]) % n
    assert min(seam, n - seam) == 1
    fib = (m[(1, 4)] - m[(1, 5)]) % n
    assert min(fib, n - fib) == red.jump


def test_to_circulant_labels_come_sorted():
    # to_circulant lists labels in (p, q) order and relies on that being sorted
    for s in range(3, 11):
        for t in range(3, 25):
            for d in range(1, t):
                if math.gcd(t, d) == 1:
                    labels = to_circulant(s, t, d).labels
                    assert labels == tuple(sorted(labels)), (s, t, d)


def test_to_circulant_rejects_shared_factor():
    with pytest.raises(DecompositionError):
        to_circulant(3, 6, 2)
    with pytest.raises(DecompositionError):
        to_circulant(3, 6, 0)


def test_to_circulant_json_mentions_jump():
    red = to_circulant(3, 3, 1)
    assert '"jump": 3' in cli._dumps(red.to_payload())


def _walk_text(spec) -> str:
    text = json.dumps([list(cyc) for cyc in residual_cycles(spec)])
    if isinstance(spec.phi, Shift):
        try:
            text += " " + json.dumps(to_circulant(spec.s, spec.t, spec.phi.d).to_payload())
        except DecompositionError as exc:
            text += f" {exc}"
    return text


# sha256 of every spec's residual cycles on s = 3..10, t = 3..24, every shift
# d and every reflection kind, in that order; each shift also carries its
# circulant reduction's payload or the DecompositionError text: 2640 rows
WALK_DIGEST = "f1503b0b2f980aaf4c8cc2b744312ae92a0f010a2651af1ceeed093bc0a2dfbb"


def test_residual_walks_and_reductions_are_pinned():
    digest = hashlib.sha256()
    rows = 0
    for s in range(3, 11):
        for t in range(3, 25):
            phis = [Shift(d) for d in range(t)]
            phis += [Reflection(kind) for kind in (("one",) if t % 2 else ("none", "two"))]
            for phi in phis:
                digest.update(_walk_text(BundleSpec(s, t, phi)).encode() + b"\n")
                rows += 1
    assert rows == 2640
    assert digest.hexdigest() == WALK_DIGEST


def test_odd_cycle_frozen_small_cases():
    assert odd_cycle(BundleSpec(3, 6, Shift(2))) == (0, 6, 12, 2, 1)  # column 0, back 2
    assert odd_cycle(BundleSpec(4, 8, Shift(3))) == (0, 8, 16, 24, 3, 2, 1)
    assert odd_cycle(BundleSpec(4, 6, Reflection("none"))) == (2, 8, 14, 20, 3)  # column 2
    assert odd_cycle(BundleSpec(3, 8, Shift(0))) == (0, 8, 16)  # the column closes alone
    assert odd_cycle(BundleSpec(3, 5, Reflection("one"))) == (0, 1, 2, 3, 4)  # row 0
    assert odd_cycle(BundleSpec(4, 6, Shift(2))) is None


def test_odd_cycle_is_a_witness_exactly_for_nonbipartite_bundles():
    # s = 3..12, t = 3..30, every shift d (0 and the coprime ones included)
    # and every reflection kind: None exactly for a bipartite bundle by BFS,
    # else an odd closed walk below s + t along edges reference_decode names
    witnesses = rows = 0
    for s in range(3, 13):
        for t in range(3, 31):
            phis = [Shift(d) for d in range(t)]
            phis += [Reflection(kind) for kind in (("one",) if t % 2 else ("none", "two"))]
            for phi in phis:
                spec = BundleSpec(s, t, phi)
                walk = odd_cycle(spec)
                assert odd_cycle_fault(spec, walk) is None, (spec, walk)
                witnesses += walk is not None
                rows += 1
    assert (rows, witnesses) == (5040, 3710)
