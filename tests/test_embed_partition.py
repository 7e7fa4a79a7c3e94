"""Every spec's `embed` outcome, on random specs beyond the tier-1 grid.

Three outcomes partition the specs: Unsupported (trivial and coprime
shifts, whose circulant reduction is checked), CompletionError (exactly
the nonbipartite shifts with odd g = gcd(t, d) > 1 and d > g, whose
closed-form page table is known to be wrong), and a valid embedding at the
parity page count.  Specs stay at n = s*t <= 900: a todo list much longer
than that exceeds Python's recursion limit in the recursive completion
search, a known defect that `test_e4k_embed_completes` shows.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bookbind.constructions import (  # noqa: E402
    CompletionError,
    ConstructionResult,
    Unsupported,
    embed,
    parity_pages,
)
from bookbind.graph_core import (  # noqa: E402
    BundleSpec,
    Reflection,
    Shift,
    bundle,
    is_bipartite,
    normalize_shift,
    predict_bipartite,
)
from bookbind.oracle import check_isomorphism, lower_bound  # noqa: E402


@st.composite
def specs(draw, max_n=900):
    s = draw(st.integers(3, max_n // 3))
    t = draw(st.integers(3, max_n // s))
    kinds = ("one",) if t % 2 else ("none", "two")
    shifts = st.builds(Shift, st.integers(0, t - 1))
    phi = draw(st.one_of(shifts, st.sampled_from(kinds).map(Reflection)))
    return BundleSpec(s, t, phi)


@settings(max_examples=200)
@given(specs())
@example(BundleSpec(29, 31, Reflection("one")))  # the longest todo list, 899 edges
@example(BundleSpec(3, 15, Shift(6)))  # the smallest odd-gcd failure
def test_embed_outcome_partition(spec):
    norm = normalize_shift(spec)
    d = norm.phi.d if isinstance(norm.phi, Shift) else None
    g = None if d is None else gcd(spec.t, d)
    if d is not None and (d == 0 or g == 1):
        out = embed(spec)
        assert isinstance(out, Unsupported)
        if d:
            red = out.reduction
            assert check_isomorphism(bundle(norm), red.target(), red.flat_map())
        return
    if g is not None and g % 2 == 1 and not predict_bipartite(norm) and d > g:
        with pytest.raises(CompletionError):
            embed(spec)
        return
    res = embed(spec)
    assert isinstance(res, ConstructionResult) and res.report.ok
    assert res.embedding.m == res.report.pages_used == parity_pages(norm) == lower_bound(res.graph)
    assert predict_bipartite(norm) == is_bipartite(res.graph)
