"""Every spec's `embed` outcome, on random specs beyond the tier-1 grid.

Two outcomes partition the specs: Unsupported (trivial and coprime shifts;
a coprime shift's circulant reduction is checked against the graph as
given), and a valid embedding of ``bundle(spec)``, d as given, at the
parity page count.  Specs stay at n = s*t <= 900: a todo list much longer
than that exceeds Python's recursion limit in the recursive completion
search, a known defect that `test_e4k_embed_completes` shows.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bookbind.constructions import (  # noqa: E402
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
    predict_bipartite,
)
from bookbind.oracle import check_isomorphism, lower_bound  # noqa: E402
from reference import is_bipartite  # noqa: E402


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
@example(BundleSpec(3, 15, Shift(6)))  # the smallest nonbipartite odd-gcd shift with d > g
@example(BundleSpec(5, 8, Shift(6)))  # d > t/2, laid out as given
def test_embed_outcome_partition(spec):
    d = spec.phi.d if isinstance(spec.phi, Shift) else None
    if d is not None and (d == 0 or gcd(spec.t, d) == 1):
        with pytest.raises(Unsupported) as info:
            embed(spec)
        if d:  # the reduction is of the graph as drawn
            red = info.value.reduction
            assert check_isomorphism(bundle(spec), red.target(), red.flat_map())
        return
    res = embed(spec)
    assert isinstance(res, ConstructionResult) and res.report.ok
    assert res.graph == bundle(spec)
    assert res.embedding.m == res.report.pages_used == parity_pages(spec) == lower_bound(res.graph)
    assert predict_bipartite(spec) == is_bipartite(res.graph)
