"""Check the edge numbering and ``bundle_decomp.odd_cycle``'s witness on a
wide grid.

Run from the repository root:

    PYTHONPATH=src python tests/certificate_audit.py

The grid is s = 3..24, t = 3..60: for each (s, t), every shift d in 0..t-1,
then each reflection kind (``one`` for odd t, ``none`` and ``two`` for even
t), 42108 specs in all.  Each spec's edges are decoded once by
``reference.reference_decode``, which states phi itself.  ``numbering_fault``
checks ``graph_core.Numbering`` against them: its ``edges`` must be that
list in number order, its ``keys()`` their keys ``u * n + v``, and each
residual cycle's rungs ``edges[2v + 1]`` must close the cycle in walk order.
Each witness is checked by ``reference.odd_cycle_fault``: None exactly when
``bundle(spec)`` is bipartite by a plain BFS, else a closed walk of odd
length below s + t along decoded edges.  It prints the counts and exits 1
on any miss or if the counts differ.  Tier-1 checks the numbering on
s = 3..10, t = 3..24 and the witness on s = 3..12, t = 3..30; this file is
not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import time
from itertools import zip_longest

from bookbind.bundle_decomp import odd_cycle, residual_cycles
from bookbind.graph_core import BundleSpec, Numbering, Reflection, Shift
from reference import cycle_edges, odd_cycle_fault, reference_decode

WITNESSES, BIPARTITE = 31262, 10846


def wide_specs():
    for s in range(3, 25):
        for t in range(3, 61):
            kinds = ("one",) if t % 2 else ("none", "two")
            yield from (BundleSpec(s, t, Shift(d)) for d in range(t))
            yield from (BundleSpec(s, t, Reflection(kind)) for kind in kinds)


def numbering_fault(spec: BundleSpec, decoded: list) -> str | None:
    """What is wrong with ``Numbering(spec)`` against ``decoded``, the edges
    ``reference_decode`` names in number order, or None."""

    num = Numbering(spec)
    n = spec.s * spec.t
    if num.edges != tuple(decoded):
        pairs = enumerate(zip_longest(num.edges, decoded))
        k, (got, want) = next((k, pair) for k, pair in pairs if pair[0] != pair[1])
        return f"edge {k} is {got}, want {want}"
    if num.keys() != {u * n + v for u, v in decoded}:
        return "keys() differs from the decoded edges' keys"
    for cyc in residual_cycles(spec):
        if [num.edges[2 * v + 1] for v in cyc] != cycle_edges(cyc):
            return f"the rungs of the residual cycle through {cyc[0]} do not close it in walk order"
    return None


def main() -> int:
    started = time.perf_counter()
    witnesses = bipartite = misses = 0
    for spec in wide_specs():
        decoded = [reference_decode(spec, k) for k in range(2 * spec.s * spec.t)]
        walk = odd_cycle(spec)
        fault = numbering_fault(spec, decoded) or odd_cycle_fault(spec, walk, set(decoded))
        if fault is not None:
            misses += 1
            print(f"{spec}: {fault}", file=sys.stderr)
        elif walk is None:
            bipartite += 1
        else:
            witnesses += 1
    print(
        f"{witnesses} witnesses, {bipartite} None, {misses} misses"
        f" in {time.perf_counter() - started:.1f} s"
    )
    if misses or (witnesses, bipartite) != (WITNESSES, BIPARTITE):
        print(f"want {WITNESSES} witnesses, {BIPARTITE} None, no miss", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
