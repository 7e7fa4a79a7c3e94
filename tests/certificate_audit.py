"""Check ``bundle_decomp.odd_cycle``'s witness on a wide grid.

Run from the repository root:

    PYTHONPATH=src python tests/certificate_audit.py

The grid is s = 3..24, t = 3..60: for each (s, t), every shift d in 0..t-1,
then each reflection kind (``one`` for odd t, ``none`` and ``two`` for even
t), 42108 specs in all.  Each witness is checked by
``reference.odd_cycle_fault``: None exactly when ``bundle(spec)`` is
bipartite by a plain BFS, else a closed walk of odd length below s + t
along edges that ``reference_decode`` names.  It prints the counts and
exits 1 on any miss or if the counts differ.  Tier-1 checks s = 3..12,
t = 3..30; this file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import time

from bookbind.bundle_decomp import odd_cycle
from bookbind.graph_core import BundleSpec, Reflection, Shift
from reference import odd_cycle_fault

WITNESSES, BIPARTITE = 31262, 10846


def wide_specs():
    for s in range(3, 25):
        for t in range(3, 61):
            kinds = ("one",) if t % 2 else ("none", "two")
            yield from (BundleSpec(s, t, Shift(d)) for d in range(t))
            yield from (BundleSpec(s, t, Reflection(kind)) for kind in kinds)


def main() -> int:
    started = time.perf_counter()
    witnesses = bipartite = misses = 0
    for spec in wide_specs():
        walk = odd_cycle(spec)
        fault = odd_cycle_fault(spec, walk)
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
