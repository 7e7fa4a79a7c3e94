"""Hash every layout's plan on a wide grid and compare with a pinned digest.

Run from the repository root:

    PYTHONPATH=src python tests/plan_digest.py

The grid is s = 3..24, t = 3..60: for each (s, t), every shift d in 1..t-1
with gcd(t, d) > 1, then each reflection kind (``one`` for odd t, ``none``
and ``two`` for even t), 16632 specs in all.  Each plan (rule tag, spine,
fixed list in order, todo list in order) is written by
``reference.plan_text`` and hashed, one line per spec.  It exits 1 if the
count or the digest differs.  Tier-1's ``PLAN_DIGEST`` covers the sweep
grid only; this file is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time

from bookbind.constructions import _select
from bookbind.graph_core import BundleSpec, Numbering, Reflection, Shift
from reference import plan_text

SPECS = 16632
WIDE_PLAN_DIGEST = "2b9c892da1ab9a031b44eb9226c83d637f32f0de810dd4d6449efb9aacb9e9e3"


def wide_specs():
    for s in range(3, 25):
        for t in range(3, 61):
            kinds = ("one",) if t % 2 else ("none", "two")
            yield from (BundleSpec(s, t, Shift(d)) for d in range(1, t) if math.gcd(t, d) > 1)
            yield from (BundleSpec(s, t, Reflection(kind)) for kind in kinds)


def main() -> int:
    started = time.perf_counter()
    digest = hashlib.sha256()
    specs = 0
    for spec in wide_specs():
        rule, layout = _select(spec)
        num = Numbering(spec)
        digest.update(plan_text(rule, num, layout(num)).encode() + b"\n")
        specs += 1
    got = digest.hexdigest()
    print(f"{specs} specs in {time.perf_counter() - started:.1f} s, plan digest {got}")
    if (specs, got) != (SPECS, WIDE_PLAN_DIGEST):
        print(f"want {SPECS} specs, plan digest {WIDE_PLAN_DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
