"""Embed every spec of the wide plan grid and compare its pages with a pinned
digest.

Run from the repository root:

    PYTHONPATH=src python tests/page_digest.py

The specs are those of ``plan_digest.wide_specs()``: s = 3..24,
t = 3..60, every shift d with gcd(t, d) > 1 and every reflection kind,
16632 in all.  Each is embedded by ``constructions.embed`` (layout, page
rules, completion search and validation), and its rule tag and its pages
in edge-number order are hashed, one line per spec.  It exits 1 if the
count or the digest differs.  The digest pins the pages the completion
search gives, so that a closed-form replacement for the search can be
checked against them.

As it goes, it compares each spec with the one two rows smaller, the same
t and phi, by ``reference.row_pump``: deleting two interior rows of
embed(s + 2, t) must give embed(s, t) for s = 3..22.  The one known base
case is s = 3 on ``shift/gcd-odd/odd-residual``, where no spec pumps; each
of those must miss, and every other spec must pump.  It exits 1 unless the
pump counts match too.  This file is not a test module, so pytest does not
collect it.

The completion search recurses once per todo edge, deeper than the
default recursion limit on the larger specs, so the embedding runs in a
thread with a large stack and a raised limit; nothing else changes them.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time
from array import array

from bookbind.constructions import RULE_SHIFT_ODD_ODD_RESIDUAL, embed
from plan_digest import SPECS, wide_specs
from reference import row_pump

WIDE_PAGE_DIGEST = "c00d0a315589918becff0a799ddb152b18bb5cb9a5852e905f8a5ef97b9d9dc6"
PUMPED, BASE_MISSES = 14978, 142  # specs that pump, and base-case specs that do not

_STACK_BYTES = 256 << 20
_RECURSION_LIMIT = 100_000


def page_digest() -> tuple[int, str, int, int, int]:
    """The number of specs embedded, the sha256 of their lines, and the
    counts of specs that pump, of base-case specs that miss as they must,
    and of specs that break the rule."""

    digest = hashlib.sha256()
    specs = pumped = base_misses = faults = 0
    kept = {}  # (s, t, phi) -> (rule, pages, spine), held until s + 2 is reached
    for spec in wide_specs():
        res = embed(spec)
        pages = bytes(res.embedding.pages)
        digest.update(res.rule.encode() + b" " + pages + b"\n")
        specs += 1
        large = res.rule, pages, array("i", res.embedding.order)
        small = kept.pop((spec.s - 2, spec.t, spec.phi), None)
        kept[spec.s, spec.t, spec.phi] = large
        if small is None:
            continue
        pumps = row_pump(small, large, spec.t) is not None
        base_case = spec.s == 5 and res.rule == RULE_SHIFT_ODD_ODD_RESIDUAL
        if pumps == base_case:
            faults += 1
            print(f"{spec}: {'pumps' if pumps else 'does not pump'} from s = {spec.s - 2}", file=sys.stderr)
        else:
            pumped += pumps
            base_misses += base_case
    return specs, digest.hexdigest(), pumped, base_misses, faults


def main() -> int:
    started = time.perf_counter()
    result: list[tuple[int, str]] = []
    sys.setrecursionlimit(_RECURSION_LIMIT)
    threading.stack_size(_STACK_BYTES)
    worker = threading.Thread(target=lambda: result.append(page_digest()))
    worker.start()
    worker.join()
    if not result:  # the thread raised; its traceback is already printed
        return 1
    specs, got, pumped, base_misses, faults = result[0]
    print(f"{specs} specs in {time.perf_counter() - started:.1f} s, page digest {got}")
    print(f"{pumped} pump by two rows, {base_misses} base-case misses, {faults} faults")
    if (specs, got, pumped, base_misses, faults) != (SPECS, WIDE_PAGE_DIGEST, PUMPED, BASE_MISSES, 0):
        print(
            f"want {SPECS} specs, page digest {WIDE_PAGE_DIGEST},"
            f" {PUMPED} pumps, {BASE_MISSES} base-case misses, no fault",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
