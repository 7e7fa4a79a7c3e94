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
checked against them.  This file is not a test module, so pytest does not
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

from bookbind.constructions import embed
from plan_digest import SPECS, wide_specs

WIDE_PAGE_DIGEST = "c00d0a315589918becff0a799ddb152b18bb5cb9a5852e905f8a5ef97b9d9dc6"

_STACK_BYTES = 256 << 20
_RECURSION_LIMIT = 100_000


def page_digest() -> tuple[int, str]:
    """The number of specs embedded and the sha256 of their lines."""

    digest = hashlib.sha256()
    specs = 0
    for spec in wide_specs():
        res = embed(spec)
        digest.update(res.rule.encode() + b" " + bytes(res.embedding.pages) + b"\n")
        specs += 1
    return specs, digest.hexdigest()


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
    specs, got = result[0]
    print(f"{specs} specs in {time.perf_counter() - started:.1f} s, page digest {got}")
    if (specs, got) != (SPECS, WIDE_PAGE_DIGEST):
        print(f"want {SPECS} specs, page digest {WIDE_PAGE_DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
