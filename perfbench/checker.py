"""Independent output checks for the benchmark.

Nothing here imports bookbind: the graphs, the parity law (by BFS
2-colouring), the rule tags, the sweep enumeration and the embedding check
are the benchmark's own code, so a defect in bookbind's validator cannot
hide a wrong answer.  Vertices use bookbind's flat ids ``p * t + q``.
"""

from __future__ import annotations

from collections import deque
from math import gcd

Edge = tuple[int, int]


def parse_spec(text: str) -> tuple[int, int, str, str]:
    """``s=S,t=T,phi=shift:D`` or ``...,phi=refl:KIND`` -> (s, t, family, arg)."""

    fields = dict(chunk.split("=", 1) for chunk in text.split(","))
    family, arg = fields["phi"].split(":", 1)
    return int(fields["s"]), int(fields["t"]), family, arg


def format_spec(s: int, t: int, family: str, arg: str) -> str:
    return f"s={s},t={t},phi={family}:{arg}"


def _glue(q: int, t: int, family: str, arg: str) -> int:
    if family == "shift":
        return (q + int(arg)) % t
    if arg == "two":
        return (t - q) % t
    return t - 1 - q  # "none" (t even) and "one" (t odd)


def bundle_edges(s: int, t: int, family: str, arg: str) -> frozenset[Edge]:
    """Edge set of the twisted torus: fibre cycles, rungs, and the glued seam."""

    edges = set()

    def add(u: int, v: int) -> None:
        edges.add((u, v) if u < v else (v, u))

    for p in range(s):
        for q in range(t):
            add(p * t + q, p * t + (q + 1) % t)
            if p < s - 1:
                add(p * t + q, (p + 1) * t + q)
    for q in range(t):
        add((s - 1) * t + q, _glue(q, t, family, arg))
    return frozenset(edges)


def is_bipartite(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [-1] * n
    for root in range(n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if side[v] < 0:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def parity_pages(s: int, t: int, family: str, arg: str) -> int:
    """Page count the paper's parity law asks for: 4 if bipartite, else 5."""

    return 4 if is_bipartite(s * t, bundle_edges(s, t, family, arg)) else 5


def rule_tag(s: int, t: int, family: str, arg: str) -> str:
    """The construction family a spec belongs to (bookbind's rule tags)."""

    if family == "refl":
        kind = {"none": "no", "one": "one", "two": "two"}[arg]
        return f"reflection/base-{'odd' if s % 2 else 'even'}/{kind}-fixed"
    d = int(arg)
    d = min(d, t - d)
    g = gcd(t, d)
    if g % 2 == 0:
        return "shift/gcd-even"
    if t % 2 == 0 and s % 2 == d % 2:
        return "shift/gcd-odd/bipartite"
    return f"shift/gcd-odd/{'even' if (s * t // g) % 2 == 0 else 'odd'}-residual"


def odd_gcd_d_above_g(spec: str) -> bool:
    """A nonbipartite shift with odd g = gcd(t, d) > 1 and d > g.

    ROADMAP item 1's family: the seed fails on these rows.
    """

    s, t, family, arg = parse_spec(spec)
    if family != "shift":
        return False
    d = min(int(arg), t - int(arg))
    g = gcd(t, d)
    bipartite = t % 2 == 0 and s % 2 == d % 2
    return g % 2 == 1 and g > 1 and d > g and not bipartite


RULE_TAGS = (
    "shift/gcd-even",
    "shift/gcd-odd/bipartite",
    "shift/gcd-odd/even-residual",
    "shift/gcd-odd/odd-residual",
    "reflection/base-odd/no-fixed",
    "reflection/base-odd/one-fixed",
    "reflection/base-odd/two-fixed",
    "reflection/base-even/two-fixed",
    "reflection/base-even/one-fixed",
    "reflection/base-even/no-fixed",
)


def sweep_specs(family: str, s: int, t: int) -> list[str]:
    """Rows one ``bookbind sweep`` cell must print, in order.

    Shifts: every d <= t/2 with gcd(t, d) > 1.  Reflections: the kinds the
    parity of t allows.
    """

    if family == "shift":
        return [format_spec(s, t, "shift", str(d)) for d in range(1, t // 2 + 1) if gcd(t, d) > 1]
    kinds = ("one",) if t % 2 else ("none", "two")
    return [format_spec(s, t, "refl", kind) for kind in kinds]


def check_embedding(spec: str, payload: dict) -> list[str]:
    """Problems with an embedding payload ``{order, pages, m}``; [] if valid.

    Checks coverage of the graph, that every page is a matching, that the
    chords of every page nest (one stack pass per page), and that the page
    count meets the parity law.
    """

    s, t, family, arg = parse_spec(spec)
    n = s * t
    edges = bundle_edges(s, t, family, arg)
    order = [int(v) for v in payload["order"]]
    if sorted(order) != list(range(n)):
        return ["spine order is not a permutation of the vertices"]
    pages: dict[Edge, int] = {}
    for u, v, p in payload["pages"]:
        pages[(min(u, v), max(u, v))] = int(p)
    if set(pages) != edges or len(payload["pages"]) != len(edges):
        return ["page map does not cover exactly the graph's edges"]
    problems = []
    pos = {v: i for i, v in enumerate(order)}
    by_page: dict[int, list[Edge]] = {}
    for e, p in pages.items():
        by_page.setdefault(p, []).append(e)
    for p, page_edges in sorted(by_page.items()):
        at: list[Edge | None] = [None] * n  # the page's chord at each spine position
        clash = None
        for e in page_edges:
            for v in e:
                if at[pos[v]] is not None:
                    clash = v
                at[pos[v]] = e
        if clash is not None:
            problems.append(f"page {p} is not a matching at vertex {clash}")
            continue
        stack: list[Edge] = []
        opened: set[Edge] = set()
        for chord in at:
            if chord is None:
                continue
            if chord not in opened:
                opened.add(chord)
                stack.append(chord)
            elif stack[-1] == chord:
                stack.pop()
            else:
                problems.append(f"page {p}: chord {chord} crosses {stack[-1]}")
                break
    want = 4 if is_bipartite(n, edges) else 5
    if len(by_page) != want or int(payload["m"]) != want:
        problems.append(f"uses {len(by_page)} pages (m={payload['m']}), parity law says {want}")
    return problems


def flip_violations(
    order: list[int], pages: dict[Edge, int], flipped: Edge
) -> list[list]:
    """Violation list ``verify`` must print once ``flipped`` moved pages.

    The rest of the embedding is valid, so every violation pairs the flipped
    edge with an edge of its new page; listed as bookbind prints them,
    ``[[u, v], [x, y], reason]`` with the smaller edge first, sorted.
    """

    pos = {v: i for i, v in enumerate(order)}
    a, b = sorted((pos[flipped[0]], pos[flipped[1]]))
    out = []
    for f, p in pages.items():
        if p != pages[flipped] or f == flipped:
            continue
        if set(f) & set(flipped):
            why = "shared-endpoint"
        else:
            c, d = sorted((pos[f[0]], pos[f[1]]))
            if not (a < c < b < d or c < a < d < b):
                continue
            why = "crossing"
        first, second = sorted((flipped, f))
        out.append((first, second, why))
    out.sort()
    return [[list(e), list(f), why] for e, f, why in out]
