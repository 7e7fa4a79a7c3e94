"""Optimal matching book embeddings for twisted tori.

Each supported parameter family is one rule: a rule tag plus a layout
function ``(cat, spec) -> (spine, fixed, todo)`` that returns the family's
spine order, the edges with a closed-form page (in placement order), and the
edges that only have a palette prescribed ("finish this cycle with these
pages").  A layout is written as data: its spine is one ``_zigzag`` of
named blocks (rows, columns, residual cycles or column pairs, every other
block reversed), its fibre pages are one rule ``page_of(row, column)``
handed to ``SequenceCatalog.fibres``, its rung and seam pages are explicit
lists, and palettes cover the rest.  ``_select`` maps a normalised spec to
its ``(rule tag, layout)`` pair; coprime and trivial shifts have no rule and
come back as Unsupported.

``embed`` is the one driver.  It decides the page count first, by
``parity_pages(spec)``: 4 when the graph is bipartite and 5 otherwise, which
meets the lower bound (4-regularity, plus the parity obstruction for
nonbipartite regular graphs), so every produced embedding is optimal.  It
then checks the plan once (``_check_plan``), places the fixed edges,
completes the todo list by a small backtracking search within each edge's
palette, and validates the result once; a faulty plan, placement, completion
or validation raises instead of silently substituting pages.

Placement never compares a chord with every chord on its page: each page
keeps an index over spine positions (``_PageAssigner``), so a test walks
only the new chord's own span and jumps over the chords nested inside it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from math import gcd

from .bundle_decomp import (
    CirculantReduction,
    cycle_edges,
    reflection_residual_cycles,
    shift_residual_cycles,
    to_circulant,
)
from .graph_core import (
    BundleSpec,
    Edge,
    Graph,
    REFL_NONE,
    REFL_ONE,
    REFL_TWO,
    Shift,
    bundle,
    make_edge,
    normalize_shift,
    predict_bipartite,
)
from .layout_engine import (
    BLUE,
    BookEmbedding,
    GREEN,
    PURPLE,
    RED,
    ValidationReport,
    YELLOW,
    validate,
)

RULE_SHIFT_EVEN_GCD = "shift/gcd-even"
RULE_SHIFT_ODD_BIPARTITE = "shift/gcd-odd/bipartite"
RULE_SHIFT_ODD_EVEN_RESIDUAL = "shift/gcd-odd/even-residual"
RULE_SHIFT_ODD_ODD_RESIDUAL = "shift/gcd-odd/odd-residual"
RULE_REFL_BASE_ODD = "reflection/base-odd/"
RULE_REFL_BASE_EVEN = "reflection/base-even/"

_FIXED_SUFFIX = {REFL_NONE: "no-fixed", REFL_ONE: "one-fixed", REFL_TWO: "two-fixed"}


class CompletionError(RuntimeError):
    """A layout's plan is faulty or cannot be realised; carries the rule tag."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


@dataclass
class Unsupported:
    """No construction for this spec; coprime shifts carry their reduction."""

    reason: str
    reduction: CirculantReduction | None = None


@dataclass
class ConstructionResult:
    spec: BundleSpec  # normalized spec actually embedded
    graph: Graph
    embedding: BookEmbedding  # its m is the page count, checked against the report
    rule: str
    report: ValidationReport  # the one validation made at build time


def parity_pages(spec: BundleSpec) -> int:
    """Optimal page count by the parity law: 4 if bipartite, else 5."""

    return 4 if predict_bipartite(spec) else 5


class SequenceCatalog:
    """Named vertex sequences (rows, columns) and edges in flat ids.

    Arguments use 1-based row/column indices and wrap modulo s and t, so
    formulas like column ``1 - d`` can be used verbatim.
    """

    def __init__(self, s: int, t: int):
        self.s = s
        self.t = t

    def flat(self, i: int, j: int) -> int:
        return ((i - 1) % self.s) * self.t + ((j - 1) % self.t)

    def col(self, j: int) -> int:
        return ((j - 1) % self.t) + 1

    def edge(self, i1: int, j1: int, i2: int, j2: int) -> Edge:
        return make_edge(self.flat(i1, j1), self.flat(i2, j2))

    def fiber_edge(self, i: int, j: int) -> Edge:
        """The fibre edge leaving (i, j) toward column j+1."""

        return self.edge(i, j, i, j + 1)

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.flat(i, j) for j in range(1, self.t + 1))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.flat(i, j) for i in range(1, self.s + 1))

    def fibres(self, page_of: Callable[[int, int], int]) -> list[Fixed]:
        """Every fibre edge with page ``page_of(i, j)`` of its tail, row by row."""

        return [
            (self.fiber_edge(i, j), page_of(i, j))
            for i in range(1, self.s + 1)
            for j in range(1, self.t + 1)
        ]


def _zigzag(blocks: Iterable[Sequence[int]], first_reversed: bool = False) -> list[int]:
    """The blocks end to end, every other one reversed (the first iff asked)."""

    spine: list[int] = []
    for k, block in enumerate(blocks):
        spine.extend(reversed(block) if (k % 2 == 0) == first_reversed else block)
    return spine


Todo = tuple[Edge, tuple[int, ...]]
Fixed = tuple[Edge, int]
Plan = tuple[list[int], list[Fixed], list[Todo]]  # spine, fixed pages, palettes
Layout = Callable[[SequenceCatalog, BundleSpec], Plan]

_NODE_CAP = 200_000  # search nodes one completion may visit


def _check_plan(graph: Graph, plan: Plan, m: int, rule: str) -> None:
    """The one check of a plan: a spine of every vertex once, every edge
    (canonical) fixed or todo exactly once, and every page named below m."""

    spine, fixed, todo = plan
    if sorted(spine) != list(range(graph.n)):
        raise CompletionError(rule, "spine is not a permutation of the vertices")
    listed = [e for e, _ in fixed] + [e for e, _ in todo]
    named = {p for _, p in fixed}.union(*[palette for _, palette in todo])
    exact = len(listed) == len(graph.edges) == len(graph.edges.intersection(listed))
    if exact and named <= set(range(m)):
        return
    count = Counter(listed)  # the plan is faulty: name up to four offenders
    pages = chain(fixed, ((e, p) for e, palette in todo for p in palette))
    for fault, offenders in (
        ("not edges of the graph", sorted(count.keys() - graph.edges)),
        ("listed twice", [e for e, k in count.items() if k > 1]),
        ("missing from the plan", sorted(graph.edges - count.keys())),
        (f"pages outside 0..{m - 1}", [(e, p) for e, p in pages if not 0 <= p < m]),
    ):
        if offenders:
            raise CompletionError(rule, f"{fault}: {offenders[:4]}")


class _PageAssigner:
    """Incremental page assignment with properness/crossing enforcement.

    Each page keeps an index over spine positions: ``partner[page][k]`` is -1
    while position k is free on that page, else the position of the other
    end of the chord placed there.  A chord (a, b) fits a page when both
    ends are free and a walk from a+1 to b-1, jumping over every chord
    nested inside, meets no chord that leaves (a, b).
    """

    def __init__(self, spine: Sequence[int], m: int, rule: str):
        self.rule = rule
        self.pos = sorted(range(len(spine)), key=spine.__getitem__)  # pos[v]: v's place
        self.pages: dict[Edge, int] = {}
        self.partner = [[-1] * len(spine) for _ in range(m)]

    def _conflicts(self, e: Edge, page: int) -> bool:
        partner = self.partner[page]
        a, b = self.pos[e[0]], self.pos[e[1]]
        if a > b:
            a, b = b, a
        if partner[a] != -1 or partner[b] != -1:
            return True
        k = a + 1
        while k < b:
            q = partner[k]
            if q == -1:
                k += 1
            elif k < q < b:
                k = q + 1
            else:
                return True
        return False

    def _place(self, e: Edge, page: int) -> None:
        partner = self.partner[page]
        a, b = self.pos[e[0]], self.pos[e[1]]
        partner[a], partner[b] = b, a
        self.pages[e] = page

    def _unplace(self, e: Edge) -> None:
        partner = self.partner[self.pages.pop(e)]
        partner[self.pos[e[0]]] = partner[self.pos[e[1]]] = -1

    def assign(self, e: Edge, page: int) -> None:
        if self._conflicts(e, page):
            raise CompletionError(self.rule, f"{e} on page {page} conflicts")
        self._place(e, page)

    def complete(self, todo: list[Todo]) -> None:
        """Depth-first completion of `todo` in order, palettes as given."""

        self._nodes = 0
        if not self._search(todo, 0):
            raise CompletionError(self.rule, "no completion within the given palette")

    def _search(self, todo: list[Todo], i: int) -> bool:
        # a method, not a closure over itself: a self-referencing closure is
        # a reference cycle that keeps the whole assignment alive until the
        # garbage collector runs
        if i == len(todo):
            return True
        self._nodes += 1
        if self._nodes > _NODE_CAP:
            raise CompletionError(self.rule, f"completion exceeded {_NODE_CAP} nodes")
        e, palette = todo[i]
        for page in palette:
            if self._conflicts(e, page):
                continue
            self._place(e, page)
            if self._search(todo, i + 1):
                return True
            self._unplace(e)
        return False


# ---------------------------------------------------------------- shifts ---


def _shift_even_gcd(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Shift gluing with gcd(t, d) even: residual cycles end to end."""

    s, t, d = spec.s, spec.t, spec.phi.d
    g_ = gcd(t, d)
    V = shift_residual_cycles(s, t, d)
    vg_pos = {v: idx for idx, v in enumerate(V[g_ - 1])}
    pivot = vg_pos[cat.flat(1, t)]

    def fibre_page(i: int, j: int) -> int:  # keyed by the column class of the tail
        k = (j - 1) % g_ + 1
        if k % 2 == 1:
            return YELLOW
        if k < g_:
            return PURPLE
        return PURPLE if vg_pos[cat.flat(i, j)] < pivot else GREEN

    # one red seam per residual cycle (its closing edge), then finish each
    # cycle path within the stated palette
    cycles = [cycle_edges(cyc) for cyc in V]
    fixed = cat.fibres(fibre_page) + [(edges[-1], RED) for edges in cycles]
    palette = (RED, GREEN, PURPLE) if s % 2 == 0 else (RED, GREEN, BLUE)
    todo = [(e, palette) for edges in cycles for e in edges[:-1]]
    return _zigzag(V), fixed, todo


def _shift_odd_bipartite(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """t even, s and d odd: columns paired from both ends."""

    s, t, d = spec.s, spec.t, spec.phi.d
    spine = _zigzag(cat.column(j) for r in range(t // 2) for j in (1 + 2 * r, t - 2 * r))
    fixed = cat.fibres(lambda i, j: YELLOW if j % 2 == 0 else GREEN)
    fixed += [(cat.edge(1, j, s, j - d), RED if j % 2 == 1 else PURPLE) for j in range(1, t + 1)]
    todo = [(e, (RED, PURPLE)) for j in range(1, t + 1) for e in cycle_edges(cat.column(j))[:-1]]
    return spine, fixed, todo


def _fiber_page_odd_gcd(
    cat: SequenceCatalog, g_: int, i: int, j: int, even_residual: bool, s: int, d: int
) -> int:
    """Fibre-edge page for the nonbipartite odd-gcd case, tail (i, j)."""

    t = cat.t
    k = (j - 1) % g_ + 1
    if even_residual:
        if k % 2 == 0:
            return GREEN
        if k == 1:
            return YELLOW if j == 1 else PURPLE
        if k == g_:
            return PURPLE if j == t else YELLOW
        return YELLOW
    # For g = 3 the blue fibre edge below would end on (s, 3-d), which is
    # also the endpoint of the blue closing seam of the last residual
    # cycle; when d = 3 that vertex is (s, t) and yellow is the unique
    # proper repair.  (For g = 3 with d > 3 no single-edge recolouring
    # exists and the completion fails loudly.)
    special = {
        (s, cat.col(2 - d)): YELLOW if g_ == 3 and d == 3 else BLUE,
        (2, 1): BLUE,
        (s, cat.col(1 - d)): GREEN,
        (1, 1): PURPLE,
        (s - 1, cat.col(1 - d)): RED,
        (1, t): RED,
    }
    if (i, j) in special:
        return special[(i, j)]
    if j == t:
        return PURPLE  # rows >= 2; row 1 is special above
    if j == 1:
        return YELLOW  # rows >= 3; rows 1, 2 special above
    if k % 2 == 0:
        return GREEN
    if k == 1:
        return PURPLE
    return YELLOW  # odd middle classes and the k = g_ class off column t


def _shift_odd_nonbipartite(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """gcd(t, d) odd, graph nonbipartite: interleaved spine, 5 pages."""

    s, t, d = spec.s, spec.t, spec.phi.d
    g_ = gcd(t, d)
    V = shift_residual_cycles(s, t, d)
    even_residual = len(V[0]) % 2 == 0

    # the first two cycles interleaved element by element, then the others
    spine = _zigzag(zip(V[0], V[1])) + _zigzag(V[2:], first_reversed=True)
    fixed = cat.fibres(lambda i, j: _fiber_page_odd_gcd(cat, g_, i, j, even_residual, s, d))

    # first two residual cycles: fully explicit alternations
    for k in (1, 2):
        edges = cycle_edges(V[k - 1])
        L = len(edges)
        for idx, e in enumerate(edges, start=1):
            if even_residual:
                page = RED if idx % 2 == 1 else BLUE
            elif idx == 1:
                page = YELLOW
            elif idx == L - 1:
                page = PURPLE
            elif idx == L:
                page = BLUE if k == 1 else RED
            else:
                page = RED if idx % 2 == 0 else BLUE
            fixed.append((e, page))

    # middle residual cycles, whole cycle searched
    todo = [(e, (RED, PURPLE, BLUE)) for k in range(3, g_) for e in cycle_edges(V[k - 1])]

    # last residual cycle: blue closing seam, yellow/red on the column-t
    # rung ladder, purple/red elsewhere
    Vg = V[g_ - 1]
    T = t // g_
    l_t = next(l for l in range(T) if (g_ - 1 + l * d) % t == t - 1)
    ladder = range(l_t * s + 1, l_t * s + s)  # 1-based path-edge indices in column t
    *path, closing = cycle_edges(Vg)
    fixed.append((closing, BLUE))
    for idx, e in enumerate(path, start=1):
        todo.append((e, (YELLOW, RED) if idx in ladder else (PURPLE, RED)))
    return spine, fixed, todo


# ----------------------------------------------------------- reflections ---


def _refl_base_odd(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Reflection gluing over an odd base: rows zig-zag along the spine."""

    s, t, kind = spec.s, spec.t, spec.phi.kind
    spine = _zigzag((cat.row(i) for i in range(1, s + 1)), first_reversed=True)

    fixed: list[Fixed] = [
        (cat.edge(i, j, i + 1, j), YELLOW if i % 2 == 1 else GREEN)
        for i in range(1, s)
        for j in range(1, t + 1)
    ]
    if kind in (REFL_NONE, REFL_ONE):
        fixed += [(cat.edge(s, i, 1, t + 1 - i), PURPLE) for i in range(1, t + 1)]
    else:
        fixed.append((cat.edge(1, 1, s, 1), BLUE))
        fixed += [(cat.edge(1, i, s, t + 2 - i), PURPLE) for i in range(2, t + 1)]

    palette = (YELLOW, GREEN, PURPLE, RED) if t % 2 == 0 else (YELLOW, GREEN, PURPLE, RED, BLUE)
    todo = [(e, palette) for i in range(1, s + 1) for e in cycle_edges(cat.row(i))]
    return spine, fixed, todo


def _refl_even_two_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    s, t = spec.s, spec.t
    spine = _zigzag(cat.column(j) for j in range(1, t + 1))
    fixed = cat.fibres(lambda i, j: YELLOW if j % 2 == 1 else GREEN)
    # the residual cycles alternate two fresh colours; a 4-page embedding
    # must stay inside the first four pages, so the pair is purple/red
    todo = [
        (e, (PURPLE, RED))
        for cyc in reflection_residual_cycles(s, t, REFL_TWO)
        for e in cycle_edges(cyc)
    ]
    return spine, fixed, todo


def _one_fixed_spine(cat: SequenceCatalog, s: int, t: int) -> list[int]:
    # the corner walk: (1,t), (1,1), then the first and last columns of
    # rows 2..s zig-zagging down; then columns 2..t-1
    corners = _zigzag(
        ((cat.flat(r, 1), cat.flat(r, t)) for r in range(2, s + 1)), first_reversed=True
    )
    columns = _zigzag((cat.column(j) for j in range(2, t)), first_reversed=True)
    return [cat.flat(1, t), cat.flat(1, 1)] + corners + columns


def _refl_even_one_fixed_t3(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Base 3 columns, one fixed: the generic pin/fibre rules double-book
    pages here (the forced residual alternation makes row 2's middle fibre
    edge cross same-page rungs), so the case gets its own periodic pattern.
    """

    s = spec.s
    rows = ((BLUE, YELLOW, RED), (PURPLE, BLUE, RED))  # row 1, then rows 2..s
    fixed = cat.fibres(lambda i, j: rows[i > 1][j - 1])
    for i in range(1, s):
        fixed.append((cat.edge(i, 1, i + 1, 1), YELLOW if i % 2 == 1 else GREEN))
        fixed.append((cat.edge(i, 2, i + 1, 2), GREEN if i % 2 == 1 else YELLOW))
        if i == 1:
            fixed.append((cat.edge(1, 3, 2, 3), PURPLE))
        else:
            fixed.append((cat.edge(i, 3, i + 1, 3), GREEN if i % 2 == 0 else YELLOW))
    fixed += [
        (cat.edge(s, 1, 1, 3), GREEN),
        (cat.edge(s, 3, 1, 1), GREEN),
        (cat.edge(s, 2, 1, 2), RED),
    ]
    return _one_fixed_spine(cat, s, 3), fixed, []


def _refl_even_one_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    s, t = spec.s, spec.t

    # rung+seam cycles: the two cycles nearest the wrap get pinned red rungs
    # and purple seams, everything else alternates blue/purple
    fixed: list[Fixed] = []
    for i in (1, 2):
        fixed.append((cat.edge(1, t + 1 - i, 2, t + 1 - i), RED))
        fixed.append((cat.edge(1, t + 1 - i, s, i), PURPLE))
    pinned = {e for e, _ in fixed}
    todo = [
        (e, (BLUE, PURPLE))
        for cyc in reflection_residual_cycles(s, t, REFL_ONE)
        for e in cycle_edges(cyc)
        if e not in pinned
    ]

    def fibre_page(i: int, j: int) -> int:
        if j == t:
            return GREEN if i == 1 else YELLOW if i == 2 else RED
        if j % 2 == 1:
            return RED if (i, j) == (2, 1) else YELLOW
        return BLUE if (i, j) == (1, t - 1) else GREEN

    fixed += cat.fibres(fibre_page)
    return _one_fixed_spine(cat, s, t), fixed, todo


def _refl_even_no_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    s, t = spec.s, spec.t
    h = t // 2

    def outer(j: int) -> tuple[int, int]:  # top and bottom vertices of column j
        return cat.flat(1, j), cat.flat(s, j)

    def inner(j: int) -> tuple[int, ...]:  # rows 2..s-1 of column j
        return tuple(cat.flat(i, j) for i in range(2, s))

    spine = _zigzag(
        [outer(j) + outer(t + 1 - j) for j in range(1, h + 1)]
        + [inner(j) + inner(t + 1 - j)[::-1] for j in range(h, 0, -1)]
    )

    exceptional = {
        (1, h): BLUE,
        (1, t): BLUE,
        (s, h): RED,
        (s, t): RED,
    }
    fixed = cat.fibres(lambda i, j: exceptional.get((i, j), GREEN if j % 2 == 0 else YELLOW))
    for i in (1, h):
        fixed += [(cat.edge(s - 1, i, s, i), PURPLE), (cat.edge(1, i, 2, i), RED)]
    for i in (h + 1, t):
        fixed += [(cat.edge(s - 1, i, s, i), BLUE), (cat.edge(1, i, 2, i), PURPLE)]
    for i, j in ((1, 1), (s, 1)):
        fixed.append((cat.edge(i, j, s + 1 - i, t + 1 - j), GREEN))
    for j in range(2, h):
        fixed += [(cat.edge(1, j, s, t + 1 - j), RED), (cat.edge(s, j, 1, t + 1 - j), RED)]
    half_seam = YELLOW if h % 2 == 1 else GREEN
    fixed += [(cat.edge(1, h, s, h + 1), half_seam), (cat.edge(s, h, 1, h + 1), half_seam)]

    placed = {e for e, _ in fixed}
    todo = [
        (e, (RED, PURPLE, BLUE))
        for j in range(1, t + 1)
        for e in cycle_edges(cat.column(j))[:-1]
        if e not in placed
    ]
    return spine, fixed, todo


# ------------------------------------------------------- rules and driver ---


def _select(spec: BundleSpec) -> tuple[str, Layout] | Unsupported:
    """The rule tag and layout for a normalised spec, or why there is none."""

    s, t, phi = spec.s, spec.t, spec.phi
    if isinstance(phi, Shift):
        if phi.d == 0:
            return Unsupported("trivial shift: plain torus, no twisted construction")
        g_ = gcd(t, phi.d)
        if g_ == 1:
            return Unsupported(
                "gcd(t, d) = 1: graph is a circulant, see attached reduction",
                to_circulant(s, t, phi.d),
            )
        if g_ % 2 == 0:
            return RULE_SHIFT_EVEN_GCD, _shift_even_gcd
        if predict_bipartite(spec):
            return RULE_SHIFT_ODD_BIPARTITE, _shift_odd_bipartite
        if (s * t // g_) % 2 == 0:
            return RULE_SHIFT_ODD_EVEN_RESIDUAL, _shift_odd_nonbipartite
        return RULE_SHIFT_ODD_ODD_RESIDUAL, _shift_odd_nonbipartite
    if s % 2 == 1:
        return RULE_REFL_BASE_ODD + _FIXED_SUFFIX[phi.kind], _refl_base_odd
    rule = RULE_REFL_BASE_EVEN + _FIXED_SUFFIX[phi.kind]
    if phi.kind == REFL_TWO:
        return rule, _refl_even_two_fixed
    if phi.kind == REFL_ONE:
        return rule, _refl_even_one_fixed_t3 if t == 3 else _refl_even_one_fixed
    return rule, _refl_even_no_fixed


def embed(spec: BundleSpec) -> ConstructionResult | Unsupported:
    """Build the optimal matching book embedding for a twisted torus.

    Shifts are normalised to d <= t/2 first.  The trivial shift (a plain
    torus) and the coprime shift (isomorphic to a circulant graph, reduction
    attached) have no construction here and come back as Unsupported.
    """

    spec = normalize_shift(spec)
    picked = _select(spec)
    if isinstance(picked, Unsupported):
        return picked
    rule, layout = picked
    m = parity_pages(spec)
    graph = bundle(spec)
    spine, fixed, todo = plan = layout(SequenceCatalog(spec.s, spec.t), spec)
    _check_plan(graph, plan, m, rule)
    asg = _PageAssigner(spine, m, rule)
    for e, page in fixed:
        asg.assign(e, page)
    asg.complete(todo)

    emb = BookEmbedding(spine, asg.pages, m)
    report = validate(graph, emb)
    if not report.ok:
        raise CompletionError(rule, f"assignment invalid: {report.violations[:3]}")
    if report.pages_used != m:
        raise CompletionError(rule, f"used {report.pages_used} pages, claimed {m}")
    return ConstructionResult(spec, graph, emb, rule, report)
