"""Optimal matching book embeddings for twisted tori.

Each supported parameter family is one rule: a rule tag plus a layout
function ``(cat, spec) -> (spine, fixed, todo)`` that returns the family's
spine order, the edges with a closed-form page (in placement order), and the
edges that only have a palette prescribed ("finish this cycle with these
pages").  ``_select`` maps a normalised spec to its ``(rule tag, layout)``
pair; coprime and trivial shifts have no rule and come back as Unsupported.

``embed`` is the one driver.  It builds the graph, places the fixed edges,
completes the todo list by a small exhaustive backtracking search restricted
to each edge's palette (properness and non-crossing are the constraints),
and seals the embedding with ``parity_pages(spec)`` pages: 4 when the graph
is bipartite and 5 otherwise.  That meets the lower bound (4-regularity,
plus the parity obstruction for nonbipartite regular graphs), so every
produced embedding is optimal.  The driver validates the embedding once and
hands the report on in the result; a failed placement, completion or
validation raises instead of silently substituting pages.

Placement never compares a chord with every chord on its page: each page
keeps an index over spine positions (``_PageAssigner``), so a test walks
only the new chord's own span and jumps over the chords nested inside it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import gcd

from .bundle_decomp import (
    CirculantReduction,
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
    """A prescribed colouring step cannot be realised; carries the rule tag."""

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
    embedding: BookEmbedding
    claimed_pages: int
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


def _cycle_edges(seq: tuple[int, ...]) -> list[Edge]:
    """Edges of a cycle in traversal order, closing edge last."""

    edges = [make_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
    edges.append(make_edge(seq[-1], seq[0]))
    return edges


def _path_edges(seq: tuple[int, ...]) -> list[Edge]:
    return [make_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]


Todo = tuple[Edge, tuple[int, ...]]
Fixed = tuple[Edge, int]
Plan = tuple[list[int], list[Fixed], list[Todo]]  # spine, fixed pages, palettes
Layout = Callable[[SequenceCatalog, BundleSpec], Plan]


class _PageAssigner:
    """Incremental page assignment with properness/crossing enforcement.

    Each page keeps an index over spine positions: ``partner[page][k]`` is -1
    while position k is free on that page, else the position of the other
    end of the chord placed there.  A chord (a, b) fits a page when both
    ends are free and a walk from a+1 to b-1, jumping over every chord
    nested inside, meets no chord that leaves (a, b).
    """

    def __init__(self, g: Graph, spine: list[int] | tuple[int, ...], rule: str):
        self.g = g
        self.rule = rule
        self.order = tuple(spine)
        if sorted(self.order) != list(range(g.n)):
            raise CompletionError(rule, "spine is not a permutation of the vertices")
        self.pos = {v: i for i, v in enumerate(self.order)}
        self.pages: dict[Edge, int] = {}
        self.partner: dict[int, list[int]] = {}

    def _conflicts(self, e: Edge, page: int) -> bool:
        partner = self.partner.get(page)
        if partner is None:
            return False
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
        partner = self.partner.get(page)
        if partner is None:
            partner = self.partner[page] = [-1] * len(self.order)
        a, b = self.pos[e[0]], self.pos[e[1]]
        partner[a], partner[b] = b, a
        self.pages[e] = page

    def _unplace(self, e: Edge) -> None:
        partner = self.partner[self.pages.pop(e)]
        partner[self.pos[e[0]]] = partner[self.pos[e[1]]] = -1

    def assign(self, e: Edge, page: int) -> None:
        if e not in self.g.edges:
            raise CompletionError(self.rule, f"{e} is not an edge of the graph")
        if e in self.pages:
            raise CompletionError(self.rule, f"{e} assigned twice")
        if self._conflicts(e, page):
            raise CompletionError(self.rule, f"{e} on page {page} conflicts")
        self._place(e, page)

    def complete(self, todo: list[Todo], node_cap: int = 200_000) -> None:
        """Depth-first completion of `todo` in order, palettes as given."""

        for e, _ in todo:
            if e not in self.g.edges:
                raise CompletionError(self.rule, f"{e} is not an edge of the graph")
            if e in self.pages:
                raise CompletionError(self.rule, f"{e} both fixed and searched")
        self._node_cap, self._nodes = node_cap, 0
        if not self._search(todo, 0):
            raise CompletionError(self.rule, "no completion within the given palette")

    def _search(self, todo: list[Todo], i: int) -> bool:
        # a method, not a closure over itself: a self-referencing closure is
        # a reference cycle that keeps the whole assignment alive until the
        # garbage collector runs
        if i == len(todo):
            return True
        self._nodes += 1
        if self._nodes > self._node_cap:
            raise CompletionError(self.rule, f"completion exceeded {self._node_cap} nodes")
        e, palette = todo[i]
        for page in palette:
            if self._conflicts(e, page):
                continue
            self._place(e, page)
            if self._search(todo, i + 1):
                return True
            self._unplace(e)
        return False

    def finish(self, m: int) -> BookEmbedding:
        missing = self.g.edges - set(self.pages)
        if missing:
            raise CompletionError(self.rule, f"uncoloured edges remain: {sorted(missing)[:4]}")
        return BookEmbedding(self.order, self.pages, m)


# ---------------------------------------------------------------- shifts ---


def _shift_even_gcd(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Shift gluing with gcd(t, d) even: residual cycles end to end."""

    s, t, d = spec.s, spec.t, spec.phi.d
    g_ = gcd(t, d)
    V = shift_residual_cycles(s, t, d).cycles

    spine: list[int] = []
    for k in range(1, g_ + 1):
        block = V[k - 1]
        spine.extend(block if k % 2 == 1 else reversed(block))

    # fibre edges, keyed by the column class of their tail vertex
    fixed: list[Fixed] = []
    vg_pos = {v: idx for idx, v in enumerate(V[g_ - 1])}
    pivot = vg_pos[cat.flat(1, t)]
    for i in range(1, s + 1):
        for j in range(1, t + 1):
            k = (j - 1) % g_ + 1
            if k % 2 == 1:
                page = YELLOW
            elif k < g_:
                page = PURPLE
            else:
                page = PURPLE if vg_pos[cat.flat(i, j)] < pivot else GREEN
            fixed.append((cat.fiber_edge(i, j), page))

    # one red seam per residual cycle (its closing edge), then finish each
    # cycle path within the stated palette
    for k in range(1, g_ + 1):
        fixed.append((cat.edge(1, k, s, k - d), RED))
    palette = (RED, GREEN, PURPLE) if s % 2 == 0 else (RED, GREEN, BLUE)
    todo = [(e, palette) for k in range(1, g_ + 1) for e in _path_edges(V[k - 1])]
    return spine, fixed, todo


def _shift_odd_bipartite(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """t even, s and d odd: columns paired from both ends."""

    s, t, d = spec.s, spec.t, spec.phi.d
    spine: list[int] = []
    for r in range(t // 2):
        spine.extend(cat.column(1 + 2 * r))
        spine.extend(reversed(cat.column(t - 2 * r)))

    fixed: list[Fixed] = [
        (cat.fiber_edge(i, j), YELLOW if j % 2 == 0 else GREEN)
        for i in range(1, s + 1)
        for j in range(1, t + 1)
    ]
    fixed += [(cat.edge(1, j, s, j - d), RED if j % 2 == 1 else PURPLE) for j in range(1, t + 1)]
    todo = [(e, (RED, PURPLE)) for j in range(1, t + 1) for e in _path_edges(cat.column(j))]
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
    V = shift_residual_cycles(s, t, d).cycles
    n1 = len(V[0])
    even_residual = n1 % 2 == 0

    spine: list[int] = []
    for j in range(n1):  # element-wise interleave of the first two cycles
        pair = (V[0][j], V[1][j]) if j % 2 == 0 else (V[1][j], V[0][j])
        spine.extend(pair)
    for k in range(3, g_ + 1):
        block = V[k - 1]
        spine.extend(reversed(block) if k % 2 == 1 else block)

    fixed: list[Fixed] = [
        (cat.fiber_edge(i, j), _fiber_page_odd_gcd(cat, g_, i, j, even_residual, s, d))
        for i in range(1, s + 1)
        for j in range(1, t + 1)
    ]

    # first two residual cycles: fully explicit alternations
    for k in (1, 2):
        edges = _cycle_edges(V[k - 1])
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
    todo = [(e, (RED, PURPLE, BLUE)) for k in range(3, g_) for e in _cycle_edges(V[k - 1])]

    # last residual cycle: blue closing seam, yellow/red on the column-t
    # rung ladder, purple/red elsewhere
    Vg = V[g_ - 1]
    T = t // g_
    l_t = next(l for l in range(T) if (g_ - 1 + l * d) % t == t - 1)
    ladder = range(l_t * s + 1, l_t * s + s)  # 1-based path-edge indices in column t
    fixed.append((make_edge(Vg[-1], Vg[0]), BLUE))
    for idx, e in enumerate(_path_edges(Vg), start=1):
        todo.append((e, (YELLOW, RED) if idx in ladder else (PURPLE, RED)))
    return spine, fixed, todo


# ----------------------------------------------------------- reflections ---


def _refl_base_odd(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Reflection gluing over an odd base: rows zig-zag along the spine."""

    s, t, kind = spec.s, spec.t, spec.phi.kind
    spine: list[int] = []
    for i in range(1, s + 1):
        block = cat.row(i)
        spine.extend(reversed(block) if i % 2 == 1 else block)

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
    todo = [(e, palette) for i in range(1, s + 1) for e in _cycle_edges(cat.row(i))]
    return spine, fixed, todo


def _refl_even_two_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    s, t = spec.s, spec.t
    spine: list[int] = []
    for j in range(1, t + 1):
        block = cat.column(j)
        spine.extend(block if j % 2 == 1 else reversed(block))

    fixed: list[Fixed] = [
        (cat.fiber_edge(i, j), YELLOW if j % 2 == 1 else GREEN)
        for i in range(1, s + 1)
        for j in range(1, t + 1)
    ]
    # the residual cycles alternate two fresh colours; a 4-page embedding
    # must stay inside the first four pages, so the pair is purple/red
    todo = [
        (e, (PURPLE, RED))
        for cyc in reflection_residual_cycles(s, t, REFL_TWO).cycles
        for e in _cycle_edges(cyc)
    ]
    return spine, fixed, todo


def _one_fixed_spine(cat: SequenceCatalog, s: int, t: int) -> list[int]:
    # U walks rows s down to 2 zig-zagging between the last and first
    # columns, then closes with (1,1),(1,t); the spine takes U reversed.
    u: list[int] = []
    for r in range(s, 1, -1):
        cols = (1, t) if r % 2 == 0 else (t, 1)
        u.extend(cat.flat(r, c) for c in cols)
    u.extend((cat.flat(1, 1), cat.flat(1, t)))
    spine = list(reversed(u))
    spine.extend(reversed(cat.column(2)))
    for j in range(3, t):
        block = cat.column(j)
        spine.extend(reversed(block) if j % 2 == 0 else block)
    return spine


def _refl_even_one_fixed_t3(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Base 3 columns, one fixed: the generic pin/fibre rules double-book
    pages here (the forced residual alternation makes row 2's middle fibre
    edge cross same-page rungs), so the case gets its own periodic pattern.
    """

    s = spec.s
    fixed: list[Fixed] = [
        (cat.fiber_edge(1, 1), BLUE),
        (cat.fiber_edge(1, 2), YELLOW),
        (cat.fiber_edge(1, 3), RED),
    ]
    for i in range(2, s + 1):
        fixed += [
            (cat.fiber_edge(i, 1), PURPLE),
            (cat.fiber_edge(i, 2), BLUE),
            (cat.fiber_edge(i, 3), RED),
        ]
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
        for cyc in reflection_residual_cycles(s, t, REFL_ONE).cycles
        for e in _cycle_edges(cyc)
        if e not in pinned
    ]

    for i in range(1, s + 1):
        for j in range(1, t + 1):
            if j == t:
                page = GREEN if i == 1 else YELLOW if i == 2 else RED
            elif j % 2 == 1:
                page = RED if (i, j) == (2, 1) else YELLOW
            else:
                page = BLUE if (i, j) == (1, t - 1) else GREEN
            fixed.append((cat.fiber_edge(i, j), page))
    return _one_fixed_spine(cat, s, t), fixed, todo


def _refl_even_no_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    s, t = spec.s, spec.t
    h = t // 2

    def outer(j: int) -> tuple[int, int]:  # top and bottom vertices of column j
        return cat.flat(1, j), cat.flat(s, j)

    def inner(j: int) -> tuple[int, ...]:  # rows 2..s-1 of column j
        return tuple(cat.flat(i, j) for i in range(2, s))

    spine: list[int] = []
    for j in range(1, h + 1):
        block = outer(j) + outer(t + 1 - j)
        spine.extend(reversed(block) if j % 2 == 0 else block)
    for j in range(h, 0, -1):
        block = inner(j) + tuple(reversed(inner(t + 1 - j)))
        spine.extend(reversed(block) if j % 2 == 1 else block)

    exceptional = {
        (1, h): BLUE,
        (1, t): BLUE,
        (s, h): RED,
        (s, t): RED,
    }
    fixed: list[Fixed] = [
        (cat.fiber_edge(i, j), exceptional.get((i, j), GREEN if j % 2 == 0 else YELLOW))
        for i in range(1, s + 1)
        for j in range(1, t + 1)
    ]
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
        for e in _path_edges(cat.column(j))
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
    graph = bundle(spec)
    spine, fixed, todo = layout(SequenceCatalog(spec.s, spec.t), spec)
    asg = _PageAssigner(graph, spine, rule)
    for e, page in fixed:
        asg.assign(e, page)
    asg.complete(todo)

    m = parity_pages(spec)
    emb = asg.finish(m)
    report = validate(graph, emb)
    if not report.ok:
        raise CompletionError(rule, f"assignment invalid: {report.violations[:3]}")
    if report.pages_used != m:
        raise CompletionError(rule, f"used {report.pages_used} pages, claimed {m}")
    return ConstructionResult(spec, graph, emb, m, rule, report)
