"""Optimal matching book embeddings for twisted tori.

Each supported parameter family is one rule: a rule tag plus a layout
function ``(cat, spec) -> (spine, fixed, todo)`` that returns the family's
spine order, the edges with a closed-form page (in placement order), and the
edges that only have a palette prescribed ("finish this cycle with these
pages").  Layouts name an edge by its number in ``SequenceCatalog``: vertex
(i, j) owns ``cat.fibre(i, j)``, toward column j+1, and ``cat.rung(i, j)``,
toward row i+1 and across the seam from row s; a residual cycle's edges are
``2 * v + 1`` for its vertices in walk order.  ``SequenceCatalog.decode``
turns a number into a vertex pair and is the one place that applies ``phi``,
so no layout works out where a seam lands.  A layout is written as data: its
spine is one ``_zigzag`` of named blocks (rows, columns, residual cycles or
column pairs, every other block reversed), its fibre pages are one rule
``page_of(row, column)`` handed to ``SequenceCatalog.fibres``, its rung and
seam pages are explicit lists, and palettes cover the rest.  ``_select``
maps a spec to its ``(rule tag, layout)`` pair; coprime and trivial shifts
have no rule and raise Unsupported.  Shifts are laid out as given;
``_wraps`` is the one place that says where their residual cycles wrap.

``embed`` is the one driver.  It decides the page count first, by
``parity_pages(spec)``: 4 when the graph is bipartite and 5 otherwise, which
meets the lower bound (4-regularity, plus the parity obstruction for
nonbipartite regular graphs), so every produced embedding is optimal.  It
then checks the plan once (``_check_plan``: one walk over the fixed list
marks each number's slot and pins its page into the search's index, one
over the todo list marks the rest), completes the todo list by
``_PageAssigner``, a backtracking search within each edge's palette that
decodes each edge as it is reached, writes the page map once from the
slots, and validates the result once against ``bundle(spec)``, which is
built without the numbering; a faulty plan, completion or validation raises
instead of substituting pages.

Until the search ends an edge's page is one byte, ``slot[k]`` of
``_PageAssigner``, and no page map exists.  Placement never compares a chord
with every chord on its page: each page keeps an index over the
embedding's ``pos``, so a test walks only the new chord's own span and
jumps over the chords nested inside it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from math import gcd

from .bundle_decomp import CirculantReduction, residual_cycles, to_circulant
from .graph_core import (
    BundleSpec,
    Edge,
    Graph,
    REFL_NONE,
    REFL_ONE,
    REFL_TWO,
    Shift,
    bundle,
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
    violations,
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


class Unsupported(Exception):
    """No construction for this spec; coprime shifts carry their reduction."""

    def __init__(self, reason: str, reduction: CirculantReduction | None = None):
        super().__init__(reason)
        self.reason = reason
        self.reduction = reduction


@dataclass
class ConstructionResult:
    graph: Graph
    embedding: BookEmbedding  # its m is the page count, checked against the report
    rule: str
    report: ValidationReport  # the one validation made at build time


def parity_pages(spec: BundleSpec) -> int:
    """Optimal page count by the parity law: 4 if bipartite, else 5."""

    return 4 if predict_bipartite(spec) else 5


class SequenceCatalog:
    """Named vertex sequences (rows, columns) in flat ids, and edges by number.

    Arguments use 1-based row/column indices and wrap modulo s and t, so
    formulas like column ``1 - d`` can be used verbatim.  Each vertex (i, j)
    owns two edges, numbered ``2 * flat(i, j) + kind``: kind 0 is the fibre
    edge toward column j+1, kind 1 the rung toward row i+1, which from row s
    is the seam across ``phi``.  The numbers 0..2st-1 name every edge once,
    and ``decode`` is the one place that applies ``phi``.
    """

    def __init__(self, spec: BundleSpec):
        self.s = spec.s
        self.t = spec.t
        self.phi = spec.phi
        self.size = 2 * spec.s * spec.t  # edge count
        self.row_s = (spec.s - 1) * spec.t  # flat id of (s, 1): from here on kind 1 is a seam

    def flat(self, i: int, j: int) -> int:
        return ((i - 1) % self.s) * self.t + ((j - 1) % self.t)

    def fibre(self, i: int, j: int) -> int:
        return 2 * self.flat(i, j)

    def rung(self, i: int, j: int) -> int:
        return 2 * self.flat(i, j) + 1

    def decode(self, k: int) -> Edge:
        """Edge number k as its canonical vertex pair, lower id first."""

        v, t = k >> 1, self.t
        q = v % t
        if k % 2 == 0:  # the fibre edge from column t wraps to the row's first vertex
            return (v, v + 1) if q < t - 1 else (v - q, v)
        if v < self.row_s:
            return (v, v + t)
        return (self.phi.apply(q, t), v)  # the seam, landing on row 1

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.flat(i, j) for j in range(1, self.t + 1))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.flat(i, j) for i in range(1, self.s + 1))

    def fibres(self, page_of: Callable[[int, int], int]) -> list[Fixed]:
        """Every fibre edge with page ``page_of(i, j)`` of its tail, row by row."""

        return [
            (self.fibre(i, j), page_of(i, j))
            for i in range(1, self.s + 1)
            for j in range(1, self.t + 1)
        ]


def _zigzag(blocks: Iterable[Sequence[int]], first_reversed: bool = False) -> list[int]:
    """The blocks end to end, every other one reversed (the first iff asked)."""

    spine: list[int] = []
    for k, block in enumerate(blocks):
        spine.extend(reversed(block) if (k % 2 == 0) == first_reversed else block)
    return spine


Todo = tuple[int, tuple[int, ...]]  # edge number, palette
Fixed = tuple[int, int]  # edge number, page
Plan = tuple[list[int], list[Fixed], list[Todo]]  # spine, fixed pages, palettes
Layout = Callable[[SequenceCatalog, BundleSpec], Plan]

_NODE_CAP = 200_000  # search nodes one completion may visit


_UNLISTED, _TODO = 255, 254  # slot marks; a placed edge's slot holds its page (< 5)


def _check_plan(cat: SequenceCatalog, plan: Plan, emb: BookEmbedding, rule: str) -> _PageAssigner:
    """The one check of a plan, on the embedding built on its spine: a spine
    of every vertex once, every edge number 0..2st-1 fixed or todo exactly
    once, every page named below m, and fixed pages that pass ``validate``'s
    test.  Returns the search's index with every fixed page pinned in it;
    ``emb.pages`` stays empty.  One walk tests, marks and pins each fixed
    entry (a pin on a taken position is a shared endpoint), one marks each
    todo entry; only a faulty plan is read again, to name its offenders."""

    spine, fixed, todo = plan
    n = cat.s * cat.t  # n distinct vertices, none below 0 or above n-1: all of them
    if not (len(spine) == len(emb.pos) == n and min(spine) == 0 and max(spine) == n - 1):
        raise CompletionError(rule, "spine is not a permutation of the vertices")
    index = _PageAssigner(emb, cat.size, rule)
    slot, partner, pos, decode = index.slot, index.partner, emb.pos, cat.decode
    size, m = cat.size, emb.m
    shared = False  # a pin landed on a taken position
    for k, page in fixed:
        if 0 <= k < size and slot[k] == _UNLISTED and 0 <= page < m:
            slot[k] = page
            u, v = decode(k)
            a, b, at = pos[u], pos[v], partner[page]
            if at[a] != -1 or at[b] != -1:
                shared = True
            at[a], at[b] = b, a
    palettes = set()
    for k, palette in todo:
        if 0 <= k < size and slot[k] == _UNLISTED:
            slot[k] = _TODO
            palettes.add(palette)
    # each entry marked a slot iff there are 2st entries and no slot is left unlisted
    listed = len(fixed) + len(todo) == size and _UNLISTED not in slot
    if not (listed and {*chain(*palettes)} <= {*range(m)}):
        # read through cat and emb, so that the walks' names stay locals, not closure cells
        count = Counter([k for k, _ in fixed] + [k for k, _ in todo])  # name up to four offenders
        pages = chain(fixed, ((k, p) for k, palette in todo for p in palette))
        edges = range(size)
        for fault, offenders in (
            (f"numbers outside 0..{size - 1}", sorted(count.keys() - edges)),
            ("listed twice", [cat.decode(k) for k, n in count.items() if n > 1]),
            ("missing from the plan", sorted(cat.decode(k) for k in edges if k not in count)),
            (f"pages outside 0..{m - 1}", [(cat.decode(k), p) for k, p in pages if not 0 <= p < emb.m]),
        ):
            if offenders:
                raise CompletionError(rule, f"{fault}: {offenders[:4]}")

    def crossed(at: list[int]) -> bool:  # one bracket walk along the spine
        closers: list[int] = []  # far ends of the open chords, innermost last
        for x, y in enumerate(at):
            if y > x:
                closers.append(y)
            elif y != -1 and closers.pop() != x:
                return True
        return False

    if shared or any(map(crossed, partner)):
        clashes = violations(((cat.decode(k), page) for k, page in fixed), pos)
        raise CompletionError(rule, f"fixed pages clash: {clashes[:4]}")
    return index


class _PageAssigner:
    """The completion search, over one embedding's pages by edge number.

    ``slot[k]`` is edge k's page once placed, else ``_TODO`` (or
    ``_UNLISTED`` until ``_check_plan`` has read the plan).  Each page keeps
    an index over spine positions: ``partner[page][x]`` is -1 while position
    x is free on that page, else the position of the other end of the chord
    placed there.  A chord (a, b), a < b, fits a page when both ends are
    free and a walk from a+1 to b-1, jumping over every chord nested inside,
    meets no chord that leaves (a, b).  Edges are decoded only to find their
    two positions; the page map is the caller's to write, from ``slot``.
    """

    def __init__(self, emb: BookEmbedding, size: int, rule: str):
        self.pos = emb.pos
        self.rule = rule
        self.slot = bytearray([_UNLISTED]) * size
        self.partner = [[-1] * len(emb.order) for _ in range(emb.m)]

    def _span(self, e: Edge) -> tuple[int, int]:
        a, b = self.pos[e[0]], self.pos[e[1]]
        return (a, b) if a < b else (b, a)

    def _conflicts(self, a: int, b: int, page: int) -> bool:
        partner = self.partner[page]
        if partner[a] != -1 or partner[b] != -1:
            return True
        x = a + 1
        while x < b:
            y = partner[x]
            if y == -1:
                x += 1
            elif x < y < b:
                x = y + 1
            else:
                return True
        return False

    def _place(self, k: int, a: int, b: int, page: int) -> None:
        partner = self.partner[page]
        partner[a], partner[b] = b, a
        self.slot[k] = page

    def _unplace(self, k: int, a: int, b: int) -> None:
        partner = self.partner[self.slot[k]]
        partner[a] = partner[b] = -1
        self.slot[k] = _TODO

    def complete(self, todo: list[Todo], decode: Callable[[int], Edge]) -> None:
        """Depth-first completion of `todo` in order, palettes as given; each
        edge number is decoded when the search reaches it."""

        self._nodes = 0
        self._decode = decode
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
        k, palette = todo[i]
        a, b = self._span(self._decode(k))
        for page in palette:
            if self._conflicts(a, b, page):
                continue
            self._place(k, a, b, page)
            if self._search(todo, i + 1):
                return True
            self._unplace(k, a, b)
        return False


# ---------------------------------------------------------------- shifts ---


def _wraps(t: int, d: int) -> tuple[set[int], set[int]]:
    """Where a d-shift's residual cycles wrap, as 1-based columns.  With
    g = gcd(t, d), T = t/g and u = (d/g)^-1 mod T, the fibre edges leaving the
    last u columns of class g (``wrapping``) land on the first u columns of
    residual cycle 1 (``landing``); for d = g that is ({1}, {t})."""

    g = gcd(t, d)
    u = pow(d // g, -1, t // g)
    landing = {1 + k * d % t for k in range(u)}
    return landing, {(j - 2) % t + 1 for j in landing}


def _shift_even_gcd(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Shift gluing with gcd(t, d) even: residual cycles end to end."""

    s, t, d = spec.s, spec.t, spec.phi.d
    g_ = gcd(t, d)
    V = residual_cycles(spec)
    _, wrapping = _wraps(t, d)

    def fibre_page(i: int, j: int) -> int:  # keyed by the column class of the tail
        k = (j - 1) % g_ + 1
        if k % 2 == 1:
            return YELLOW
        if k < g_:
            return PURPLE
        return GREEN if j in wrapping else PURPLE

    # one red seam per residual cycle (its closing edge), then finish each
    # cycle path within the stated palette
    fixed = cat.fibres(fibre_page) + [(2 * cyc[-1] + 1, RED) for cyc in V]
    palette = (RED, GREEN, PURPLE) if s % 2 == 0 else (RED, GREEN, BLUE)
    todo = [(2 * v + 1, palette) for cyc in V for v in cyc[:-1]]
    return _zigzag(V), fixed, todo


def _shift_odd_bipartite(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """t even, s and d odd: columns paired from both ends."""

    s, t, d = spec.s, spec.t, spec.phi.d
    spine = _zigzag(cat.column(j) for r in range(t // 2) for j in (1 + 2 * r, t - 2 * r))
    fixed = cat.fibres(lambda i, j: YELLOW if j % 2 == 0 else GREEN)
    fixed += [(cat.rung(s, j - d), RED if j % 2 == 1 else PURPLE) for j in range(1, t + 1)]
    todo = [(cat.rung(i, j), (RED, PURPLE)) for j in range(1, t + 1) for i in range(1, s)]
    return spine, fixed, todo


def _shift_odd_nonbipartite(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """gcd(t, d) odd, graph nonbipartite: interleaved spine, 5 pages."""

    s, t, d = spec.s, spec.t, spec.phi.d
    g_ = gcd(t, d)
    V = residual_cycles(spec)
    even_residual = len(V[0]) % 2 == 0
    landing, wrapping = _wraps(t, d)

    # Odd residuals only.  For g = 3 the blue fibre edge below would end on
    # (s, 3-d), the last vertex of the last residual cycle and so an endpoint
    # of its blue closing seam; yellow is the proper repair.
    special = {} if even_residual else {
        cat.fibre(s, 2 - d): YELLOW if g_ == 3 else BLUE,
        cat.fibre(2, 1): BLUE,
        cat.fibre(s, 1 - d): GREEN,
        cat.fibre(1, 1): PURPLE,
        cat.fibre(s - 1, 1 - d): RED,
        cat.fibre(1, t): RED,
    }

    def fibre_page(i: int, j: int) -> int:  # keyed by the column class of the tail
        k = (j - 1) % g_ + 1
        if j in wrapping:
            return PURPLE  # (1, t) is special above
        if j in landing:
            return YELLOW  # (1, 1) and (2, 1) are special above
        if k % 2 == 0:
            return GREEN
        if k == 1:
            return PURPLE
        return YELLOW  # odd middle classes and the k = g_ class off the wrapping columns

    # the first two cycles interleaved element by element, then the others
    spine = _zigzag(zip(V[0], V[1])) + _zigzag(V[2:], first_reversed=True)
    fixed = [(e, special.get(e, page)) for e, page in cat.fibres(fibre_page)]

    # first two residual cycles: fully explicit alternations
    for k in (1, 2):
        L = len(V[k - 1])
        for idx, v in enumerate(V[k - 1], start=1):
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
            fixed.append((2 * v + 1, page))

    # middle residual cycles, whole cycle searched
    todo = [(2 * v + 1, (RED, PURPLE, BLUE)) for k in range(3, g_) for v in V[k - 1]]

    # last residual cycle: blue closing seam, yellow/red on the ladder through
    # the wrapping columns it ends with, purple/red before it
    *path, closing = (2 * v + 1 for v in V[g_ - 1])
    start = len(path) + 1 - s * len(wrapping)  # path-edge index the ladder follows
    fixed.append((closing, BLUE))
    todo += [(e, (YELLOW, RED) if idx > start else (PURPLE, RED)) for idx, e in enumerate(path, 1)]
    if start % 2 == 1:  # the one phase switch before the seam: blue second-last
        todo[-2] = (path[-2], todo[-2][1] + (BLUE,))
    return spine, fixed, todo


# ----------------------------------------------------------- reflections ---


def _refl_base_odd(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Reflection gluing over an odd base: rows zig-zag along the spine."""

    s, t, kind = spec.s, spec.t, spec.phi.kind
    spine = _zigzag((cat.row(i) for i in range(1, s + 1)), first_reversed=True)

    fixed: list[Fixed] = [
        (cat.rung(i, j), YELLOW if i % 2 == 1 else GREEN)
        for i in range(1, s)
        for j in range(1, t + 1)
    ]
    if kind in (REFL_NONE, REFL_ONE):
        fixed += [(cat.rung(s, j), PURPLE) for j in range(1, t + 1)]
    else:  # the seam on the fixed column 1, then the others by falling tail column
        fixed.append((cat.rung(s, 1), BLUE))
        fixed += [(cat.rung(s, j), PURPLE) for j in range(t, 1, -1)]

    palette = (YELLOW, GREEN, PURPLE, RED) if t % 2 == 0 else (YELLOW, GREEN, PURPLE, RED, BLUE)
    todo = [(cat.fibre(i, j), palette) for i in range(1, s + 1) for j in range(1, t + 1)]
    return spine, fixed, todo


def _refl_even_two_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    spine = _zigzag(cat.column(j) for j in range(1, spec.t + 1))
    fixed = cat.fibres(lambda i, j: YELLOW if j % 2 == 1 else GREEN)
    # the residual cycles alternate two fresh colours; a 4-page embedding
    # must stay inside the first four pages, so the pair is purple/red
    todo = [(2 * v + 1, (PURPLE, RED)) for cyc in residual_cycles(spec) for v in cyc]
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
        fixed.append((cat.rung(i, 1), YELLOW if i % 2 == 1 else GREEN))
        fixed.append((cat.rung(i, 2), GREEN if i % 2 == 1 else YELLOW))
        if i == 1:
            fixed.append((cat.rung(1, 3), PURPLE))
        else:
            fixed.append((cat.rung(i, 3), GREEN if i % 2 == 0 else YELLOW))
    fixed += [(cat.rung(s, 1), GREEN), (cat.rung(s, 3), GREEN), (cat.rung(s, 2), RED)]
    return _one_fixed_spine(cat, s, 3), fixed, []


def _refl_even_one_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    s, t = spec.s, spec.t

    # rung+seam cycles: the two cycles nearest the wrap get pinned red rungs
    # and purple seams, everything else alternates blue/purple
    fixed: list[Fixed] = []
    for i in (1, 2):
        fixed.append((cat.rung(1, t + 1 - i), RED))
        fixed.append((cat.rung(s, i), PURPLE))
    pinned = {e for e, _ in fixed}
    rungs = [2 * v + 1 for cyc in residual_cycles(spec) for v in cyc]
    todo = [(e, (BLUE, PURPLE)) for e in rungs if e not in pinned]

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
    for j in (1, h):
        fixed += [(cat.rung(s - 1, j), PURPLE), (cat.rung(1, j), RED)]
    for j in (h + 1, t):
        fixed += [(cat.rung(s - 1, j), BLUE), (cat.rung(1, j), PURPLE)]
    fixed += [(cat.rung(s, t), GREEN), (cat.rung(s, 1), GREEN)]
    for j in range(2, h):
        fixed += [(cat.rung(s, t + 1 - j), RED), (cat.rung(s, j), RED)]
    half_seam = YELLOW if h % 2 == 1 else GREEN
    fixed += [(cat.rung(s, h + 1), half_seam), (cat.rung(s, h), half_seam)]

    placed = {e for e, _ in fixed}
    rungs = [cat.rung(i, j) for j in range(1, t + 1) for i in range(1, s)]
    todo = [(e, (RED, PURPLE, BLUE)) for e in rungs if e not in placed]
    return spine, fixed, todo


# ------------------------------------------------------- rules and driver ---


def _select(spec: BundleSpec) -> tuple[str, Layout]:
    """The rule tag and layout for a spec as given; Unsupported says why
    there is none."""

    s, t, phi = spec.s, spec.t, spec.phi
    if isinstance(phi, Shift):
        if phi.d == 0:
            raise Unsupported("trivial shift: plain torus, no twisted construction")
        g_ = gcd(t, phi.d)
        if g_ == 1:
            raise Unsupported(
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


def embed(spec: BundleSpec) -> ConstructionResult:
    """Build the optimal matching book embedding for a twisted torus.

    The trivial shift (a plain torus) and the coprime shift (isomorphic to a
    circulant graph, the reduction of the spec as given attached) have no
    construction here and raise Unsupported.  Every other spec is laid out
    as given, so the embedding is of ``bundle(spec)``.
    """

    rule, layout = _select(spec)
    graph = bundle(spec)
    cat = SequenceCatalog(spec)
    plan = layout(cat, spec)
    emb = BookEmbedding(plan[0], {}, parity_pages(spec))
    index = _check_plan(cat, plan, emb, rule)
    todo = plan[2]
    del plan  # the spine is in emb and the fixed pages in the index
    index.complete(todo, cat.decode)
    emb.pages.update(zip(map(cat.decode, range(cat.size)), index.slot))

    report = validate(graph, emb)
    if not report.ok:
        raise CompletionError(rule, f"assignment invalid: {report.violations[:3]}")
    if report.pages_used != emb.m:
        raise CompletionError(rule, f"used {report.pages_used} pages, claimed {emb.m}")
    return ConstructionResult(graph, emb, rule, report)
