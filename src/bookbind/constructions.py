"""Optimal matching book embeddings for twisted tori.

Each supported parameter family is one rule: a rule tag plus a layout
function ``(cat, spec) -> (spine, fixed, todo)`` that returns the family's
spine order, the edges with a closed-form page (in placement order), and the
edges that only have a palette prescribed ("finish this cycle with these
pages").  Layouts name an edge by its number in ``SequenceCatalog``: vertex
(i, j) owns ``cat.fibre(i, j)``, toward column j+1, and ``cat.rung(i, j)``,
toward row i+1 and across the seam from row s; a residual cycle's edges are
``2 * v + 1`` for its vertices in walk order.  Edge k is
``graph_core.bundle_edges(spec)[k]``, which ``SequenceCatalog`` holds as
``edges``; that list applies ``phi`` for every layout, so no layout
works out where a seam lands.  A layout is written as
data: its spine is one ``_zigzag`` of named blocks (rows, columns, residual
cycles or column pairs, every other block reversed), its fibre pages are one
row of t pages repeated s times, with at most a whole row and six cells
written over it, handed to ``SequenceCatalog.fibres`` in row-major order,
its rungs and seams are ``range`` strides (by row, by column or along row s)
or residual cycles with page lists, and palettes cover the rest: no list is
built with a Python call per edge.  ``_select``
maps a spec to its ``(rule tag, layout)`` pair; coprime and trivial shifts
have no rule and raise Unsupported.  Shifts are laid out as given;
``_wraps`` is the one place that says where their residual cycles wrap.

``embed`` is the one driver.  It decides the page count first, by
``parity_pages(spec)``: 4 when the graph is bipartite and 5 otherwise, which
meets the lower bound (4-regularity, plus the parity obstruction for
nonbipartite regular graphs), so every produced embedding is optimal.  It
builds the edge list once, and the graph from it once the search is done,
so the graph, the search and the embedding share one tuple per edge.  It
checks the plan's listing once (``_check_plan``: it builds the embedding on
the plan's spine, over that edge list, with a bytearray of pages; one walk
over the fixed list writes each number's page and pins it into the search's
index, one over the todo list marks the rest), completes the todo list by
``_PageAssigner``, a backtracking search within each edge's palette that
reads each edge by number as it is reached and writes its page into the
same bytearray, then builds the graph and validates the result once
against it; a faulty plan, completion or validation raises instead of
substituting pages.
``validate`` is the one judge of crossings and shared endpoints, fixed
pages included: a plan whose fixed pages clash either leaves the search no
completion or is named by it.  It does not check the numbering: the graph
and the embedding come from one list, so a wrong number in ``bundle_edges``
would go unseen here, and the tests compare that list with an independent
definition.

An edge's page is one byte, ``pages[k]`` of the embedding, from the plan
check to the file: no page map is ever built.  The search takes one frame
per todo edge, with the chord's span, its fit test, its placement and the
undo written out in that frame.  Placement never compares a chord with
every chord on its page: each page keeps an index over the embedding's
``pos``, so a test walks only the new chord's own span and jumps over the
chords nested inside it.
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
    Graph,
    REFL_NONE,
    REFL_ONE,
    REFL_TWO,
    Shift,
    bundle_edges,
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
    is the seam across ``phi``.  The numbers 0..2st-1 name every edge once;
    ``edges`` is ``bundle_edges(spec)`` as a tuple, edge k at index k, built once, and
    the graph, the search and the embedding all share its tuples.  A row is
    a run of t consecutive ids and a column a range of stride t, so both are
    built from ``range`` without a call per vertex, and so are the rungs
    of a column (``column_rungs``); ``fibres`` pairs the fibre edges with a
    row-major page list.
    """

    def __init__(self, spec: BundleSpec):
        self.s = spec.s
        self.t = spec.t
        self.edges = tuple(bundle_edges(spec))  # as BookEmbedding keeps it, so not copied there
        self.size = len(self.edges)  # edge count, 2st

    def flat(self, i: int, j: int) -> int:
        return ((i - 1) % self.s) * self.t + ((j - 1) % self.t)

    def fibre(self, i: int, j: int) -> int:
        return 2 * self.flat(i, j)

    def rung(self, i: int, j: int) -> int:
        return 2 * self.flat(i, j) + 1

    def row(self, i: int) -> tuple[int, ...]:
        start = self.flat(i, 1)
        return tuple(range(start, start + self.t))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(range(self.flat(1, j), self.s * self.t, self.t))

    def fibres(self, pages: list[int], cells: Iterable[Cell] = ()) -> list[Fixed]:
        """Every fibre edge with the page of its tail, ``pages`` listed row by
        row (row-major order numbers the fibre edges 0, 2, .., 2st-2) and
        each ``((i, j), page)`` of ``cells`` written over it in turn."""

        for (i, j), page in cells:
            pages[self.flat(i, j)] = page
        return list(zip(range(0, self.size, 2), pages))

    def column_rungs(self, j: int) -> range:
        """The rungs of column j, from rows 1..s-1 top down (the seam from
        row s is not one): a stride of 2t from ``rung(1, j)``."""

        return range(self.rung(1, j), 2 * (self.s - 1) * self.t, 2 * self.t)


def _zigzag(blocks: Iterable[Sequence[int]], first_reversed: bool = False) -> list[int]:
    """The blocks end to end, every other one reversed (the first iff asked)."""

    spine: list[int] = []
    for k, block in enumerate(blocks):
        spine.extend(reversed(block) if (k % 2 == 0) == first_reversed else block)
    return spine


Todo = tuple[int, tuple[int, ...]]  # edge number, palette
Fixed = tuple[int, int]  # edge number, page
Cell = tuple[tuple[int, int], int]  # (row, column) of a fibre's tail, page
Plan = tuple[list[int], list[Fixed], list[Todo]]  # spine, fixed pages, palettes
Layout = Callable[[SequenceCatalog, BundleSpec], Plan]

_NODE_CAP = 200_000  # search nodes one completion may visit


_UNLISTED, _TODO = 255, 254  # page marks; a placed edge's page is below 5


def _check_plan(cat: SequenceCatalog, plan: Plan, m: int, rule: str) -> _PageAssigner:
    """The one check of a plan's listing, on the embedding it builds on the
    plan's spine, with a bytearray of ``m`` pages: a spine of every vertex
    once, every edge number 0..2st-1 fixed or todo exactly once, and every
    page named below m.  Returns the search's index with every fixed page
    written and pinned in it and every todo edge marked ``_TODO``.  One walk
    tests, marks and pins each fixed entry, and one marks each todo entry;
    only a faulty plan is read again, to name its offenders.  Whether the
    fixed pages cross or share an endpoint is ``validate``'s to say."""

    spine, fixed, todo = plan
    size = cat.size
    emb = BookEmbedding(spine, cat.edges, bytearray([_UNLISTED]) * size, m)
    if not len(spine) == len(emb.pos) == cat.s * cat.t:  # pos is [] unless the spine is a permutation
        raise CompletionError(rule, "spine is not a permutation of the vertices")
    index = _PageAssigner(emb, rule)
    pages, partner, pos, edges = emb.pages, index.partner, emb.pos, cat.edges
    for k, page in fixed:
        if 0 <= k < size and pages[k] == _UNLISTED and 0 <= page < m:
            pages[k] = page
            u, v = edges[k]
            a, b, at = pos[u], pos[v], partner[page]
            at[a], at[b] = b, a  # a pin on a taken place overwrites it; validate names that clash
    palettes = set()
    for k, palette in todo:
        if 0 <= k < size and pages[k] == _UNLISTED:
            pages[k] = _TODO
            palettes.add(palette)
    # each entry marked a page iff there are 2st entries and none is left unlisted
    listed = len(fixed) + len(todo) == size and _UNLISTED not in pages
    if not (listed and {*chain(*palettes)} <= {*range(m)}):
        # read through cat and emb, so that the walks' names stay locals, not closure cells
        count = Counter([k for k, _ in fixed] + [k for k, _ in todo])  # name up to four offenders
        numbers = range(size)
        outside = sorted(count.keys() - numbers)
        if outside:  # first, as only numbers in range index the edge list
            raise CompletionError(rule, f"numbers outside 0..{size - 1}: {outside[:4]}")
        listings = chain(fixed, ((k, p) for k, palette in todo for p in palette))
        for fault, offenders in (
            ("listed twice", [cat.edges[k] for k, n in count.items() if n > 1]),
            ("missing from the plan", sorted(cat.edges[k] for k in numbers if k not in count)),
            (f"pages outside 0..{m - 1}", [(cat.edges[k], p) for k, p in listings if not 0 <= p < emb.m]),
        ):
            if offenders:
                raise CompletionError(rule, f"{fault}: {offenders[:4]}")
    return index


class _PageAssigner:
    """The completion search, over one embedding's pages by edge number.

    ``pages[k]`` (the embedding's bytearray) is ``_TODO`` until the search
    first places edge k, then the page it was last placed on; a search that
    succeeds places every todo edge on its final page.  Each page keeps an
    index over spine positions:
    ``partner[page][x]`` is -1 while position x is free on that page, else
    the position of the other end of the chord placed there.  A chord
    (a, b), a < b, fits a page when both ends are free and a walk from a+1
    to b-1, jumping over every chord nested inside, meets no chord that
    leaves (a, b).  Edges are read by number only to find their two
    positions.
    """

    def __init__(self, emb: BookEmbedding, rule: str):
        self.emb = emb
        self.rule = rule
        self.edges, self.pos, self.pages = emb.edges, emb.pos, emb.pages
        self.partner = [[-1] * len(emb.order) for _ in range(emb.m)]

    def complete(self, todo: list[Todo]) -> BookEmbedding:
        """Depth-first completion of `todo` in order, palettes as given; the
        embedding, its pages all written."""

        self._nodes = 0
        if not self._search(todo, 0):
            raise CompletionError(self.rule, "no completion within the given palette")
        return self.emb

    def _search(self, todo: list[Todo], i: int) -> bool:
        # a method, not a closure over itself: a self-referencing closure is
        # a reference cycle that keeps the whole assignment alive until the
        # garbage collector runs.  One frame per todo edge: the span, the
        # fit test, the placement and its undo are written out here; the
        # undo leaves the page byte as it is, as nothing reads it before
        # the search succeeds.
        if i == len(todo):
            return True
        self._nodes += 1
        if self._nodes > _NODE_CAP:
            raise CompletionError(self.rule, f"completion exceeded {_NODE_CAP} nodes")
        k, palette = todo[i]
        e = self.edges[k]  # few locals: a deep search holds one frame per todo edge
        a, b = self.pos[e[0]], self.pos[e[1]]
        if a > b:
            a, b = b, a
        for page in palette:
            at = self.partner[page]
            if at[a] != -1 or at[b] != -1:
                continue
            x = a + 1
            while x < b:
                y = at[x]
                if y == -1:
                    x += 1
                elif x < y < b:  # a chord nested inside: jump past it
                    x = y + 1
                else:  # a chord leaving (a, b) crosses it
                    break
            else:
                at[a], at[b] = b, a
                self.pages[k] = page
                if self._search(todo, i + 1):
                    return True
                at[a] = at[b] = -1
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
    V = residual_cycles(spec)
    _, wrapping = _wraps(t, d)

    # fibre pages by the tail's column class, whose parity is the column's as
    # gcd(t, d) is even: yellow on odd classes, purple on even ones, green on
    # the wrapping columns (the last class)
    row = [YELLOW, PURPLE] * (t // 2)
    for j in wrapping:
        row[j - 1] = GREEN

    # one red seam per residual cycle (its closing edge), then finish each
    # cycle path within the stated palette
    fixed = cat.fibres(row * s) + [(2 * cyc[-1] + 1, RED) for cyc in V]
    palette = (RED, GREEN, PURPLE) if s % 2 == 0 else (RED, GREEN, BLUE)
    todo = [(2 * v + 1, palette) for cyc in V for v in cyc[:-1]]
    return _zigzag(V), fixed, todo


def _shift_odd_bipartite(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """t even, s and d odd: columns paired from both ends."""

    s, t, d = spec.s, spec.t, spec.phi.d
    spine = _zigzag(cat.column(j) for r in range(t // 2) for j in (1 + 2 * r, t - 2 * r))
    fixed = cat.fibres([GREEN, YELLOW] * (t // 2) * s)
    # the seams landing on columns 1..t in turn, red and purple alternating:
    # from tail column 1 - d to t, then from 1 to -d
    first = cat.rung(s, 1 - d)
    seams = [*range(first, cat.size, 2), *range(cat.rung(s, 1), first, 2)]
    fixed += zip(seams, [RED, PURPLE] * (t // 2))
    todo = [(e, (RED, PURPLE)) for j in range(1, t + 1) for e in cat.column_rungs(j)]
    return spine, fixed, todo


def _shift_odd_nonbipartite(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """gcd(t, d) odd, graph nonbipartite: interleaved spine, 5 pages."""

    s, t, d = spec.s, spec.t, spec.phi.d
    g_ = gcd(t, d)
    V = residual_cycles(spec)
    even_residual = len(V[0]) % 2 == 0
    landing, wrapping = _wraps(t, d)

    # fibre pages by the tail's column class k: purple on k = 1, green on even
    # k, yellow on the other odd k; yellow on the landing columns (class 1)
    # and purple on the wrapping ones (class g)
    row = ([PURPLE] + [GREEN, YELLOW] * (g_ // 2)) * (t // g_)
    for j in landing:
        row[j - 1] = YELLOW
    for j in wrapping:
        row[j - 1] = PURPLE
    # Odd residuals only.  For g = 3 the blue fibre edge from (s, 2-d) would
    # end on (s, 3-d), the last vertex of the last residual cycle and so an
    # endpoint of its blue closing seam; yellow is the proper repair.
    cells = () if even_residual else (
        ((s, 2 - d), YELLOW if g_ == 3 else BLUE), ((2, 1), BLUE), ((s, 1 - d), GREEN),
        ((1, 1), PURPLE), ((s - 1, 1 - d), RED), ((1, t), RED),
    )

    # the first two cycles interleaved element by element, then the others
    spine = _zigzag(zip(V[0], V[1])) + _zigzag(V[2:], first_reversed=True)
    fixed = cat.fibres(row * s, cells)

    # first two residual cycles: red/blue alternations; an odd one opens
    # yellow and closes purple, then blue on the first and red on the second
    for last, cyc in zip((BLUE, RED), V[:2]):
        L = len(cyc)
        if even_residual:
            cycle_pages = [RED, BLUE] * (L // 2)
        else:
            cycle_pages = [BLUE, RED] * (L // 2) + [BLUE]
            cycle_pages[0], cycle_pages[-2], cycle_pages[-1] = YELLOW, PURPLE, last
        fixed += zip([2 * v + 1 for v in cyc], cycle_pages)

    # middle residual cycles, whole cycle searched
    todo = [(2 * v + 1, (RED, PURPLE, BLUE)) for cyc in V[2:-1] for v in cyc]

    # last residual cycle: blue closing seam, yellow/red on the ladder through
    # the wrapping columns it ends with, purple/red before it
    path = [2 * v + 1 for v in V[-1]]
    fixed.append((path.pop(), BLUE))
    start = len(path) + 1 - s * len(wrapping)  # path-edge index the ladder follows
    todo += [(e, (PURPLE, RED)) for e in path[:start]]
    todo += [(e, (YELLOW, RED)) for e in path[start:]]
    if start % 2 == 1:  # the one phase switch before the seam: blue second-last
        todo[-2] = (path[-2], todo[-2][1] + (BLUE,))
    return spine, fixed, todo


# ----------------------------------------------------------- reflections ---


def _refl_base_odd(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    """Reflection gluing over an odd base: rows zig-zag along the spine."""

    s, t, kind = spec.s, spec.t, spec.phi.kind
    spine = _zigzag((cat.row(i) for i in range(1, s + 1)), first_reversed=True)

    # the rungs row by row, yellow from odd rows and green from even ones
    seam = cat.rung(s, 1)
    fixed = list(zip(range(1, seam, 2), ([YELLOW] * t + [GREEN] * t) * (s // 2)))
    if kind in (REFL_NONE, REFL_ONE):
        fixed += [(e, PURPLE) for e in range(seam, cat.size, 2)]
    else:  # the seam on the fixed column 1, then the others by falling tail column
        fixed.append((seam, BLUE))
        fixed += [(e, PURPLE) for e in range(cat.rung(s, t), seam, -2)]

    palette = (YELLOW, GREEN, PURPLE, RED) if t % 2 == 0 else (YELLOW, GREEN, PURPLE, RED, BLUE)
    todo = [(e, palette) for e in range(0, cat.size, 2)]
    return spine, fixed, todo


def _refl_even_two_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    spine = _zigzag(cat.column(j) for j in range(1, spec.t + 1))
    fixed = cat.fibres([YELLOW, GREEN] * (spec.t // 2) * spec.s)
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
    fixed = cat.fibres([BLUE, YELLOW, RED] + [PURPLE, BLUE, RED] * (s - 1))  # row 1, then rows 2..s
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

    # fibre pages: yellow on odd columns, green on even ones and red on
    # column t, but for four cells by the wrap
    row = [YELLOW, GREEN] * (t // 2) + [RED]
    cells = ((1, t), GREEN), ((2, t), YELLOW), ((2, 1), RED), ((1, t - 1), BLUE)
    fixed += cat.fibres(row * s, cells)
    return _one_fixed_spine(cat, s, t), fixed, todo


def _refl_even_no_fixed(cat: SequenceCatalog, spec: BundleSpec) -> Plan:
    s, t = spec.s, spec.t
    h = t // 2

    def outer(j: int) -> tuple[int, int]:  # top and bottom vertices of column j
        return cat.flat(1, j), cat.flat(s, j)

    def inner(j: int) -> range:  # rows 2..s-1 of column j
        return range(t + j - 1, (s - 1) * t, t)

    spine = _zigzag(
        [outer(j) + outer(t + 1 - j) for j in range(1, h + 1)]
        + [[*inner(j), *inner(t + 1 - j)[::-1]] for j in range(h, 0, -1)]
    )

    # fibre pages: yellow on odd columns and green on even ones, but blue from
    # (1, h) and (1, t) and red from (s, h) and (s, t)
    cells = ((1, h), BLUE), ((1, t), BLUE), ((s, h), RED), ((s, t), RED)
    fixed = cat.fibres([YELLOW, GREEN] * h * s, cells)

    pins: list[Fixed] = []
    for j in (1, h):
        pins += [(cat.rung(s - 1, j), PURPLE), (cat.rung(1, j), RED)]
    for j in (h + 1, t):
        pins += [(cat.rung(s - 1, j), BLUE), (cat.rung(1, j), PURPLE)]
    pins += [(cat.rung(s, t), GREEN), (cat.rung(s, 1), GREEN)]
    for j in range(2, h):
        pins += [(cat.rung(s, t + 1 - j), RED), (cat.rung(s, j), RED)]
    half_seam = YELLOW if h % 2 == 1 else GREEN
    pins += [(cat.rung(s, h + 1), half_seam), (cat.rung(s, h), half_seam)]

    placed = {e for e, _ in pins}
    fixed += pins
    columns = [cat.column_rungs(j) for j in range(1, t + 1)]
    todo = [(e, (RED, PURPLE, BLUE)) for column in columns for e in column if e not in placed]
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
    cat = SequenceCatalog(spec)
    plan = layout(cat, spec)
    index = _check_plan(cat, plan, parity_pages(spec), rule)
    todo = plan[2]
    del plan  # the spine is in the embedding and the fixed pages in the index
    emb = index.complete(todo)
    del index  # its per-page places, before the graph and validate allocate their own

    # bundle(spec) on the embedding's own edge set, which validate compares
    # with it; built after the search, so the set never meets the index
    graph = Graph(spec.s * spec.t, emb.edge_set)
    report = validate(graph, emb)
    if not report.ok:
        raise CompletionError(rule, f"assignment invalid: {report.violations[:3]}")
    if report.pages_used != emb.m:
        raise CompletionError(rule, f"used {report.pages_used} pages, claimed {emb.m}")
    return ConstructionResult(graph, emb, rule, report)
