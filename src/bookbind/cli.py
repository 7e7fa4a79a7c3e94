"""Command-line front end.

Exit codes:
  0   success
  1   sweep completed but at least one row failed (an unexpected error fails one row)
  2   embedding invalid (properness/crossing violations or bad coverage)
  3   construction unsupported for the given parameters (reduction printed)
  4   search ended without a definitive answer (budget exhausted)
  64  usage: bad arguments or malformed spec string
  65  well-formed but invalid parameters (bounds, palette too small, ...)
  66  I/O or unreadable input file
  70  internal error: a construction recipe failed to complete, or any
      other unexpected exception (reported in one line)

Spec strings: ``s=5,t=8,phi=shift:2``, ``s=4,t=9,phi=refl:one``, or
``circulant:n=9,S=1,3`` where a circulant is accepted (build, verify and
mbt; embed and render need a bundle spec and exit 65 on a circulant).

BOOKBIND_THREADS is accepted but ignored, since the tool is single-threaded;
any value other than 1 earns a note on stderr.
"""

from __future__ import annotations

import argparse
import functools
import html
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd

from .constructions import CompletionError, ConstructionResult, Unsupported, embed, parity_pages
from .graph_core import (
    BundleSpec,
    Graph,
    InvalidSpecError,
    Reflection,
    Shift,
    SpecFormatError,
    bundle,
    circulant,
    format_bundle_spec,
    parse_bundle_spec,
    parse_int,
    vertex_pair,
)
from .layout_engine import (
    COLOR_NAMES,
    BookEmbedding,
    CoverageError,
    classify,
    validate,
)
from .oracle import (
    CERTIFIED,
    EXACT,
    OracleError,
    SearchBudget,
    brute_force_mbt,
    certify,
    check_page_count,
    search_fixed_pages,
)

EXIT_OK = 0
EXIT_SWEEP_FAILURES = 1
EXIT_INVALID_EMBEDDING = 2
EXIT_UNSUPPORTED = 3
EXIT_UNDECIDED = 4
EXIT_USAGE = 64
EXIT_PARAMS = 65
EXIT_IO = 66
EXIT_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    """argparse's default error exit is 2, which collides with the
    invalid-embedding code; route usage problems to 64 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_option(text: str) -> int:
    return parse_int(text)


_int_option.__name__ = "int"  # argparse names it: "invalid int value: 'x'"


def _parse_spec(text: str) -> Graph | BundleSpec:
    """Bundle spec string, or ``circulant:n=..,S=k1,k2,..`` for a graph."""

    if text.startswith("circulant:"):
        body = text[len("circulant:") :]
        left, sep, right = body.partition(",S=")
        if not sep or not left.startswith("n="):
            raise SpecFormatError(f"expected circulant:n=<int>,S=<k1>,<k2>,..: {text!r}")
        try:
            n = parse_int(left[2:])
            jumps = [parse_int(part) for part in right.split(",")]
        except ValueError as exc:
            raise SpecFormatError(f"bad circulant spec {text!r}: {exc}") from exc
        return circulant(n, jumps)
    return parse_bundle_spec(text)


def _require_bundle(parsed: Graph | BundleSpec, command: str) -> BundleSpec:
    if not isinstance(parsed, BundleSpec):
        raise InvalidSpecError(f"{command} works on bundle specs, not circulants")
    return parsed


def _graph_of(parsed: Graph | BundleSpec) -> Graph:
    return bundle(parsed) if isinstance(parsed, BundleSpec) else parsed


def _dumps(payload) -> str:
    """The one JSON encoder: every payload bookbind prints or writes.

    The text is byte-for-byte ``json.dumps(payload, indent=2,
    sort_keys=True)`` plus a newline.  It is not that call because before
    Python 3.13 ``indent`` turns off the stdlib's C encoder, and writing an
    embedding then took longer than building it.  So the shapes bookbind's
    payloads are made of are written here: a list of ints with one join, a
    list of equal-length int lists (edges, pages, relabel) with one ``%``
    format; other lists and str-keyed dicts recurse, and a finite float is
    its ``repr``.  Any other value (NaN, an infinity, a tuple, a dict with
    other keys) goes to the stdlib at indent 0, and each newline in its text
    becomes the newline and indent of its place.  That is safe because a
    JSON string never holds a raw newline (it is escaped as ``\\n``), so
    every newline in the text is layout.
    """

    def encode(x, nl: str) -> str:
        kind = type(x)
        if kind is int:
            return int.__repr__(x)
        if kind is str:
            return encode_basestring_ascii(x)
        if x is None:
            return "null"
        if kind is bool:
            return "true" if x else "false"
        if kind is float and math.isfinite(x):
            return float.__repr__(x)
        inner = nl + "  "
        sep = "," + inner
        if kind is dict and x and {*map(type, x)} == {str}:
            items = sorted(x.items())
            body = sep.join(f"{encode_basestring_ascii(k)}: {encode(v, inner)}" for k, v in items)
            return "{" + inner + body + nl + "}"
        if kind is list and x:
            kinds = {*map(type, x)}
            if kinds == {int}:
                return "[" + inner + sep.join(map(int.__repr__, x)) + nl + "]"
            if kinds == {list} and len({*map(len, x)}) == 1:
                flat = tuple(chain.from_iterable(x))
                if {*map(type, flat)} == {int}:
                    cell = inner + "  "
                    row = "[" + cell + ("," + cell).join(["%d"] * len(x[0])) + inner + "]"
                    return ("[" + inner + sep.join([row] * len(x)) + nl + "]") % flat
            return "[" + inner + sep.join([encode(v, inner) for v in x]) + nl + "]"
        return json.dumps(x, indent=2, sort_keys=True).replace("\n", nl)

    return encode(payload, "\n") + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dot(g: Graph) -> str:
    lines = ["graph g {"]
    lines += [f"  {u} -- {v};" for u, v in g.edge_list]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_build(args) -> int:
    g = _graph_of(_parse_spec(args.spec))
    text = _dumps(g.to_payload()) if args.format == "json" else _dot(g)
    _emit(text, args.out)
    return EXIT_OK


def _embedding_payload(spec: BundleSpec, res: ConstructionResult) -> dict:
    return {
        "spec": format_bundle_spec(spec),
        "rule": res.rule,
        "pages": res.embedding.m,
        "classification": classify(res.graph, res.report),
        "embedding": res.embedding.to_payload(),
    }


def cmd_embed(args) -> int:
    spec = _require_bundle(_parse_spec(args.spec), "embed")
    res = embed(spec)
    _emit(_dumps(_embedding_payload(spec, res)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _parse_spec(args.spec)  # spec errors first, then the file, then the graph
    try:
        with open(args.embedding, encoding="utf-8") as fh:
            payload = json.loads(fh.read())
    except OSError as exc:
        sys.stderr.write(f"cannot read {args.embedding}: {exc}\n")
        return EXIT_IO
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, an integer past sys.get_int_max_str_digits(),
        # or nested past the decoder's recursion limit
        sys.stderr.write(f"{args.embedding}: bad embedding payload: {exc}\n")
        return EXIT_IO
    if isinstance(payload, dict) and "embedding" in payload:  # written by `embed --out`
        payload = payload["embedding"]
    try:
        emb = BookEmbedding.from_payload(payload)
    except SpecFormatError as exc:
        sys.stderr.write(f"{args.embedding}: {exc}\n")
        return EXIT_IO
    try:
        report = validate(_graph_of(spec), emb)
    except CoverageError as exc:
        sys.stdout.write(_dumps({"ok": False, "error": str(exc)}))
        return EXIT_INVALID_EMBEDDING
    payload = {
        "ok": report.ok,
        "proper": report.is_proper,
        "noncrossing": report.is_noncrossing,
        "pages_used": report.pages_used,
        "violations": [[list(e), list(f), why] for e, f, why in report.violations],
    }
    sys.stdout.write(_dumps(payload))
    return EXIT_OK if report.ok else EXIT_INVALID_EMBEDDING


def cmd_mbt(args) -> int:
    parsed = _parse_spec(args.spec)  # spec errors first, then the options, then the graph
    budget = SearchBudget(args.max_orders, args.max_nodes, args.time_limit)
    if args.pages is not None:
        check_page_count(args.pages)
        res = search_fixed_pages(_graph_of(parsed), args.pages, budget)
        payload = {"m": res.m, "found": res.found, "exhausted": res.exhausted}
        code = EXIT_OK if res.found or res.exhausted else EXIT_UNDECIDED
    else:
        res = brute_force_mbt(_graph_of(parsed), budget)
        payload = {"status": res.status, "value": res.value}
        code = EXIT_OK if res.status == EXACT else EXIT_UNDECIDED
    payload["counters"] = res.counters
    payload["witness"] = None if res.witness is None else res.witness.to_payload()
    sys.stdout.write(_dumps(payload))
    return code


_MARGIN = 40.0  # canvas border around the spine circle, room for the labels


def _render_svg(
    emb: BookEmbedding, radius: float, palette: list[str], labels: str, t: int
) -> str:
    size = 2 * (radius + _MARGIN)
    cx = cy = radius + _MARGIN

    def at(v: int, r: float) -> tuple[float, float]:  # clockwise from twelve o'clock
        theta = 2 * math.pi * emb.pos[v] / len(emb.order)
        return cx + r * math.sin(theta), cy - r * math.cos(theta)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.2f}" '
        f'height="{size:.2f}" viewBox="0 0 {size:.2f} {size:.2f}">',
        f'  <circle class="spine" cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" '
        f'fill="none" stroke="#cccccc"/>',
    ]
    for (u, v), page in sorted(emb.pages.items()):
        (x1, y1), (x2, y2) = at(u, radius), at(v, radius)
        lines.append(
            f'  <line class="chord" x1="{x1:.2f}" y1="{y1:.2f}" '
            f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="{palette[page]}"/>'
        )
    for v in emb.order:
        x, y = at(v, radius)
        lines.append(f'  <circle class="vertex" cx="{x:.2f}" cy="{y:.2f}" r="3.00" fill="#222222"/>')
        p, q = vertex_pair(v, t)
        label = f"({p + 1},{q + 1})" if labels == "pair" else str(v)
        lx, ly = at(v, radius + 16)
        lines.append(
            f'  <text class="label" x="{lx:.2f}" y="{ly:.2f}" '
            f'font-size="10" text-anchor="middle">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_render(args) -> int:
    spec = _require_bundle(_parse_spec(args.spec), "render")
    m = parity_pages(spec)  # the m that `embed` builds: bad arguments fail before it runs
    palette = list(COLOR_NAMES) if args.palette is None else args.palette.split(",")
    if len(palette) < m or any(not c.strip() for c in palette):
        raise InvalidSpecError(f"palette needs at least {m} non-empty colors")
    if not (math.isfinite(args.radius) and args.radius > 0):
        raise InvalidSpecError(f"radius must be positive and finite, got {args.radius}")
    if not math.isfinite(2 * (args.radius + _MARGIN)):
        raise InvalidSpecError(f"radius {args.radius} is too large: the canvas size overflows")
    res = embed(spec)
    palette = [html.escape(c) for c in palette]  # each goes into an XML attribute
    svg = _render_svg(res.embedding, args.radius, palette, args.labels, spec.t)
    _emit(svg, args.out)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        a = parse_int(lo)
        return a, parse_int(hi) if sep else a
    except ValueError as exc:
        raise SpecFormatError(f"bad range {text!r}; want A or A:B") from exc


def _sweep_specs(family: str, s_range: tuple[int, int], t_range: tuple[int, int]):
    for s in range(s_range[0], s_range[1] + 1):
        for t in range(t_range[0], t_range[1] + 1):
            if family == "shift":
                for d in range(1, t // 2 + 1):
                    if gcd(t, d) > 1:
                        yield BundleSpec(s, t, Shift(d))
            else:
                kinds = ("one",) if t % 2 else ("none", "two")
                for kind in kinds:
                    yield BundleSpec(s, t, Reflection(kind))


def cmd_sweep(args) -> int:
    s_range = _parse_range(args.s)
    t_range = _parse_range(args.t)
    if s_range[0] > s_range[1] or t_range[0] > t_range[1]:
        raise InvalidSpecError(f"empty sweep ranges s={args.s!r} t={args.t!r}")
    for name, (low, _) in (("s", s_range), ("t", t_range)):
        if low < 3:  # a cycle needs 3 vertices, in both families
            raise InvalidSpecError(f"sweep bound {name}={low} is below 3")
    rows = failures = 0
    for spec in _sweep_specs(args.family, s_range, t_range):
        rows += 1
        name = format_bundle_spec(spec)
        predicted = parity_pages(spec)
        try:
            res = embed(spec)  # every swept spec has a rule
            report = res.report
            cert = certify(res.graph, report)
            ok = cert.status == CERTIFIED
            line = (
                f"{name}\tpredicted={predicted}\tpages={report.pages_used}"
                f"\tvalid={'yes' if report.ok else 'NO'}"
                f"\tcertified={'yes' if ok else 'NO'}"
                f"\t{'ok' if ok else 'FAIL'}"
            )
        except Exception as exc:  # a bug in one row must not hide the others
            ok = False
            expected = isinstance(exc, CompletionError)
            why = exc if expected else f"internal error: {type(exc).__name__}: {exc}"
            line = f"{name}\tpredicted={predicted}\tERROR: {why}"
        failures += 0 if ok else 1
        sys.stdout.write(line + "\n")
    if rows == 0:
        raise InvalidSpecError("sweep matched no parameter combinations")
    sys.stdout.write(f"rows={rows} failures={failures}\n")
    return EXIT_SWEEP_FAILURES if failures else EXIT_OK


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused for the process."""

    p = _Parser(prog="bookbind", description="Matching book embeddings of cycle bundles.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    b = sub.add_parser("build", help="construct the graph and print it")
    b.add_argument("spec")
    b.add_argument("--format", choices=("json", "dot"), default="json")
    b.add_argument("--out")
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("embed", help="produce an optimal matching book embedding")
    e.add_argument("spec")
    e.add_argument("--out")
    e.set_defaults(func=cmd_embed)

    v = sub.add_parser("verify", help="validate an embedding JSON file against a spec")
    v.add_argument("spec")
    v.add_argument("--embedding", required=True, help="path to embedding JSON")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("mbt", help="brute-force matching book thickness")
    m.add_argument("spec")
    m.add_argument("--pages", type=_int_option, help="test exactly this page count")
    m.add_argument("--max-orders", type=_int_option)
    m.add_argument("--max-nodes", type=_int_option)
    m.add_argument("--time-limit", type=float, help="seconds")
    m.set_defaults(func=cmd_mbt)

    r = sub.add_parser("render", help="deterministic SVG of the embedding")
    r.add_argument("spec")
    r.add_argument("--out")
    r.add_argument("--radius", type=float, default=180.0)
    r.add_argument("--palette", help="comma-separated chord colors, one per page")
    r.add_argument("--labels", choices=("flat", "pair"), default="flat")
    r.set_defaults(func=cmd_render)

    w = sub.add_parser("sweep", help="embed+verify+certify a parameter grid")
    w.add_argument("--family", choices=("shift", "reflection"), required=True)
    w.add_argument("--s", required=True, metavar="A:B")
    w.add_argument("--t", required=True, metavar="A:B")
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    threads = os.environ.get("BOOKBIND_THREADS")
    if threads is not None and threads.strip() != "1":
        sys.stderr.write("note: BOOKBIND_THREADS ignored; bookbind is single-threaded\n")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits; fold into the return-code API
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Unsupported as exc:
        reduction = None if exc.reduction is None else exc.reduction.to_payload()
        sys.stdout.write(_dumps({"unsupported": exc.reason, "reduction": reduction}))
        return EXIT_UNSUPPORTED
    except SpecFormatError as exc:
        sys.stderr.write(f"bookbind: {exc}\n")
        return EXIT_USAGE
    except (InvalidSpecError, OracleError) as exc:
        sys.stderr.write(f"bookbind: {exc}\n")
        return EXIT_PARAMS
    except CompletionError as exc:
        sys.stderr.write(f"bookbind: construction failed: {exc}\n")
        return EXIT_INTERNAL
    except OSError as exc:
        sys.stderr.write(f"bookbind: {exc}\n")
        return EXIT_IO
    except Exception as exc:  # anything else is a bug: one line, not a traceback
        sys.stderr.write(f"bookbind: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
