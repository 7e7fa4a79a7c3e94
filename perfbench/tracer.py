"""Spans around the calls into bookbind's layers, recorded from outside.

``Tracer.install`` wraps each layer's public functions by rebinding every
name, in every loaded ``bookbind.*`` module, that refers to the original
function, so calls between modules go through the wrapper.  Each call records
a span ``[id, layer, start, end, parent, op, info]``; spans stay in memory
and ``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

from checker import rule_tag

# (layer, module, function).  Several functions may feed one layer.
FUNCTIONS = (
    ("graph_core.bundle", "bookbind.graph_core", "bundle"),
    ("graph_core.is_bipartite", "bookbind.graph_core", "is_bipartite"),
    ("bundle_decomp.residual_cycles", "bookbind.bundle_decomp", "residual_cycles"),
    ("bundle_decomp.residual_cycles", "bookbind.bundle_decomp", "shift_residual_cycles"),
    ("bundle_decomp.residual_cycles", "bookbind.bundle_decomp", "reflection_residual_cycles"),
    ("constructions.embed", "bookbind.constructions", "embed"),
    ("layout_engine.validate", "bookbind.layout_engine", "validate"),
    ("layout_engine.classify", "bookbind.layout_engine", "classify"),
    ("oracle.lower_bound", "bookbind.oracle", "lower_bound"),
    ("oracle.certify", "bookbind.oracle", "certify"),
    ("oracle.search", "bookbind.oracle", "search_fixed_pages"),
    ("cli.main", "bookbind.cli", "main"),
)
# (layer, module, class, method): the embedding's JSON codec.
METHODS = (
    ("layout_engine.json", "bookbind.layout_engine", "BookEmbedding", "to_json"),
    ("layout_engine.json", "bookbind.layout_engine", "BookEmbedding", "from_json"),
)


def _spec_tag(spec) -> str:
    phi = spec.phi
    if hasattr(phi, "d"):
        return rule_tag(spec.s, spec.t, "shift", str(phi.d))
    return rule_tag(spec.s, spec.t, "refl", phi.kind)


def _info(layer: str, args, exc: BaseException | None):
    """Per-span detail: edges validated, or how an embed failed."""

    if layer == "layout_engine.validate":
        return len(args[0].edges)
    if layer == "constructions.embed" and exc is not None:
        return [type(exc).__name__, getattr(exc, "rule", None) or _spec_tag(args[0])]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []  # targets that no longer exist
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(tracer.spans), layer, perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None, tracer.op, None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            exc = None
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                span[3] = perf_counter()
                span[6] = _info(layer, args, exc)
                tracer._stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target; names not found go to ``missing``."""

        modules = [m for name, m in sys.modules.items() if name.startswith("bookbind")]
        for layer, module, name in FUNCTIONS:
            original = getattr(sys.modules.get(module), name, None)
            if original is None:
                self.missing.append(f"{module}.{name}")
                continue
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for layer, module, cls_name, name in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(name)
            if raw is None:
                self.missing.append(f"{module}.{cls_name}.{name}")
                continue
            self._undo.append((cls, name, raw))
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, raw.__func__)))
            else:
                setattr(cls, name, self._wrap(layer, raw))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def end_op(self) -> None:
        """Drop spans left open by an op cut off mid-call."""

        self._stack.clear()
        self.op = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per layer: outermost calls, their wall time, self time, and its spans.

    A span nested in a span of the same layer (``residual_cycles`` calling
    ``shift_residual_cycles``) is folded into its parent.  Self time is a
    span's duration minus the time its direct child spans cover; ``spans``
    pairs each span with its self time.
    """

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None and span[4] is not None:
            child_time[span[4]] += span[3] - span[2]
    totals: dict[str, dict] = {}
    for span in spans:
        if span[3] is None:
            continue
        row = totals.setdefault(span[1], {"calls": 0, "wall": 0.0, "self": 0.0, "spans": []})
        dur = span[3] - span[2]
        own = dur - child_time[span[0]]
        row["self"] += own
        row["spans"].append((span, own))
        if span[4] is None or spans[span[4]][1] != span[1]:
            row["calls"] += 1
            row["wall"] += dur
    return totals
