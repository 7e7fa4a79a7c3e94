"""bookbind benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  bookbind is imported from ``src/`` and
driven through ``bookbind.cli.main`` in-process, with the argv a user would
type: one process, one thread, one op in flight (a closed loop with a
single caller).  Every output is checked by ``checker``, which shares no
code with bookbind.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Per-op latencies,
and the traced run's spans, are written to ``.perfbench_work/``.  Exit
status 0 means every output was correct; failed ops are counted, not fatal.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
from time import perf_counter

import checker
import workloads
from harness import probe_seconds, speed, start_probes, stop_probes, tail_percentile
from tracer import Tracer, layer_totals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Set up at least SETUP_MIN_REPEATS times and for at least SETUP_MIN_S, so
# that a set-up of a few milliseconds still yields a steady median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 15, 1.0

# Read before anything can change it: the harness must leave the recursion
# limit alone so that bookbind's RecursionError on deep completions shows.
DEFAULT_RECURSION_LIMIT = sys.getrecursionlimit()


def _import_bookbind() -> None:
    """(Re)import bookbind from src/, as a fresh process would."""

    for name in [m for m in sys.modules if m == "bookbind" or m.startswith("bookbind.")]:
        del sys.modules[name]
    importlib.import_module("bookbind.cli")


def _measure(workload, seconds: float, tracer=None, replay=None) -> tuple[list, float]:
    """Run ops until the workload stops (or replay a fixed op list).

    Each result's ``speed`` is the host's speed during the op, from the
    probes (below 1 while the host ran slow).
    """

    results, spans = [], []
    start = perf_counter()
    deadline = start + seconds
    ops = iter(replay) if replay is not None else None
    while True:
        if ops is not None:
            op = next(ops, None)
        else:
            op = workload.next_op(perf_counter() < deadline)
        if op is None:
            break
        if tracer is not None:
            tracer.op = len(results)
        op_start = perf_counter()
        results.append(workload.execute(op))
        spans.append((op_start, perf_counter()))
        if tracer is not None:
            tracer.end_op()
        if sys.getrecursionlimit() != DEFAULT_RECURSION_LIMIT:
            raise RuntimeError("the recursion limit changed during an op")
    wall = perf_counter() - start
    for r, (lo, hi) in zip(results, spans):
        r.speed = speed(lo, hi)
    return results, wall


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(workload, results: list, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and report lines under each workload's own names."""

    units = sum(r.units for r in results)
    units_ok = sum(r.units_ok for r in results)
    timed = [r.adjusted_s for r in results if r.timed]
    p50 = statistics.median(timed)
    pct, tail = tail_percentile(timed)
    # Throughput: ok work over the seconds spent inside bookbind.
    busy = sum(r.extra["call_s"] for r in results)
    busy_adjusted = sum(r.extra["call_s"] * r.speed for r in results)
    if workload.name == "scale":  # per-tag medians, not single round trips
        summary = workload.summary(results)
        p50 = summary["roundtrip_s"][workload.timed_tier]
        tail = summary["slowest_tag_s"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": (units_ok / units, "share"),
        "op_p50_ms": (_ms(p50), "ms"),
        "op_tail_ms": (_ms(tail), "ms"),
        "ok_per_s": (sum(r.work_ok for r in results) / busy_adjusted, "1/s"),
    }
    tail_note = f"p{pct:.1f} of n={len(timed)}, {len(timed) - round(pct * len(timed) / 100)} beyond"
    lines = [
        f"setup_s              {setup_s:.4f} s",
        f"failed_share         {1 - units_ok / units:.4f}  ({units - units_ok} failed of "
        f"{units} {'rows' if workload.name == 'sweep' else 'ops'})",
        f"peak_rss_mb          {rss_mb:.1f} MB",
    ]
    if workload.name == "sweep":
        lines += [
            f"ok_rows_per_s        {metrics['ok_per_s'][0]:.2f} 1/s  ({units_ok} ok rows in "
            f"{busy_adjusted:.2f} s adjusted, {busy:.2f} s measured)",
            f"cell_p50_ms          {_ms(p50):.2f} ms  (n={len(timed)} cells)",
            f"cell_tail_ms         {_ms(tail):.2f} ms  ({tail_note})",
        ]
    elif workload.name == "scale":
        lines.append(f"max_edges_ok         {summary['max_edges_ok']} edges  "
                     f"(tier {summary['max_tier']})")
        for tier, value in summary["roundtrip_s"].items():
            lines.append(f"roundtrip_s.{tier:<8} {value:.4f} s  (median over tags, censored "
                         f"at {workload.limit_s:.1f} s)")
        lines.append(f"op_tail_ms           {_ms(tail):.2f} ms  (slowest tag's median e1k round trip)")
        lines.append(f"handoff              {workload.handoff}")
    elif workload.name == "verify-invalid":
        lines += [
            f"verify_p50_ms        {_ms(p50):.2f} ms  (n={len(timed)})",
            f"verify_tail_ms       {_ms(tail):.2f} ms  ({tail_note})",
        ]
    else:
        orders = sum(r.extra.get("orders", 0) for r in results if r.units_ok)
        nodes = sum(r.extra.get("nodes", 0) for r in results if r.units_ok)
        lines += [
            f"orders_per_s         {orders / busy_adjusted:.1f} 1/s  ({orders} orders in "
            f"{busy_adjusted:.2f} s adjusted, {busy:.2f} s measured)",
            f"nodes_per_s          {nodes / busy_adjusted:.1f} 1/s  ({nodes} nodes)",
        ]
    return metrics, lines


def _expected_validate_calls(workload, r) -> int | None:
    """``validate`` calls one op makes on the seed, when the op says."""

    if workload.name == "sweep":
        return 3 * r.extra["ok_rows"]
    if workload.name == "scale":
        return 3 if r.work_ok else None  # embed: sealed result + classify; verify: 1
    if workload.name == "verify-invalid":
        return None if r.failures else 1
    return 0


def per_layer(workload, tracer: Tracer, results: list, replayed: list) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans, the reach check and the overhead."""

    totals = layer_totals(tracer.spans)
    ops = max(1, len(results))

    def row(layer: str) -> dict:
        return totals.get(layer, {"calls": 0, "wall": 0.0, "self": 0.0, "spans": []})

    m: dict[str, tuple[float, str]] = {}
    m["graph_core.bundle.calls_per_op"] = (row("graph_core.bundle")["calls"] / ops, "count")
    for layer in ("graph_core.bundle", "graph_core.is_bipartite", "bundle_decomp.residual_cycles",
                  "layout_engine.json", "oracle.lower_bound"):
        m[f"{layer}.ms_per_op"] = (_ms(row(layer)["wall"]) / ops, "ms/op")
    for layer in ("constructions.embed", "layout_engine.validate", "layout_engine.classify",
                  "oracle.certify", "cli.main"):
        m[f"{layer}.self_ms_per_op"] = (_ms(row(layer)["self"]) / ops, "ms/op")

    embed_failures = [span[6] for span, _ in row("constructions.embed")["spans"] if span[6]]
    m["constructions.embed.failed"] = (float(len(embed_failures)), "count")
    for tag in checker.RULE_TAGS:
        n = sum(1 for _, t in embed_failures if t == tag)
        m[f"constructions.embed.failed.{tag.replace('/', '.')}"] = (float(n), "count")
    for exc in ("CompletionError", "RecursionError", "OpTimeout"):
        n = sum(1 for e, _ in embed_failures if e == exc)
        m[f"constructions.embed.failed.{exc}"] = (float(n), "count")

    validate = row("layout_engine.validate")
    m["layout_engine.validate.calls_per_op"] = (validate["calls"] / ops, "count")
    edges = sum(span[6] for span, _ in validate["spans"])
    m["layout_engine.validate.us_per_edge"] = (validate["self"] * 1e6 / max(1, edges), "us/edge")
    for tier, _ in workloads.TIERS:
        spans = [(span, own) for span, own in validate["spans"]
                 if results[span[5]].extra.get("tier") == tier]
        busy = sum(own for _, own in spans)
        m[f"layout_engine.validate.us_per_edge.{tier}"] = (
            busy * 1e6 / max(1, sum(span[6] for span, _ in spans)), "us/edge")

    orders = nodes = 0
    for name, *_ in workloads.ORACLE_CASES:
        seen = [r.extra for r in results if r.extra.get("graph") == name and "orders" in r.extra]
        m[f"oracle.search.orders.{name}"] = (float(seen[-1]["orders"] if seen else 0), "count")
        m[f"oracle.search.nodes.{name}"] = (float(seen[-1]["nodes"] if seen else 0), "count")
        orders += sum(e["orders"] for e in seen)
        nodes += sum(e["nodes"] for e in seen)
    search_wall = row("oracle.search")["wall"]
    m["oracle.search.us_per_order"] = (search_wall * 1e6 / max(1, orders), "us/order")
    m["oracle.search.us_per_node"] = (search_wall * 1e6 / max(1, nodes), "us/node")
    m["cli.output.bytes_per_op"] = (sum(r.out_bytes for r in results) / ops, "bytes")

    traced = sum(r.extra["call_s"] * r.speed for r in results)
    untraced = sum(r.extra["call_s"] * r.speed for r in replayed)
    overhead = 100.0 * (traced - untraced) / untraced if untraced else 0.0
    m["trace.overhead_pct"] = (overhead, "%")

    # Reach check: the calls each op makes on the seed.  A count that moves
    # without a change that meant to move it means a call site slipped past
    # the wrappers.
    lines = [f"reach: {name} not found, its layer is not traced" for name in tracer.missing]
    validate_calls = [0] * len(results)
    main_calls = [0] * len(results)
    for span, _ in validate["spans"]:
        validate_calls[span[5]] += 1
    for span, _ in row("cli.main")["spans"]:
        main_calls[span[5]] += 1
    bad_ops = 0
    for i, r in enumerate(results):
        expected = _expected_validate_calls(workload, r)
        if main_calls[i] != r.extra["calls"] or expected not in (None, validate_calls[i]):
            bad_ops += 1
            lines.append(f"reach: op {i} made {main_calls[i]} main / {validate_calls[i]} validate "
                         f"calls, the seed makes {r.extra['calls']} / {expected}")
    m["trace.reach_mismatches"] = (float(bad_ops + len(tracer.missing)), "count")
    lines.insert(0, f"reach check          {len(results) - bad_ops} of {len(results)} ops match "
                    f"the seed's call counts")
    lines.append(f"tracing overhead     {overhead:.1f} %  (traced {traced:.3f} s vs untraced "
                 f"{untraced:.3f} s adjusted, over the same {len(results)} ops)")
    return m, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bookbind", "cli.py")):
        sys.stderr.write(f"no bookbind sources under {src}; run from a full checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    work_dir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as scratch:
        start_probes()
        try:
            return _run(args, spec, work_dir, scratch)
        finally:
            stop_probes()


def _run(args, spec: dict, work_dir: str, scratch: str) -> int:
    """Set up, measure, check and report; op files go to ``scratch``."""

    # Set up several times, each from a fresh import, and keep the last.
    setups, adjusted = [], []
    while len(setups) < SETUP_MIN_REPEATS or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        probed, start = probe_seconds(), perf_counter()
        _import_bookbind()
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.setup()
        end = perf_counter()
        setups.append(end - start - (probe_seconds() - probed))
        adjusted.append(setups[-1] * speed(start, end))
    setup_s = statistics.median(adjusted)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  set-ups {', '.join(f'{s:.3f}' for s in setups)} s measured")
    if args.trace:
        tracer = Tracer()
        tracer.install()
        results, wall = _measure(workload, args.seconds / 2, tracer)
        tracer.uninstall()
        replayed, _ = _measure(workload, 0, replay=[r.op for r in results])
        metrics, lines = per_layer(workload, tracer, results, replayed)
        tracer.write(os.path.join(work_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        checked = results + replayed
        wanted = {m["name"] for m in spec["per_layer"]}
    else:
        results, wall = _measure(workload, args.seconds)
        metrics, lines = end_to_end(workload, results, setup_s)
        checked = results
        wanted = {m["name"] for m in spec["end_to_end"]}
    if set(metrics) != wanted:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ wanted)} disagree with BENCHMARK.json")
    for line in lines:
        print(line)
    with open(os.path.join(work_dir, f"ops-{args.workload}-seed{args.seed}.jsonl"), "w",
              encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps({"op": repr(r.op)[:120], "latency_s": r.latency_s,
                                 "speed": r.speed, "censored": r.censored, "timed": r.timed}) + "\n")

    failed_ops = [r for r in results if r.failures or r.wrong]
    for entry in (e for r in results for e in r.failures):
        print("FAILED  {workload}  {spec}  {rule}  {how}  {message}".format(**entry))
    wrong = [w for r in checked for w in r.wrong]
    for w in wrong:
        print(f"WRONG  {w}")
    print(f"ops {len(results)}  failed {len(failed_ops)}  wrong answers {len(wrong)}  "
          f"measured {wall:.2f} s")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
