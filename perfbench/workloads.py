"""The four workloads: sweep, scale, verify-invalid and oracle.

Each workload makes its inputs from the seed in ``setup``, hands out ops
through ``next_op`` and runs one op, checks its output with the
independent checker and returns a ``Result`` through ``execute``.  Why each
workload and grid was chosen is written down in NOTES.md.
"""

from __future__ import annotations

import json
import os
import random
from statistics import median

import checker
from harness import Result, invoke, ledger_entry

# ------------------------------------------------------------------ sweep ---

SWEEP_S = range(3, 13)
SWEEP_T = range(3, 31)
SWEEP_SAMPLE_STRIDE = 5  # every run sweeps a fifth of the grid's cells


class Sweep:
    """``bookbind sweep`` on single (family, s, t) cells of the ROADMAP grid.

    A cell's cost spans three decades (7 ms to 3 s) and a quarter of the
    grid's time sits in its 10 largest cells, so which cells a run draws
    moves every latency figure: on the seed, seeded quarter-grid samples
    differed by 15 % in median cell latency.  So every run sweeps the same
    systematic sample: the cells sorted by their number of ROADMAP item 1
    rows (odd-gcd shifts with d > g, which fail fast on the seed), then by
    rows x edges^2, taking every SWEEP_SAMPLE_STRIDE-th; the seed shuffles
    their order.  A run always sweeps the whole sample, however long it
    takes, so that the counts of attempted and failed ops do not depend on
    the host's speed.
    """

    name = "sweep"
    limit_s = 30.0

    def __init__(self, seed: int, work_dir: str):
        self.rng = random.Random(seed)
        self._pages: dict[str, int] = {}

    def setup(self) -> None:
        cells = []
        for family, fam in (("shift", "shift"), ("reflection", "refl")):
            for s in SWEEP_S:
                for t in SWEEP_T:
                    rows = checker.sweep_specs(fam, s, t)
                    if rows:
                        above = sum(map(checker.odd_gcd_d_above_g, rows))
                        cells.append((above, len(rows) * (2 * s * t) ** 2, family, s, t, rows))
        cells.sort()
        self.ops = [cell[2:] for cell in cells[::SWEEP_SAMPLE_STRIDE]]
        self.rng.shuffle(self.ops)
        warm = invoke(["sweep", "--family", "shift", "--s", "3", "--t", "4"], self.limit_s)
        if warm.code != 0:
            raise RuntimeError(f"sweep warm-up failed: {warm.exc or warm.code} {warm.message}")

    def next_op(self, time_left: bool):
        return self.ops.pop() if self.ops else None

    def _parity(self, spec: str) -> int:
        if spec not in self._pages:
            self._pages[spec] = checker.parity_pages(*checker.parse_spec(spec))
        return self._pages[spec]

    def execute(self, op) -> Result:
        family, s, t, expected = op
        argv = ["sweep", "--family", family, "--s", str(s), "--t", str(t)]
        call = invoke(argv, self.limit_s)
        cell = f"{family} s={s} t={t}"
        res = Result(op, call.seconds, units=len(expected), out_bytes=len(call.out) + len(call.err))
        res.extra = {"calls": 1, "call_s": call.seconds, "ok_rows": 0}
        if call.exc is not None or call.code not in (0, 1):
            res.latency_s, res.censored = self.limit_s, True
            res.failures.append(ledger_entry(self.name, cell, "?", call))
            return res
        lines = call.out.splitlines()
        rows, summary = lines[:-1], lines[-1] if lines else ""
        names = [row.split("\t", 1)[0] for row in rows]
        if names != expected:
            res.wrong.append(f"{cell}: rows {names} differ from the grid's {expected}")
            return res
        failures = 0
        for spec, row in zip(names, rows):
            tag = checker.rule_tag(*checker.parse_spec(spec))
            if row.endswith("\tok"):
                fields = dict(f.split("=", 1) for f in row.split("\t")[1:-1])
                want = self._parity(spec)
                if int(fields["pages"]) != want or int(fields["predicted"]) != want:
                    res.wrong.append(f"{spec}: printed ok with {fields}, parity law says {want}")
                    continue
                res.units_ok += 1
            else:
                failures += 1
                message = row.split("\t", 2)[-1]
                res.failures.append(ledger_entry(self.name, spec, tag, call, message))
        if summary != f"rows={len(expected)} failures={failures}":
            res.wrong.append(f"{cell}: summary {summary!r}, counted {failures} failing rows")
        if call.code != (1 if failures else 0):
            res.wrong.append(f"{cell}: exit {call.code} with {failures} failing rows")
        res.work_ok = res.extra["ok_rows"] = res.units_ok
        return res


# ------------------------------------------------------------------ scale ---


def _odd(n: int) -> int:
    return n if n % 2 else n + 1


def _even(n: int) -> int:
    return n if n % 2 == 0 else n + 1


def _mult3(n: int, parity: int) -> int:
    t = n - n % 3
    while t % 2 != parity:
        t += 3
    return t


def ladder_spec(tag: str, n: int) -> str:
    """One spec of rule ``tag`` with s and t near ``n`` (E = 2st)."""

    specs = {
        "shift/gcd-even": (_even(n), _even(n), "shift", "2"),
        "shift/gcd-odd/bipartite": (_odd(n), _mult3(n, 0), "shift", "3"),
        "shift/gcd-odd/even-residual": (_even(n), _mult3(n, 1), "shift", "3"),
        "shift/gcd-odd/odd-residual": (_odd(n), _mult3(n, 1), "shift", "3"),
        "reflection/base-odd/no-fixed": (_odd(n), _even(n), "refl", "none"),
        "reflection/base-odd/one-fixed": (_odd(n), _odd(n), "refl", "one"),
        "reflection/base-odd/two-fixed": (_odd(n), _even(n), "refl", "two"),
        "reflection/base-even/two-fixed": (_even(n), _even(n), "refl", "two"),
        "reflection/base-even/one-fixed": (_even(n), _odd(n), "refl", "one"),
        "reflection/base-even/no-fixed": (_even(n), _even(n), "refl", "none"),
    }
    spec = checker.format_spec(*specs[tag])
    assert checker.rule_tag(*checker.parse_spec(spec)) == tag, spec
    return spec


TIERS = (("e1k", 22), ("e4k", 44), ("e16k", 90), ("e80k", 200))


class Scale:
    """``embed --out`` then ``verify --embedding`` up a ladder of sizes.

    One spec per rule tag at each tier.  The ladder is climbed once per run,
    with two round trips per tag at e1k, the tier whose latency the run
    reports; a tag that fails at a tier is recorded as failed, without
    running, at every higher tier.  A run is the ladder and nothing else,
    however long it takes, so that the counts of attempted and failed ops
    do not depend on the host's speed.
    """

    name = "scale"
    limit_s = 3.0
    timed_tier = "e1k"

    def __init__(self, seed: int, work_dir: str):
        self.rng = random.Random(seed)
        self.work_dir = work_dir

    def setup(self) -> None:
        self.tags = list(checker.RULE_TAGS)
        self.rng.shuffle(self.tags)
        self.specs = {(tier, tag): ladder_spec(tag, n) for tier, n in TIERS for tag in self.tags}
        self.failed_at: dict[str, str] = {}
        self.ladder = [(tier, tag) for tier, _ in TIERS for tag in self.tags]
        self.ladder[len(self.tags):len(self.tags)] = [(TIERS[0][0], tag) for tag in self.tags]
        # Warm-up, and a probe of the embed -> verify handoff: verify is
        # handed the file embed wrote, as a user would first try.
        path = os.path.join(self.work_dir, "scale-warmup.json")
        spec = "s=4,t=6,phi=shift:2"
        warm = invoke(["embed", spec, "--out", path], self.limit_s)
        if warm.code != 0:
            raise RuntimeError(f"scale warm-up failed: {warm.exc or warm.code} {warm.message}")
        probe = invoke(["verify", spec, "--embedding", path], self.limit_s)
        message = probe.err.strip().replace(path, os.path.basename(path))
        self.handoff = f"verify on embed's own --out file: exit {probe.code} {message}"

    def next_op(self, time_left: bool):
        if not self.ladder:
            return None
        tier, tag = self.ladder.pop(0)
        return ("skip" if tag in self.failed_at else "run", tier, tag)

    def execute(self, op) -> Result:
        mode, tier, tag = op
        spec = self.specs[(tier, tag)]
        s, t, family, arg = checker.parse_spec(spec)
        res = Result(op, self.limit_s, timed=tier == self.timed_tier, censored=True)
        res.extra = {"calls": 0, "call_s": 0.0, "tier": tier, "tag": tag, "edges": 2 * s * t}
        if mode == "skip":
            res.timed = False
            res.failures.append(ledger_entry(
                self.name, spec, tag, None, f"not run: failed at {self.failed_at[tag]}"))
            return res
        out_path = os.path.join(self.work_dir, "scale-embed.json")
        emb_path = os.path.join(self.work_dir, "scale-embedding.json")
        embed = invoke(["embed", spec, "--out", out_path], self.limit_s)
        res.extra["calls"] += 1
        res.extra["call_s"] += embed.seconds
        res.out_bytes = len(embed.out) + len(embed.err)
        if embed.exc is not None or embed.code != 0:
            return self._failed(res, spec, tag, tier, embed)
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        res.out_bytes += len(text)
        payload = json.loads(text)
        want = checker.parity_pages(s, t, family, arg)
        if payload["pages"] != want or payload["rule"] != tag:
            res.wrong.append(f"{spec}: embed says {payload['pages']} pages by rule "
                             f"{payload['rule']!r}; want {want} by {tag!r}")
        res.wrong += [f"{spec}: {p}" for p in checker.check_embedding(spec, payload["embedding"])]
        with open(emb_path, "w", encoding="utf-8") as fh:
            json.dump(payload["embedding"], fh)  # the handoff verify accepts
        verify = invoke(["verify", spec, "--embedding", emb_path], self.limit_s - embed.seconds)
        res.extra["calls"] += 1
        res.extra["call_s"] += verify.seconds
        res.out_bytes += len(verify.out) + len(verify.err)
        if verify.exc is not None or verify.code != 0:
            if verify.exc is None and verify.code == 2:
                res.wrong.append(f"{spec}: verify rejects the embedding embed produced")
            return self._failed(res, spec, tag, tier, verify)
        report = json.loads(verify.out)
        if not report["ok"] or report["violations"] or report["pages_used"] != want:
            res.wrong.append(f"{spec}: verify printed {report}")
            return res
        res.latency_s, res.censored = embed.seconds + verify.seconds, False
        res.units_ok = res.units
        res.work_ok = 1
        return res

    def _failed(self, res: Result, spec: str, tag: str, tier: str, call) -> Result:
        self.failed_at.setdefault(tag, tier)
        res.failures.append(ledger_entry(self.name, spec, tag, call))
        return res

    def summary(self, results: list[Result]) -> dict:
        """Per tier: median over tags of each tag's censored round trip."""

        per_tier: dict[str, dict[str, list[float]]] = {}
        ladder_ok: dict[str, list[bool]] = {}
        edges: dict[str, list[int]] = {}
        for r in results:
            tier, tag = r.extra["tier"], r.extra["tag"]
            per_tier.setdefault(tier, {}).setdefault(tag, []).append(r.adjusted_s)
            ladder_ok.setdefault(tier, []).append(r.units_ok == 1)
            edges.setdefault(tier, []).append(r.extra["edges"])
        tag_medians = {tier: [median(v) for v in per_tier[tier].values()] for tier, _ in TIERS}
        roundtrip = {tier: median(values) for tier, values in tag_medians.items()}
        best_tier, best_edges = "none", 0
        for tier, _ in TIERS:
            if not all(ladder_ok[tier]):
                break
            best_tier, best_edges = tier, min(edges[tier])
        return {"roundtrip_s": roundtrip, "slowest_tag_s": max(tag_medians[self.timed_tier]),
                "max_tier": best_tier, "max_edges_ok": best_edges}


# --------------------------------------------------------- verify-invalid ---

# Embeddings mutated at set-up: one at the e1k tier and four at sweep-grid
# sizes, both families, 4 and 5 pages.
INVALID_BASES = (
    "s=22,t=22,phi=shift:2",
    "s=12,t=30,phi=shift:10",
    "s=9,t=21,phi=shift:3",
    "s=10,t=24,phi=refl:two",
    "s=7,t=27,phi=refl:one",
)
MUTANTS_PER_BASE = 6


class VerifyInvalid:
    """``verify`` on single-edge page-flip mutants of valid embeddings.

    Each op must exit 2 with exactly the violation list the benchmark
    computes itself, every violation involving the flipped edge.
    """

    name = "verify-invalid"
    limit_s = 10.0

    def __init__(self, seed: int, work_dir: str):
        self.rng = random.Random(seed)
        self.work_dir = work_dir

    def setup(self) -> None:
        self.mutants: list[list[dict]] = []
        for i, spec in enumerate(INVALID_BASES):
            path = os.path.join(self.work_dir, f"invalid-base-{i}.json")
            call = invoke(["embed", spec, "--out", path], 60.0)
            if call.code != 0:
                raise RuntimeError(f"cannot embed {spec}: {call.exc or call.code} {call.message}")
            with open(path, encoding="utf-8") as fh:
                base = json.load(fh)["embedding"]
            problems = checker.check_embedding(spec, base)
            if problems:
                raise RuntimeError(f"base embedding of {spec} is invalid: {problems[:3]}")
            self.mutants.append([self._mutant(spec, base, i, k) for k in range(MUTANTS_PER_BASE)])
        self.order = list(range(len(INVALID_BASES)))
        self.rng.shuffle(self.order)
        self.count = 0

    def _mutant(self, spec: str, base: dict, i: int, k: int) -> dict:
        order = base["order"]
        pages = {(u, v): p for u, v, p in base["pages"]}
        edges = sorted(pages)
        while True:
            flipped = self.rng.choice(edges)
            old = pages[flipped]
            for new in self.rng.sample(range(base["m"]), base["m"]):
                if new == old:
                    continue
                pages[flipped] = new
                expected = checker.flip_violations(order, pages, flipped)
                if expected:
                    path = os.path.join(self.work_dir, f"invalid-{i}-{k}.json")
                    payload = {"order": order, "m": base["m"],
                               "pages": [[u, v, p] for (u, v), p in sorted(pages.items())]}
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(payload, fh)
                    return {"spec": spec, "path": path, "flipped": list(flipped),
                            "expected": expected}
            pages[flipped] = old

    def next_op(self, time_left: bool):
        if not time_left:
            return None
        base = self.order[self.count % len(self.order)]
        self.count += 1
        return self.rng.choice(self.mutants[base])

    def execute(self, op) -> Result:
        spec = op["spec"]
        call = invoke(["verify", spec, "--embedding", op["path"]], self.limit_s)
        res = Result(op, call.seconds, out_bytes=len(call.out) + len(call.err))
        res.extra = {"calls": 1, "call_s": call.seconds}
        tag = checker.rule_tag(*checker.parse_spec(spec))
        if call.exc is not None or call.code != 2:
            if call.exc is not None:
                res.latency_s, res.censored = self.limit_s, True
            res.failures.append(ledger_entry(self.name, spec, tag, call))
            if call.exc is None:
                res.wrong.append(f"{op['path']}: verify exit {call.code}, want 2")
            return res
        report = json.loads(call.out)
        got = report["violations"]
        if got != op["expected"] or report["ok"]:
            res.wrong.append(f"{op['path']}: violations {got[:3]} differ from {op['expected'][:3]}")
        elif any(op["flipped"] not in v[:2] for v in got):
            res.wrong.append(f"{op['path']}: a violation misses the flipped edge")
        elif report["proper"] != all(v[2] != "shared-endpoint" for v in got):
            res.wrong.append(f"{op['path']}: 'proper' disagrees with the violation list")
        else:
            res.units_ok = res.work_ok = 1
        return res


# ----------------------------------------------------------------- oracle ---

# (name, argv, expected exit, expected payload fields, exact counters).
# An exhausted refutation on n vertices visits (n-1)!/2 spine orders: 2520
# for n = 8 and 20160 for n = 9.  Budgeted runs stop at exactly the budget.
ORACLE_CASES = (
    ("C8_12", ["mbt", "circulant:n=8,S=1,2", "--pages", "4"], 0,
     {"found": False, "exhausted": True}, {"orders": 2520, "nodes": 12891}),
    ("C8_23", ["mbt", "circulant:n=8,S=2,3", "--pages", "4"], 0,
     {"found": False, "exhausted": True}, {"orders": 2520}),
    ("C10_12", ["mbt", "circulant:n=10,S=1,2", "--pages", "4", "--max-orders", "3000"], 4,
     {"found": False, "exhausted": False}, {"orders": 3000}),
    ("C10_14", ["mbt", "circulant:n=10,S=1,4", "--pages", "4", "--max-orders", "3000"], 4,
     {"found": False, "exhausted": False}, {"orders": 3000}),
    ("C9_13", ["mbt", "circulant:n=9,S=1,3", "--pages", "4"], 0,
     {"found": False, "exhausted": True}, {"orders": 20160, "nodes": 0}),
    ("s3t4-shift2", ["mbt", "s=3,t=4,phi=shift:2"], 0, {"status": "exact", "value": 5}, {}),
    ("s3t4-refl2", ["mbt", "s=3,t=4,phi=refl:two"], 0, {"status": "exact", "value": 5}, {}),
)


class Oracle:
    """``bookbind mbt`` on a fixed set of small graphs, in seeded order.

    Verdicts and counters are checked against known answers; exact values
    against the parity law, with the witness checked independently.  A run
    ends only at the end of a pass, so every graph appears equally often.
    """

    name = "oracle"
    limit_s = 20.0

    def __init__(self, seed: int, work_dir: str):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.pass_ops: list = []
        warm = invoke(["mbt", "circulant:n=6,S=1,2", "--pages", "4"], self.limit_s)
        if warm.code != 0:
            raise RuntimeError(f"oracle warm-up failed: {warm.exc or warm.code} {warm.message}")

    def next_op(self, time_left: bool):
        if not self.pass_ops:
            if not time_left:
                return None
            self.pass_ops = list(ORACLE_CASES)
            self.rng.shuffle(self.pass_ops)
        return self.pass_ops.pop()

    def execute(self, op) -> Result:
        name, argv, code, fields, counts = op
        call = invoke(argv, self.limit_s)
        res = Result(op, call.seconds, out_bytes=len(call.out) + len(call.err))
        res.extra = {"calls": 1, "call_s": call.seconds, "graph": name}
        if call.exc is not None or call.code != code:
            if call.exc is not None:
                res.latency_s, res.censored = self.limit_s, True
            res.failures.append(ledger_entry(self.name, argv[1], "oracle", call))
            if call.exc is None:
                res.wrong.append(f"{name}: exit {call.code}, want {code}")
            return res
        payload = json.loads(call.out)
        counters = payload["counters"]
        res.extra.update(orders=counters["orders"], nodes=counters["nodes"])
        for key, want in fields.items():
            if payload[key] != want:
                res.wrong.append(f"{name}: {key}={payload[key]!r}, want {want!r}")
        if not argv[1].startswith("circulant:"):
            want = checker.parity_pages(*checker.parse_spec(argv[1]))
            if payload["value"] != want:
                res.wrong.append(f"{name}: value {payload['value']}, parity law says {want}")
            res.wrong += [f"{name} witness: {p}"
                          for p in checker.check_embedding(argv[1], payload["witness"])]
        for key, want in counts.items():
            if counters[key] != want:
                res.wrong.append(f"{name}: {key}={counters[key]}, want {want}")
        if not res.wrong:
            res.units_ok = 1
            res.work_ok = counters["orders"]
        return res


WORKLOADS = {cls.name: cls for cls in (Sweep, Scale, VerifyInvalid, Oracle)}
