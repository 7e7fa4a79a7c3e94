"""Command-line interface: payloads, exit codes, and render determinism."""

import hashlib
import json
import sys
from xml.etree import ElementTree

import pytest

from bookbind import cli, graph_core, layout_engine, oracle
from bookbind.bundle_decomp import odd_cycle
from bookbind.constructions import embed
from bookbind.layout_engine import BookEmbedding
from bookbind.oracle import CERTIFIED, certify, check_isomorphism
from test_constructions import GRID_SPECS, PLAN_CLASHES, _edit_plan

try:
    from hypothesis import example, given, strategies as st
except ImportError:  # hypothesis is a dev-only dependency; only the property test needs it
    given = None


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "s=3,t=6,phi=shift:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 18 and len(payload["edges"]) == 36


def test_build_dot(capsys):
    code, out, _ = run(capsys, "build", "s=3,t=6,phi=shift:2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph g {")
    assert "  0 -- 1;" in out


def test_build_circulant_spec(capsys):
    code, out, _ = run(capsys, "build", "circulant:n=9,S=1,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 9 and len(payload["edges"]) == 18


def test_build_out_file(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, out, _ = run(capsys, "build", "s=3,t=6,phi=shift:2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 18


def test_embed_payload(capsys):
    code, out, _ = run(capsys, "embed", "s=3,t=6,phi=shift:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"] == "s=3,t=6,phi=shift:2"
    assert payload["rule"] == "shift/gcd-even"
    assert payload["pages"] == 5
    assert payload["classification"] == "nearly-dispersable"
    emb = BookEmbedding.from_payload(payload["embedding"])
    assert emb.m == 5 and len(emb.order) == 18


def test_embed_bipartite_is_dispersable(capsys):
    code, out, _ = run(capsys, "embed", "s=4,t=6,phi=shift:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pages"] == 4
    assert payload["classification"] == "dispersable"


def test_embed_coprime_reports_reduction(capsys):
    code, out, _ = run(capsys, "embed", "s=5,t=7,phi=shift:3")
    assert code == 3
    payload = json.loads(out)
    assert "circulant" in payload["unsupported"]
    assert payload["reduction"]["n"] == 35
    assert payload["reduction"]["jump"] == 10
    assert len(payload["reduction"]["relabel"]) == 35


def test_embed_trivial_shift_unsupported(capsys):
    code, out, _ = run(capsys, "embed", "s=4,t=5,phi=shift:0")
    assert code == 3
    assert json.loads(out)["reduction"] is None


def test_embed_rejects_circulant_spec(capsys):
    code, _, err = run(capsys, "embed", "circulant:n=9,S=1,3")
    assert code == 65 and "bundle specs" in err


def test_verify_roundtrip(tmp_path, capsys):
    emb_file = tmp_path / "emb.json"
    code, out, _ = run(capsys, "embed", "s=3,t=6,phi=shift:3")
    payload = json.loads(out)
    emb_file.write_text(json.dumps(payload["embedding"]))
    code, out, _ = run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", str(emb_file))
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["pages_used"] == 4
    assert report["violations"] == []
    # every row written v, u: from_payload swaps each back, and the report is the same
    reversed_rows = [[v, u, p] for u, v, p in payload["embedding"]["pages"]]
    emb_file.write_text(json.dumps({**payload["embedding"], "pages": reversed_rows}))
    assert run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", str(emb_file)) == (0, out, "")


def test_verify_accepts_embed_out_file(tmp_path, capsys):
    out_file = tmp_path / "embed.json"
    code, _, _ = run(capsys, "embed", "s=3,t=6,phi=shift:3", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", str(out_file))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_accepts_embed_out_file_of_a_large_shift(tmp_path, capsys):
    # d > t/2: embed lays out shift:6 itself, so its file is of the named graph
    out_file = tmp_path / "embed.json"
    code, _, _ = run(capsys, "embed", "s=5,t=8,phi=shift:6", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["spec"] == "s=5,t=8,phi=shift:6"
    code, out, _ = run(capsys, "verify", "s=5,t=8,phi=shift:6", "--embedding", str(out_file))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_flags_recolored_edge(tmp_path, capsys):
    _, out, _ = run(capsys, "embed", "s=3,t=6,phi=shift:3")
    emb = json.loads(out)["embedding"]
    # move one edge onto the page of an edge sharing an endpoint
    (u, v, p) = emb["pages"][0]
    clash = next(row for row in emb["pages"][1:] if {row[0], row[1]} & {u, v})
    emb["pages"][0][2] = clash[2]
    emb_file = tmp_path / "bad.json"
    emb_file.write_text(json.dumps(emb))
    code, out, _ = run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", str(emb_file))
    assert code == 2
    report = json.loads(out)
    assert not report["ok"] and report["violations"]


def test_verify_coverage_breakage(tmp_path, capsys):
    _, out, _ = run(capsys, "embed", "s=3,t=6,phi=shift:3")
    emb = json.loads(out)["embedding"]
    emb["pages"] = emb["pages"][1:]  # drop an edge entirely
    emb_file = tmp_path / "short.json"
    emb_file.write_text(json.dumps(emb))
    code, out, _ = run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", str(emb_file))
    assert code == 2
    assert "error" in json.loads(out)


def test_verify_names_a_repeated_row_wherever_it_is_listed(tmp_path, capsys):
    # the row [0, 1, 1] put before embed's rows or after them: both files
    # list edge (0, 1) twice, so both are refused with the same report.
    # Row [1, 2, p] turned into [0, 14, p] repeats no edge but the key
    # 0 * 12 + 14 of (1, 2): the pair is past n = 12, so (1, 2) is missing
    _, out, _ = run(capsys, "embed", "s=3,t=4,phi=shift:2")
    emb = json.loads(out)["embedding"]
    colliding = [[0, 14, p] if (u, v) == (1, 2) else [u, v, p] for u, v, p in emb["pages"]]
    reports = []
    for rows in ([[0, 1, 1], *emb["pages"]], [*emb["pages"], [0, 1, 1]], colliding):
        emb_file = tmp_path / "twice.json"
        emb_file.write_text(json.dumps({**emb, "pages": rows}))
        reports.append(run(capsys, "verify", "s=3,t=4,phi=shift:2", "--embedding", str(emb_file)))
    assert reports[0] == reports[1]
    code, out, err = reports[0]
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "ok": False,
        "error": "page map mismatch: missing [], extra [], listed twice [(0, 1)]",
    }
    code, out, err = reports[2]
    assert (code, err) == (2, "")
    assert json.loads(out) == {"ok": False, "error": "page map mismatch: missing [(1, 2)], extra [(0, 14)]"}


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", str(tmp_path / "no.json"))
    assert code == 66 and "cannot read" in err


def test_verify_junk_file(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("not an embedding")
    code, _, err = run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", str(junk))
    assert code == 66


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe",
        b"[" * 100000 + b"]" * 100000,
        b'{"order": [' + b"9" * 5000 + b'], "pages": [], "m": 4}',
    ],
    ids=["not-utf8", "nested-too-deep", "huge-int"],
)
def test_verify_undecodable_file(data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", str(bad))
    assert code == 66 and out == ""
    assert err.startswith(f"{str(bad)!r}: bad embedding payload: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data, message",
    [
        (None, "cannot read 'a\\nb.json': "),
        (b"not json", "'a\\nb.json': bad embedding payload: "),
        (b'{"order": [0, 1], "m": 4}', "'a\\nb.json': bad embedding payload: 'pages'"),
    ],
    ids=["missing", "not-json", "bad-payload"],
)
def test_verify_quotes_the_embedding_path(data, message, monkeypatch, tmp_path, capsys):
    # a newline in the path must not split the one stderr line
    monkeypatch.chdir(tmp_path)
    if data is not None:
        (tmp_path / "a\nb.json").write_bytes(data)
    code, out, err = run(capsys, "verify", "s=3,t=6,phi=shift:3", "--embedding", "a\nb.json")
    assert code == 66 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "data", [None, b"not an embedding", b'{"order": [0, 1], "m": 4}'], ids=["missing", "not-json", "bad-payload"]
)
def test_verify_reads_the_file_before_building_the_graph(data, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "bundle", lambda spec: pytest.fail("graph built before the file was read"))
    emb_file = tmp_path / "emb.json"
    if data is not None:
        emb_file.write_bytes(data)
    code, out, err = run(capsys, "verify", "s=300,t=300,phi=shift:2", "--embedding", str(emb_file))
    assert code == 66 and out == "" and err.count("\n") == 1


def test_verify_checks_a_bundle_file_without_building_the_graph(monkeypatch, tmp_path, capsys):
    # a file that lists E(g), its pages sound or not, is checked against the
    # keys of the spec's numbering: neither the graph nor the set of the
    # file's edge tuples is built
    spec = "s=22,t=22,phi=shift:2"
    _, out, _ = run(capsys, "embed", spec)
    emb = json.loads(out)["embedding"]
    sound, flipped = tmp_path / "sound.json", tmp_path / "flipped.json"
    sound.write_text(json.dumps(emb))
    emb["pages"][0][2] = emb["pages"][1][2]  # edges 0 and 1 share vertex 0
    flipped.write_text(json.dumps(emb))
    for module in (cli, graph_core, layout_engine):
        monkeypatch.setattr(module, "bundle", lambda spec: pytest.fail("the graph was built"))
    monkeypatch.setattr(BookEmbedding, "edge_set", property(lambda emb: pytest.fail("edge_set was built")))
    code, out, err = run(capsys, "verify", spec, "--embedding", str(sound))
    assert (code, err) == (0, "") and json.loads(out)["ok"] is True
    code, out, err = run(capsys, "verify", spec, "--embedding", str(flipped))
    assert (code, err) == (2, "") and json.loads(out)["violations"]


def test_mbt_exact_on_small_circulant(capsys):
    code, out, _ = run(capsys, "mbt", "circulant:n=5,S=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "exact" and payload["value"] == 3
    assert payload["witness"]["m"] == 3


def test_mbt_fixed_pages_refutation(capsys):
    code, out, _ = run(capsys, "mbt", "circulant:n=5,S=1", "--pages", "2")
    assert code == 0  # exhausted refutation is a definite answer
    payload = json.loads(out)
    assert not payload["found"] and payload["exhausted"]
    assert payload["counters"]["orders"] == 12


def test_mbt_budget_undecided(capsys):
    code, out, _ = run(capsys, "mbt", "circulant:n=9,S=1,3", "--max-nodes", "1")
    assert code == 4
    assert json.loads(out)["status"] == "inconclusive"


def test_mbt_rejects_zero_pages(capsys):
    code, _, err = run(capsys, "mbt", "circulant:n=5,S=1", "--pages", "0")
    assert code == 65


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-orders", "0", "max_orders must be positive and finite, got 0"),
        ("--max-nodes", "0", "max_nodes must be positive and finite, got 0"),
        ("--time-limit", "nan", "time_limit must be positive and finite, got nan"),
        ("--pages", "0", "page count must be positive, got 0"),
    ],
)
def test_mbt_checks_its_options_before_building_the_graph(option, value, message, monkeypatch, capsys):
    monkeypatch.setattr(cli, "bundle", lambda spec: pytest.fail("graph built before the options were checked"))
    code, out, err = run(capsys, "mbt", "s=300,t=300,phi=shift:2", option, value)
    assert code == 65 and out == "" and err == f"bookbind: {message}\n"
    # a spec error still comes first
    assert run(capsys, "mbt", "s=300,t=300,phi=twist:2", option, value)[0] == 64
    assert run(capsys, "mbt", "s=2,t=300,phi=shift:2", option, value)[0] == 65


def test_verify_accepts_a_circulant_spec(tmp_path, capsys):
    code, out, _ = run(capsys, "mbt", "circulant:n=6,S=1,2")
    assert code == 0
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(json.loads(out)["witness"]))
    code, out, err = run(capsys, "verify", "circulant:n=6,S=1,2", "--embedding", str(witness))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["ok"] and payload["pages_used"] == 5


def test_render_svg_chords_and_pages(capsys):
    code, out, _ = run(capsys, "render", "s=3,t=6,phi=shift:2")
    assert code == 0
    assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")
    assert out.count('class="chord"') == 36  # 2*s*t edges
    strokes = {
        line.split('stroke="')[1].split('"')[0]
        for line in out.splitlines()
        if 'class="chord"' in line
    }
    assert len(strokes) == 5  # one color per claimed page


def test_render_is_deterministic(capsys):
    _, first, _ = run(capsys, "render", "s=4,t=6,phi=refl:two")
    _, second, _ = run(capsys, "render", "s=4,t=6,phi=refl:two")
    assert first == second


def test_render_pair_labels(capsys):
    code, out, _ = run(capsys, "render", "s=3,t=6,phi=shift:2", "--labels", "pair")
    assert code == 0
    assert ">(1,1)<" in out and ">(3,6)<" in out


def test_render_custom_palette(capsys):
    code, out, _ = run(
        capsys, "render", "s=3,t=6,phi=shift:2", "--palette", "#111,#222,#333,#444,#555"
    )
    assert code == 0 and 'stroke="#555"' in out


def test_render_palette_entries_are_escaped(capsys):
    palette = ['red" onload="alert(1)', "a<b", "c&d", "#123456", "'e'", "f>g"]
    code, out, _ = run(capsys, "render", "s=3,t=6,phi=shift:2", "--palette", ",".join(palette))
    assert code == 0
    chords = [el for el in ElementTree.fromstring(out) if el.get("class") == "chord"]
    emb = embed(graph_core.parse_bundle_spec("s=3,t=6,phi=shift:2")).embedding
    assert [chord.get("stroke") for chord in chords] == [palette[p] for _, p in sorted(emb.items())]
    for chord in chords:
        assert set(chord.attrib) == {"class", "x1", "y1", "x2", "y2", "stroke"}


def test_render_palette_too_small(capsys):
    code, _, err = run(capsys, "render", "s=3,t=6,phi=shift:2", "--palette", "red,blue")
    assert code == 65 and "palette" in err


def test_render_bad_radius(capsys):
    for radius in ("0", "-1", "nan", "inf", "1e308"):  # 1e308: the canvas overflows
        code, out, err = run(capsys, "render", "s=3,t=6,phi=shift:2", "--radius", radius)
        assert code == 65 and out == "" and "radius" in err


@pytest.mark.parametrize(
    "spec, flag, value",
    [
        ("s=44,t=44,phi=shift:2", "--radius", "nan"),  # embedding it hits the recursion limit
        ("s=5,t=7,phi=shift:3", "--radius", "-1"),  # unsupported: no embedding at all
        ("s=3,t=15,phi=shift:6", "--palette", "red"),  # five pages, one color
    ],
)
def test_render_checks_its_arguments_before_embedding(spec, flag, value, monkeypatch, capsys):
    monkeypatch.setattr(cli, "embed", lambda _: pytest.fail("embed ran on bad arguments"))
    code, out, err = run(capsys, "render", spec, flag, value)
    assert code == 65 and out == "" and flag.lstrip("-") in err


def test_render_unsupported_spec(capsys):
    code, out, _ = run(capsys, "render", "s=5,t=7,phi=shift:3")
    assert code == 3
    assert json.loads(out)["reduction"]["n"] == 35


@pytest.mark.parametrize("command", ["embed", "render"])
def test_unsupported_reduction_is_of_the_named_graph(command, capsys):
    # d = 4 > t/2: the relabelling must carry shift:4 itself, not its fold shift:3
    code, out, _ = run(capsys, command, "s=5,t=7,phi=shift:4")
    assert code == 3
    red = json.loads(out)["reduction"]
    relabel = {graph_core.vertex_index(p, q, 7): lab for p, q, lab in red["relabel"]}
    named = graph_core.bundle(graph_core.parse_bundle_spec("s=5,t=7,phi=shift:4"))
    assert check_isomorphism(named, graph_core.circulant(35, {1, red["jump"]}), relabel)


@pytest.mark.parametrize("spec", ["s=5,t=7,phi=shift:3", "s=4,t=5,phi=shift:0"])
def test_embed_and_render_report_unsupported_alike(spec, capsys):
    code, out, err = run(capsys, "embed", spec)
    assert code == 3 and err == ""
    assert run(capsys, "render", spec) == (code, out, err)


def test_sweep_shift_block(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "shift", "--s", "3:4", "--t", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("rows=") and lines[-1].endswith("failures=0")
    # t=6 admits d in {2, 3} with a shared factor
    assert len(lines) == 5
    assert all("\tok" in line for line in lines[:-1])


def test_sweep_reflection_block(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "reflection", "--s", "3", "--t", "6:7")
    assert code == 0
    lines = out.strip().splitlines()
    # t=6 has kinds none+two, t=7 has kind one
    assert len(lines) == 4 and lines[-1] == "rows=3 failures=0"


def test_sweep_empty_ranges(capsys):
    code, _, err = run(capsys, "sweep", "--family", "shift", "--s", "5:4", "--t", "6")
    assert code == 65


def test_sweep_no_matching_specs(capsys):
    # t=5 has no shift with gcd(t, d) > 1 and d <= t/2
    code, _, err = run(capsys, "sweep", "--family", "shift", "--s", "3", "--t", "5")
    assert code == 65 and "no parameter" in err


@pytest.mark.parametrize("family", ["shift", "reflection"])
@pytest.mark.parametrize(
    "s, t, bound", [("3", "1:4", "t=1"), ("1:2", "3", "s=1"), ("2:5", "3:6", "s=2")]
)
def test_sweep_rejects_a_bound_below_three(family, s, t, bound, capsys):
    code, out, err = run(capsys, "sweep", "--family", family, "--s", s, "--t", t)
    assert code == 65 and out == ""
    assert err == f"bookbind: sweep bound {bound} is below 3\n"


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys)[0] == 64
    assert run(capsys, "build", "nonsense")[0] == 64
    assert run(capsys, "build", "s=3,t=6,phi=twist:1")[0] == 64
    assert run(capsys, "embed", "s=3,t=6,phi=shift:2,d=4")[0] == 64
    assert run(capsys, "embed", "s=3,t=6,phi=shift:2,s=5")[0] == 64
    assert run(capsys, "sweep", "--family", "shift", "--s", "x", "--t", "6")[0] == 64
    # spec integers are ASCII decimals: int() alone would read all of these
    assert run(capsys, "embed", "s=1_0,t=4,phi=shift:2")[0] == 64
    assert run(capsys, "embed", "s=\uff13,t=4,phi=shift:2")[0] == 64
    assert run(capsys, "build", "circulant:n=1_0,S=1")[0] == 64
    assert run(capsys, "build", "circulant:n=9,S=\uff11")[0] == 64
    assert run(capsys, "sweep", "--family", "shift", "--s", "1_0", "--t", "6")[0] == 64
    for option in ("--pages", "--max-orders", "--max-nodes"):  # as spec integers
        for value in ("1_0", "\uff15", "+-7"):
            assert run(capsys, "mbt", "circulant:n=6,S=1", option, value)[0] == 64


def test_spec_integer_messages(capsys):
    # what int() rejects keeps its message; what only int() accepts reads the same way
    code, _, err = run(capsys, "build", "circulant:n=x,S=1")
    assert code == 64 and err == (
        "bookbind: bad circulant spec 'circulant:n=x,S=1': "
        "invalid literal for int() with base 10: 'x'\n"
    )
    code, _, err = run(capsys, "build", "circulant:n=1_0,S=1")
    assert code == 64 and err == (
        "bookbind: bad circulant spec 'circulant:n=1_0,S=1': "
        "invalid literal for int() with base 10: '1_0'\n"
    )
    code, _, err = run(capsys, "embed", "s=1_0,t=4,phi=shift:2")
    assert code == 64 and err == "bookbind: expected integer, got '1_0'\n"
    code, _, err = run(capsys, "mbt", "circulant:n=6,S=1", "--pages", "1_0")
    assert code == 64 and err.endswith(": error: argument --pages: invalid int value: '1_0'\n")


@pytest.mark.parametrize("value", ["1_0", "１０", "１_0", "0x1", "1e"])
@pytest.mark.parametrize(
    "argv", [("render", "s=3,t=6,phi=shift:2", "--radius"), ("mbt", "circulant:n=5,S=1", "--time-limit")]
)
def test_float_options_take_ascii_decimals_only(argv, value, capsys):
    # as for the integer options, what only Python's float reads is a usage error
    code, out, err = run(capsys, *argv, value)
    assert code == 64 and out == ""
    assert err.endswith(f": error: argument {argv[-1]}: invalid float value: {value!r}\n")


@pytest.mark.parametrize("value", ["2e2", " 200.5 ", ".5E+3", "5.", "+180"])
def test_float_options_take_decimal_and_exponent_syntax(value, capsys):
    code, out, _ = run(capsys, "render", "s=3,t=6,phi=shift:2", "--radius", value)
    assert code == 0 and f'r="{float(value):.2f}"' in out
    code, _, _ = run(capsys, "mbt", "circulant:n=5,S=1", "--time-limit", value)
    assert code == 0


def test_param_errors(capsys):
    assert run(capsys, "build", "s=2,t=6,phi=shift:1")[0] == 65
    assert run(capsys, "build", "circulant:n=6,S=0")[0] == 65


def test_io_error_on_unwritable_out(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "g.json"
    code, _, err = run(capsys, "build", "s=3,t=6,phi=shift:2", "--out", str(target))
    assert code == 66


def test_threads_note(monkeypatch, capsys):
    monkeypatch.setenv("BOOKBIND_THREADS", "8")
    code, _, err = run(capsys, "build", "s=3,t=6,phi=shift:2")
    assert code == 0
    assert "single-threaded" in err
    monkeypatch.setenv("BOOKBIND_THREADS", "1")
    code, _, err = run(capsys, "build", "s=3,t=6,phi=shift:2")
    assert code == 0 and err == ""


def test_unexpected_exception_is_one_line_exit_70(monkeypatch, capsys):
    def boom(spec):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "embed", boom)
    code, out, err = run(capsys, "embed", "s=3,t=6,phi=shift:2")
    assert code == 70 and out == ""
    assert err == "bookbind: internal error: RecursionError: maximum recursion depth exceeded\n"


# sha256 prefixes of `bookbind embed SPEC` stdout; one spec per rule tag,
# plus the three-column one-fixed pattern (s=4,t=3)
GOLDEN_EMBED = {
    "s=4,t=12,phi=shift:4": "9cdf13a7cb06e86a",
    "s=3,t=18,phi=shift:3": "d22cbd52f2041d10",
    "s=4,t=12,phi=shift:3": "8b973bbab221c92f",
    "s=5,t=15,phi=shift:5": "54e90b859c5784a7",
    "s=5,t=8,phi=refl:none": "7f8382104e8873c4",
    "s=5,t=7,phi=refl:one": "f9d49d129780f52b",
    "s=3,t=6,phi=refl:two": "45e340af3a1cb530",
    "s=6,t=12,phi=refl:two": "5baee3138e4866ac",
    "s=6,t=9,phi=refl:one": "aad377dfda86ec03",
    "s=4,t=3,phi=refl:one": "12f862b73ad08184",
    "s=6,t=10,phi=refl:none": "b7700f5c9a18dc84",
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_EMBED))
def test_embed_output_is_pinned(spec, capsys):
    code, out, _ = run(capsys, "embed", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == GOLDEN_EMBED[spec]


# sha256 prefixes and exit codes of the stdout of the other JSON payloads:
# a bundle graph, a circulant graph, and a coprime shift's reduction
GOLDEN_PAYLOADS = {
    "build s=3,t=6,phi=shift:2": (0, "5de08021ad9ff1da"),
    "build circulant:n=9,S=1,3": (0, "44dcf328fd6fb006"),
    "embed s=5,t=7,phi=shift:3": (3, "bd17fdb087f1e3d6"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_PAYLOADS))
def test_payload_output_is_pinned(argv, capsys):
    code, out, _ = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == GOLDEN_PAYLOADS[argv]


def _stdlib_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=BookEmbedding.to_payload) + "\n"


def test_dumps_matches_stdlib_on_every_payload_shape(tmp_path, monkeypatch, capsys):
    # every payload bookbind emits goes through cli._dumps; record each one
    payloads = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda payload: payloads.append(payload) or dumps(payload))
    # embed on the grid: embeddings, and unsupported reports with a reduction
    # (coprime shifts) and without one (d = 0)
    for spec in GRID_SPECS:
        cli.main(["embed", graph_core.format_bundle_spec(spec)])
    emb_file = tmp_path / "emb.json"
    run(capsys, "embed", "s=3,t=6,phi=shift:2", "--out", str(emb_file))
    emb = json.loads(emb_file.read_text())["embedding"]
    emb["pages"][0][2] = emb["pages"][1][2]  # two edges at vertex 0 share a page
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(emb))
    emb["pages"] = emb["pages"][1:]  # an edge left out: a CoverageError
    short = tmp_path / "short.json"
    short.write_text(json.dumps(emb))
    for argv, code in [
        (["build", "s=3,t=6,phi=shift:2"], 0),
        (["build", "circulant:n=9,S=1,3"], 0),
        (["verify", "s=3,t=6,phi=shift:2", "--embedding", str(emb_file)], 0),
        (["verify", "s=3,t=6,phi=shift:2", "--embedding", str(flipped)], 2),
        (["verify", "s=3,t=6,phi=shift:2", "--embedding", str(short)], 2),
        (["mbt", "circulant:n=5,S=1"], 0),
        (["mbt", "circulant:n=5,S=1", "--pages", "2"], 0),
    ]:
        assert cli.main(argv) == code, argv
    capsys.readouterr()
    kinds = {tuple(sorted(payload)) for payload in payloads}
    assert kinds == {
        ("classification", "embedding", "pages", "rule", "spec"),
        ("reduction", "unsupported"),
        ("edges", "n"),
        ("noncrossing", "ok", "pages_used", "proper", "violations"),
        ("error", "ok"),
        ("counters", "status", "value", "witness"),
        ("counters", "exhausted", "found", "m", "witness"),
    }
    for key in ("reduction", "witness"):  # each both null and not
        assert {payload[key] is None for payload in payloads if key in payload} == {True, False}
    # an embedding is handed over as it is, and written from its arrays
    embeddings = [p.get("embedding", p.get("witness")) for p in payloads]
    assert {type(emb) for emb in embeddings if emb is not None} == {BookEmbedding}
    assert any(payload.get("violations") for payload in payloads)
    for payload in payloads:
        assert dumps(payload) == _stdlib_dumps(payload)


if given is not None:
    # any code point, lone surrogates included, or one of the characters JSON
    # escapes specially
    _chars = st.builds(chr, st.integers(0, 0x10FFFF)) | st.sampled_from('"\\/\x00\x1f\x7f\n\u2028')
    _scalars = st.none() | st.booleans() | st.integers(-(2**100), 2**100) | st.floats() | st.text(_chars)
    # lists of equal-length lists, the shape of edges and pages, with a bool
    # or a big int now and then; k = 0 gives lists of empty lists
    _cells = st.integers(-(2**70), 2**70) | st.booleans()
    _rows = st.integers(0, 3).flatmap(lambda k: st.lists(st.lists(_cells, min_size=k, max_size=k)))
    # a verify report's violation rows [[u, v], [u', v'], reason], and rows
    # near that shape: pairs of other lengths, a bool in a pair
    _pairs = st.lists(_cells, min_size=1, max_size=3)
    _violations = st.lists(st.builds(lambda e, f, why: [e, f, why], _pairs, _pairs, st.text(_chars)))
    # embeddings as bookbind builds them: distinct canonical edges in any
    # order, pages in a bytearray (embed) or a list (verify, the oracle),
    # the empty spine and the empty edge list included
    _embeddings = st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 40)).map(lambda e: (e[0], e[0] + e[1])),
        unique=True,
        max_size=12,
    ).flatmap(
        lambda edges: st.builds(
            lambda order, pages, m, as_bytes: BookEmbedding(
                order, edges, bytearray(pages) if as_bytes else pages, m
            ),
            st.lists(st.integers(0, 90), max_size=6),
            st.lists(st.integers(0, 255), min_size=len(edges), max_size=len(edges)),
            st.integers(-3, 2**40),
            st.booleans(),
        )
    )
    _json_values = st.recursive(
        _scalars | _rows | _violations | _embeddings,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(_chars), inner, max_size=4),
        max_leaves=24,
    )

    @given(_json_values)
    @example(None)
    @example([True, False, 0, 1, -1, 2**64, -(2**64) - 1])
    @example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
    @example('quote " backslash \\ nul \x00 unit \x1f \u00e9 \u2028 \U0001f600')
    @example([[], [1], [1, 2], []])
    @example([[1, True], [0, 2]])
    @example([[], []])
    @example({"violations": [[[0, 1], [0, 2], "shared-endpoint"], [[0, 2], [1, 3], 'q"\u2028']]})
    @example([[[1, 2, 3], [4], "x"], [[0, 1], [2, 3], "y"]])
    @example([[[0, True], [1, 2], "x"]])
    @example({"": {}, "b": [], "a": [[1, 2, 3], [4, 5, 6]], "c": {"d": [[]]}})
    @example(BookEmbedding((), (), bytearray(), 1))
    @example({"w": [BookEmbedding((1, 0), [(0, 1)], [3], 4), 1.5], "x": (BookEmbedding((0,), [], [], 1),)})
    def test_dumps_matches_stdlib(value):
        assert cli._dumps(value) == _stdlib_dumps(value)


@pytest.mark.parametrize(
    "fault, message",
    [
        ("fixed edges share an endpoint", "assignment invalid: (((0, 1), (1, 2), 'shared-endpoint'),)"),
        ("fixed edges cross", "no completion within the given palette"),
    ],
)
def test_embed_failure_message_is_pinned(fault, message, monkeypatch, capsys):
    # a layout whose fixed pages clash runs the search, and validate or the
    # search names the failure
    _edit_plan(monkeypatch, PLAN_CLASHES[fault], search=True)
    code, out, err = run(capsys, "embed", "s=3,t=4,phi=shift:2")
    assert code == 70 and out == ""
    assert err == f"bookbind: construction failed: shift/gcd-even: {message}\n"


def _count_calls(monkeypatch, fn) -> list:
    """Count calls to `fn` through every name bookbind binds it to."""

    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bookbind" or name.startswith("bookbind."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_sweep_row_validates_and_builds_once(monkeypatch, capsys):
    validates = _count_calls(monkeypatch, layout_engine.validate)
    # the numbering's edge list is a cached property: count calls to its builder
    edges, bundles = graph_core.Numbering.edges, []
    build = edges.func

    def counted(num):
        bundles.append(None)
        return build(num)

    monkeypatch.setattr(edges, "func", counted)
    code, out, _ = run(capsys, "sweep", "--family", "shift", "--s", "3:4", "--t", "6:9")
    assert code == 0
    rows = int(out.splitlines()[-1].split()[0].removeprefix("rows="))
    assert rows > 0
    assert len(validates) == rows and len(bundles) == rows



@pytest.mark.parametrize("text", ["s=3,t=6,phi=shift:2", "s=4,t=6,phi=shift:2"])
def test_certify_builds_no_sorted_structure(text):
    # one nonbipartite row (bound Δ+1) and one bipartite (Δ): certify reads
    # the pages used, the edge count and the odd walk's steps, looked up in
    # the edge set; edge_list is a cached property, so building it leaves
    # its key
    spec = graph_core.parse_bundle_spec(text)
    res = embed(spec)
    cert = certify(res.graph, res.report, odd_cycle(spec))
    assert (cert.status, cert.pages) == (CERTIFIED, res.report.pages_used)
    assert "edge_list" not in vars(res.graph)


def test_sweep_and_embed_read_no_degree_off_the_graph(monkeypatch, capsys):
    # a sweep row is certified by its perfect-matching pages or its odd
    # walk, and a dispersable embedding is classified by its pages, so
    # neither calls lower_bound nor max_degree
    want = run(capsys, "embed", "s=4,t=6,phi=shift:2")
    assert want[0] == 0

    def refuse(g):
        raise AssertionError("the degree bound was read off the graph")

    monkeypatch.setattr(oracle, "lower_bound", refuse)
    for module in (graph_core, layout_engine):
        monkeypatch.setattr(module, "max_degree", refuse)
    for family, s in (("shift", "3:6"), ("reflection", "3:8")):
        code, out, _ = run(capsys, "sweep", "--family", family, "--s", s, "--t", "4:12")
        assert code == 0 and out.endswith(" failures=0\n"), out
    assert run(capsys, "embed", "s=4,t=6,phi=shift:2") == want

def test_make_edge_runs_once_per_graph_and_embedding(tmp_path, monkeypatch, capsys):
    # embed: the layout builds each edge and the graph canonicalises it;
    # the embedding is filled with those edges as they are.  verify: the
    # graph and the payload decode, once each
    spec, edges = "s=22,t=22,phi=shift:2", 2 * 22 * 22
    out_file = tmp_path / "embed.json"
    calls = _count_calls(monkeypatch, graph_core.make_edge)
    assert run(capsys, "embed", spec, "--out", str(out_file))[0] == 0
    assert len(calls) <= 2 * edges
    calls.clear()
    assert run(capsys, "verify", spec, "--embedding", str(out_file))[0] == 0
    assert len(calls) <= 2 * edges


# a valid 2-page square; each case below changes the type of numbers only
_C4_PAYLOAD = {"order": [0, 1, 2, 3], "pages": [[0, 1, 0], [1, 2, 1], [2, 3, 0], [0, 3, 1]], "m": 2}


def _with(path, value):
    payload = json.loads(json.dumps(_C4_PAYLOAD))
    *outer, last = path
    target = payload
    for key in outer:
        target = target[key]
    target[last] = value
    return payload


def _verify_c4(payload, tmp_path, capsys):
    emb_file = tmp_path / "emb.json"
    emb_file.write_text(json.dumps(payload))
    return run(capsys, "verify", "circulant:n=4,S=1", "--embedding", str(emb_file))


@pytest.mark.parametrize(
    "payload",
    [
        _with(("order", 1), 1.0),
        _with(("order", 1), "1"),
        _with(("order", 1), True),
        _with(("pages", 0, 0), 0.0),
        _with(("pages", 1, 1), "2"),
        _with(("pages", 2, 2), False),
        _with(("pages", 3, 2), 1.9),
        _with(("m",), 2.0),
        _with(("m",), 2.5),
        {
            "order": [0, 1.7, "2", 3],
            "pages": [[0, 1, 0.4], [1, 2, True], [2, 3, "0"], [0, 3, 1.9]],
            "m": 2.5,
        },
    ],
)
def test_verify_rejects_non_integer_numbers(payload, tmp_path, capsys):
    code, out, err = _verify_c4(payload, tmp_path, capsys)
    assert code == 66 and out == ""
    assert "bad embedding payload: expected an integer" in err


def test_sweep_reports_an_unexpected_error_and_goes_on(monkeypatch, capsys):
    real_embed = cli.embed

    def embed(spec):
        if (spec.s, spec.t, spec.phi.d) == (3, 6, 3):
            raise RuntimeError("boom")
        return real_embed(spec)

    monkeypatch.setattr(cli, "embed", embed)
    code, out, _ = run(capsys, "sweep", "--family", "shift", "--s", "3:4", "--t", "6")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "s=3,t=6,phi=shift:3\tpredicted=4\tERROR: internal error: RuntimeError: boom"
    assert all(line.endswith("\tok") for line in lines[:1] + lines[2:4])
    assert lines[4] == "rows=4 failures=1"
