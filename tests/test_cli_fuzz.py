"""The command-line contract under fuzzed arguments.

Hypothesis draws argument vectors for all six subcommands: spec strings from
the grammar and mutations of them, option values, and ``verify`` files
mutated from ``embed``'s own output.  Whatever the input, the exit code is
one of the README's table, stderr never holds a traceback, and a failing run
writes at most one stderr line (argparse's usage text on 64 aside).
``embed`` and ``render`` on a valid spec exit 0 or 3, and ``verify`` accepts
the file ``embed --out`` wrote.

Bounds keep each run small: a valid spec has at most 900 vertices, ``mbt``
always runs under ``--max-orders`` and ``--max-nodes``, a ``sweep`` that
runs covers a few small rows, and a huge integer appears only where it makes
the spec invalid before any graph is built, in an option value, or in a file.
"""

import contextlib
import functools
import io
import json
import os
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from bookbind import cli  # noqa: E402
from bookbind.graph_core import BundleSpec, Reflection, Shift, format_bundle_spec  # noqa: E402

EXIT_CODES = {0, 1, 2, 3, 4, 64, 65, 66, 70}  # README's table
HUGE = 10**20
MAX_N = 900


def run(*argv: str) -> tuple[int, str, str]:
    """``bookbind ARGV`` in this process; an exception escaping ``main``
    would be a traceback, so it fails the test as one."""

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("BOOKBIND_THREADS", None)
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_contract(code: int, err: str) -> None:
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    if code != 0:
        if err.startswith("usage:"):  # argparse: usage text, then one error line
            assert code == 64 and ": error: " in err.splitlines()[-1], err
        else:
            assert err == "" or (err.count("\n") == 1 and err.endswith("\n")), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# ---------------------------------------------------------------- specs ---

_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def bundle_specs(draw, max_n: int = MAX_N) -> BundleSpec:
    s = draw(st.integers(3, max_n // 3))
    t = draw(st.integers(3, max_n // s))
    if draw(st.booleans()):
        return BundleSpec(s, t, Shift(draw(st.integers(0, t - 1))))
    return BundleSpec(s, t, Reflection(draw(st.sampled_from(("one",) if t % 2 else ("none", "two")))))


@st.composite
def number_text(draw, value: int) -> str:
    """``value`` as the grammar allows it: spaces around, a plus sign, leading zeros."""

    digits = str(abs(value)).rjust(draw(st.integers(0, 3)) + len(str(abs(value))), "0")
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    return draw(_SPACE) + sign + digits + draw(_SPACE)


@st.composite
def spec_text(draw, spec: BundleSpec) -> str:
    """A valid spec string for ``spec``: fields in any order, spaced as allowed."""

    phi = f"shift:{draw(number_text(spec.phi.d))}" if isinstance(spec.phi, Shift) else f"refl:{spec.phi.kind}"
    fields = [f"s={draw(number_text(spec.s))}", f"t={draw(number_text(spec.t))}", f"phi={phi}"]
    return ",".join(draw(st.permutations(fields)))


_UNICODE_DIGITS = "０٠০०"  # fullwidth, Arabic-Indic, Bengali, Devanagari zeros


@st.composite
def bad_spec_text(draw) -> str:
    """A spec string that breaks the grammar or its bounds, refused before any
    graph is built; the last branch is arbitrary text."""

    spec = draw(bundle_specs(max_n=60))
    text = format_bundle_spec(spec)
    mutation = draw(
        st.sampled_from(
            [
                "unicode digit",
                "underscore",
                "sign",
                "unknown kind",
                "wrong parity",
                "huge",
                "repeat field",
                "drop field",
                "junk",
            ]
        )
    )
    s, t = spec.s, spec.t
    if mutation == "unicode digit":
        i = draw(st.sampled_from([i for i, c in enumerate(text) if c.isdigit()]))
        zero = draw(st.sampled_from(_UNICODE_DIGITS))
        return text[:i] + chr(ord(zero) + int(text[i])) + text[i + 1 :]
    if mutation == "underscore":
        return f"s={s}_0,t={t},phi=refl:none"
    if mutation == "sign":
        sign = draw(st.sampled_from(["-", "+-", "-+", "--", "++"]))
        return draw(st.sampled_from([f"s={sign}{s},t={t},phi=shift:1", f"s={s},t={sign}{t},phi=shift:1"]))
    if mutation == "unknown kind":
        return f"s={s},t={t},phi=" + draw(st.sampled_from(["refl:four", "refl:", "twist:1", "shift", "refl:ONE"]))
    if mutation == "wrong parity":
        return f"s={s},t={t},phi=refl:" + draw(st.sampled_from(("none", "two") if t % 2 else ("one",)))
    if mutation == "huge":
        big = draw(st.integers(HUGE, 10**60))
        return draw(
            st.sampled_from(
                [
                    f"s=-{big},t={t},phi=shift:1",
                    f"s={s},t=-{big},phi=shift:1",
                    f"s={s},t={t},phi=shift:{big}",
                    f"s={s},t={t},phi=shift:-{big}",
                    f"s={big},t={2 * t},phi=refl:one",
                    f"s=2,t={big},phi=shift:1",
                    f"circulant:n={big},S=1,1",
                    f"circulant:n=9,S={big}",
                    f"circulant:n=-{big},S=1",
                ]
            )
        )
    if mutation == "repeat field":
        return text + f",s={s}"
    if mutation == "drop field":
        fields = text.split(",")
        del fields[draw(st.integers(0, 2))]
        return ",".join(fields)
    return draw(st.text(st.characters(codec="utf-8"), max_size=20))


@st.composite
def circulant_text(draw, max_n: int = MAX_N) -> str:
    n = draw(st.integers(3, max_n))
    jumps = draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=3, unique=True))
    return f"circulant:n={n},S=" + ",".join(map(str, jumps))


def any_spec(max_n: int = MAX_N):
    return st.one_of(
        bundle_specs(max_n).flatmap(spec_text), circulant_text(max_n), bad_spec_text()
    )


# ------------------------------------------------------- option values ---

_BAD_INTS = ["0", "-1", f"-{HUGE}", "1_0", "５", "+-7", "", "x", "1.5", "nan"]
_BAD_FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e309", "x", "", f"-{HUGE}"]


def int_option(lo: int, hi: int, huge: bool = False):
    """A value in lo..hi, or one the option refuses; or, if ``huge``, a huge valid one."""

    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(_BAD_INTS + [str(HUGE)] * huge))


def float_option(lo: float, hi: float):
    return st.one_of(
        st.floats(lo, hi).map(repr), st.sampled_from(_BAD_FLOATS + ["1e-320", "1_0", "５"])
    )


@st.composite
def sweep_range(draw) -> str:
    kind = draw(st.sampled_from(["valid", "empty", "below 3", "malformed"]))
    if kind == "valid":
        lo = draw(st.integers(3, 5))
        return f"{lo}:{draw(st.integers(lo, lo + 1))}" if draw(st.booleans()) else str(lo)
    if kind == "empty":
        return draw(st.sampled_from([f"{HUGE}:4", f"5:{-HUGE}", "5:4", " 5\n:4"]))
    if kind == "below 3":
        return draw(st.sampled_from([f"-{HUGE}:4", "2", "0:3", f"-{HUGE}"]))
    return draw(st.sampled_from(["x", "3:", ":4", "3:4:5", "1_0", "５", "3-4", ""]))


@st.composite
def argvs(draw) -> list[str]:
    """One argument vector for a subcommand other than ``verify``."""

    command = draw(st.sampled_from(["build", "embed", "mbt", "render", "sweep"]))
    if command == "sweep":
        argv = ["sweep", "--family", draw(st.sampled_from(["shift", "reflection", "twist"]))]
        return argv + ["--s", draw(sweep_range()), "--t", draw(sweep_range())]
    if command == "mbt":
        argv = ["mbt", draw(any_spec(max_n=40))]
        # both budgets small: one spine order alone can take exponentially many nodes
        argv += ["--max-orders", draw(int_option(1, 20)), "--max-nodes", draw(int_option(1, 500))]
        if draw(st.booleans()):
            argv += ["--pages", draw(int_option(1, 6, huge=True))]
        if draw(st.booleans()):
            argv += ["--time-limit", draw(float_option(0.01, 1.0))]
        return argv
    argv = [command, draw(any_spec())]
    if command == "build" and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "dot", "svg"]))]
    if command == "render":
        if draw(st.booleans()):
            argv += ["--radius", draw(float_option(1.0, 500.0))]
        if draw(st.booleans()):
            argv += ["--palette", draw(st.text(st.characters(codec="utf-8"), max_size=40))]
        if draw(st.booleans()):
            argv += ["--labels", draw(st.sampled_from(["flat", "pair", "none"]))]
    return argv


@given(argvs())
@example(["sweep", "--family", "shift", "--s", " 5\n:4", "--t", "3"])
def test_cli_contract_holds_on_fuzzed_arguments(argv):
    code, _, err = run(*argv)
    assert_contract(code, err)


@given(bundle_specs().flatmap(lambda spec: st.tuples(st.just(spec), spec_text(spec))))
def test_embed_and_render_exit_0_or_3_on_a_valid_spec(case):
    spec, text = case
    runs = {command: run(command, text) for command in ("embed", "render")}
    assert {code for code, _, _ in runs.values()} <= {0, 3}, runs
    assert {err for _, _, err in runs.values()} == {""}, runs
    assert runs["embed"][0] == runs["render"][0]
    if runs["embed"][0] == 3:  # the plain torus and the coprime shifts
        assert isinstance(spec.phi, Shift)


# -------------------------------------------------------- verify files ---


@functools.lru_cache(maxsize=None)
def _embed_output(text: str) -> bytes:
    """What ``embed`` prints for a spec, the bytes ``embed --out`` writes."""

    code, out, _ = run("embed", text)
    assert code == 0
    return out.encode()


_SMALL_SPECS = [
    "s=3,t=4,phi=shift:2",
    "s=3,t=6,phi=shift:3",
    "s=4,t=6,phi=shift:3",
    "s=5,t=7,phi=refl:one",
    "s=4,t=6,phi=refl:two",
    "s=4,t=6,phi=refl:none",
]
_JSON_SWAPS = ["1", 1.0, True, None, [], {}, "x", -1, HUGE]


@st.composite
def mutated_files(draw) -> tuple[str, bytes, bool]:
    """A spec, a file for ``verify`` made from ``embed``'s output, and whether
    it is still that output unchanged."""

    own = draw(st.sampled_from(_SMALL_SPECS))
    wrapper = json.loads(_embed_output(own))
    payload = wrapper if draw(st.booleans()) else wrapper["embedding"]
    emb = payload.get("embedding", payload)
    mutations = draw(
        st.lists(
            st.sampled_from(
                ["swap type", "drop edge", "duplicate edge", "vertex out of range", "page >= m", "m", "drop key"]
            ),
            max_size=3,
        )
    )
    for mutation in mutations:
        pages, order = emb["pages"], emb["order"]
        i = draw(st.integers(0, max(len(pages) - 1, 0)))
        row = pages[i] if pages and isinstance(pages[i], list) else None  # [u, v, page]
        if mutation == "swap type":
            where = draw(st.sampled_from(["order", "pages", "edge", "m", "page row"]))
            new = draw(st.sampled_from(_JSON_SWAPS))
            if where == "order" and order:
                order[i % len(order)] = new
            elif where == "edge" and row:
                row[draw(st.integers(0, len(row) - 1))] = new
            elif where == "page row" and pages:
                pages[i] = new
            elif where in ("order", "pages", "m"):
                emb[where] = new
        elif mutation == "drop edge" and pages:
            del pages[i]
        elif mutation == "duplicate edge" and row:
            pages.append(row[1::-1] + [draw(st.integers(0, 5))])  # reversed, any page
        elif mutation == "vertex out of range" and row:
            row[draw(st.integers(0, 1))] = draw(st.sampled_from([len(order), len(order) + 7, -1, HUGE, -HUGE]))
        elif mutation == "page >= m" and row:
            row[-1] = draw(st.sampled_from([emb.get("m", 5), 7, HUGE, -1]))
        elif mutation == "m":
            emb["m"] = draw(st.sampled_from([0, -3, 1, 3, 4, 5, HUGE]))
        elif mutation == "drop key":
            emb.pop(draw(st.sampled_from(["order", "pages", "m"])), None)
        if not isinstance(emb.get("pages"), list) or not isinstance(emb.get("order"), list):
            break  # later mutations need the lists
    data = json.dumps(payload, indent=draw(st.sampled_from([None, 2]))).encode()
    encoding = draw(st.sampled_from(["utf-8", "latin-1 byte", "utf-16", "truncated", "nested"]))
    if encoding == "nested":  # inside lists, past the decoder's recursion limit at the deepest
        depth = draw(st.sampled_from([1, 50, 100_000]))
        data = b"[" * depth + data + b"]" * depth
    elif encoding == "latin-1 byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    elif encoding == "utf-16":
        data = data.decode().encode("utf-16")
    elif encoding == "truncated":
        data = data[: draw(st.integers(0, len(data) - 1))]
    text = draw(st.one_of(st.just(own), st.sampled_from(_SMALL_SPECS), circulant_text(24), bad_spec_text()))
    return text, data, text == own and not mutations and encoding == "utf-8"


@given(mutated_files())
def test_verify_keeps_the_contract_on_mutated_embed_output(workdir, case):
    text, data, unchanged = case
    path = workdir / "emb.json"
    path.write_bytes(data)
    code, out, err = run("verify", text, "--embedding", str(path))
    assert_contract(code, err)
    if unchanged:
        assert code == 0 and json.loads(out)["ok"]


@given(bundle_specs().flatmap(lambda spec: st.tuples(st.just(spec), spec_text(spec))))
def test_verify_accepts_what_embed_out_wrote(workdir, case):
    _, text = case
    path = workdir / "out.json"
    code, _, err = run("embed", text, "--out", str(path))
    assert code in (0, 3) and err == ""
    if code == 0:
        code, out, err = run("verify", text, "--embedding", str(path))
        assert code == 0 and err == "" and json.loads(out)["ok"]
