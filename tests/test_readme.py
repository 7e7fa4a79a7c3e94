"""The README's library quick start and command-line block run as written."""

import ast
import os
import pathlib
import re
import shlex
import subprocess
import sys

import bookbind
from bookbind import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), "README.md", "exec"), {})
    assert capsys.readouterr().out == "5\nTrue\n"  # the two print() lines


def test_readme_imports_only_exported_names():
    imports = [
        node for node in ast.walk(ast.parse(_quick_start())) if isinstance(node, ast.ImportFrom)
    ]
    assert imports and all(node.module == "bookbind" for node in imports)
    names = {alias.name for node in imports for alias in node.names}
    assert names <= set(bookbind.__all__)
    for name in bookbind.__all__:
        assert getattr(bookbind, name) is not None


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = [line for b in blocks for line in b.splitlines() if line.startswith("bookbind ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
    capsys.readouterr()  # the commands' own output is not under test here


def test_cli_imports_no_test_only_package():
    # README: "no runtime dependencies"; the test extra stays out of a CLI run
    src = pathlib.Path(bookbind.__file__).resolve().parents[1]
    code = (
        "import sys, bookbind.cli; "
        "print(sorted({'pytest', 'hypothesis', 'networkx'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
