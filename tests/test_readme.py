"""The README's Library example runs and prints what its comments say, and
its CLI transcripts print what they show."""

import ast
import contextlib
import io
import re
from pathlib import Path

from argclinic.cli import main

ROOT = Path(__file__).resolve().parent.parent


def library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def steps(block: str):
    """``(code, expected)`` pairs: the code since the last result comment,
    then the ``# …`` lines that follow it."""
    code: list[str] = []
    expected: list[str] = []
    for line in block.splitlines():
        if line.startswith("# "):
            expected.append(line[2:])
            continue
        if expected:
            yield "\n".join(code), expected
            code, expected = [], []
        code.append(line)
    if expected:
        yield "\n".join(code), expected


def test_library_example_matches_its_result_comments(monkeypatch):
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    checked = 0
    for code, expected in steps(library_block()):
        tree = ast.parse(code)
        last = tree.body[-1]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if isinstance(last, ast.Expr):
                tree.body.pop()
                exec(compile(tree, "README", "exec"), namespace)
                value = eval(compile(ast.Expression(last.value), "README", "eval"), namespace)
                out.write(repr(value) + "\n")
            else:
                exec(compile(tree, "README", "exec"), namespace)
        assert out.getvalue().splitlines() == expected, code
        checked += 1
    assert checked == 5


def transcript(first: str) -> list[str]:
    """The lines of the one README ``text`` block that starts with ``first``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```text\n(.*?)```", readme, re.S)
    (block,) = [b for b in blocks if b.startswith(first)]
    return block.splitlines()


def test_solve_transcript_matches_the_cli(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    command, *shown = transcript(
        "$ argclinic solve --bundle tests/fixtures/aspirin_patient_pref.json"
    )
    assert main(command.split()[2:]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == shown
    assert captured.err == ""


def test_syntax_error_transcript_matches_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write, command, *shown = transcript("$ printf ")
    text = re.fullmatch(r"\$ printf '(.*)' > bad\.aba", write).group(1)
    (tmp_path / "bad.aba").write_text(text.replace("\\n", "\n"), encoding="utf-8")
    assert command == "$ argclinic solve --aba bad.aba"
    assert main(command.split()[2:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == shown
