"""The README's examples run as written and give the results it shows.

The Python example is run, and every line with a ``# result`` comment
must evaluate to that result.  The CLI quick start is run command by
command, and every ``# line`` comment under a command must be a line
of what that command printed.
"""

import ast
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from idr.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def test_python_example_gives_its_commented_results(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (code,) = code_blocks("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        expr, comment, want = line.partition("#")
        if comment and expr.strip():
            assert eval(expr, namespace) == ast.literal_eval(want.strip()), line
            checked += 1
    assert checked == 4


def test_cli_quick_start_prints_its_commented_lines(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (script,) = [block for block in code_blocks("sh") if "idr simulate" in block]
    runner = CliRunner()
    printed, ran, checked = None, 0, 0
    for line in script.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("idr "):
            res = runner.invoke(main, shlex.split(line)[1:])
            assert res.exit_code == 0, (line, res.output)
            printed, ran = res.output.splitlines(), ran + 1
        elif line.startswith("# "):
            assert line[2:] in printed, (line, printed)
            checked += 1
    assert (ran, checked) == (7, 3)
    assert all((tmp_path / name).exists() for name in ("model.json", "preds.csv", "pit.csv", "rel.csv"))
