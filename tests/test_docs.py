"""The README's examples run, and print what the README says they print."""

import ast
import json
import re
import shlex
from pathlib import Path

import numpy as np

from bnspectral.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def block_after(heading: str, fence: str) -> str:
    """The first code block opened by ``fence`` after ``heading``."""
    text = README.read_text()
    start = text.index(fence + "\n", text.index(heading)) + len(fence) + 1
    return text[start:text.index("```", start)]


def test_readme_library_example():
    source = block_after("## Library entry points", "```python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        _, _, comment = lines[stmt.end_lineno - 1].partition("#")
        if isinstance(stmt, ast.Expr) and comment.strip():
            got = eval(code, namespace)
            want = eval(comment, {"array": np.array})
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want), (code, got)
            else:
                assert got == want, (code, got)
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 6


def test_readme_dsl_example(tmp_path, capsys):
    net = tmp_path / "example.bnet"
    net.write_text(block_after("## Network DSL", "```text"))
    assert main(["collapse", str(net), "--out", str(tmp_path / "out")]) == 0
    collapsed = json.loads((tmp_path / "out" / "collapsed.json").read_text())
    assert sorted(c["name"] for c in collapsed["constants"]) == ["arca", "mara"]
    assert collapsed["non_effective_inputs"] == ["salicylate"]


def test_readme_toy_network(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the commands name toy.bnet and out-toy relative
    heading = "## Example: a 12-node toy network"
    Path("toy.bnet").write_text(block_after(heading, "```text"))
    section = README.read_text().split(heading)[1]

    collapse = shlex.split(re.search(r"`(bnspectral collapse [^`]*)`", section).group(1))
    assert main(collapse[1:]) == 0
    constants = json.loads(capsys.readouterr().out)["constants"]
    assert constants == [{"name": "tie", "value": 1}]

    analyze = shlex.split(block_after(heading, "```sh"))
    assert analyze[:2] == ["bnspectral", "analyze"]
    assert main(analyze[1:]) == 0
    report = json.loads(Path("out-toy", "report.json").read_text())
    assert report["tau"][0] == "glucose" and report["tau"][-1] == "signal_c"
    assert round(report["d_values"]["glucose"], 6) == 2.385119
