"""The README's library example runs, and prints what its comments say."""

import ast
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library entry points")) + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_library_example():
    source = library_block()
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
    assert checked == 5
