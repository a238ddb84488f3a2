"""README's library example runs as written and gives the values its comments state."""

import ast
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_matches_its_comments():
    # each line is one statement; an expression line's value is keyed by its comment
    namespace: dict = {}
    values = {}
    for line in _library_block().splitlines():
        code, _, comment = line.partition("  #")
        if not code.strip():
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            values[comment.strip()] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert np.allclose(values["diag(0.75, -0.75)"], np.diag([0.75, -0.75]))
    assert values["1.25 == tr(g)/2"] == pytest.approx(1.25)
    assert values["6"] == 6
