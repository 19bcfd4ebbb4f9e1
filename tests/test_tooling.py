"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qmet"


def test_no_assert_in_library():
    # `python -O` strips assert statements, so no check may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
