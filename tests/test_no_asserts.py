"""The package validates with typed errors: python -O strips assert statements."""

import ast
from pathlib import Path

import codespectra

SOURCES = sorted(Path(codespectra.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
