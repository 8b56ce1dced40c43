"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finring"


def test_no_assert_statements():
    # Every check must raise explicitly, so that it also holds under python -O.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "kernel.py" in modules
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
