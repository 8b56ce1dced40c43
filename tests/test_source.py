"""Checks on the package source itself, and on the README's account of it."""

import ast
import re
from pathlib import Path

from finring.cli import GROUPS, RINGS, parse, unparse

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "finring"


def test_no_assert_statements():
    # Every check must raise explicitly, so that it also holds under python -O.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "kernel.py" in modules
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_constructions_have_one_scalar_product():
    # Every construction hands its terms to `_positional`, the one place that
    # defines a scalar mul and builds a Ring, so that no construction forks
    # its own product loop again.
    tree = ast.parse((PACKAGE / "constructions.py").read_text())
    found = {"mul": [], "Ring": []}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.FunctionDef) and node.name == "mul":
                found["mul"].append(top.name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Ring":
                found["Ring"].append(top.name)
    assert found == {"mul": ["_positional"], "Ring": ["_positional"]}


def _keywords(line):
    """The constructor keywords of a README grammar line: its words with their
    arguments dropped, less the "groups:" label and the product example."""
    return set(re.sub(r"\([^)]*\)|^groups:|\S+ x \S+$", "", line.strip()).split())


def test_readme_cli_section_matches_the_grammar():
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    grammar, commands = re.findall(r"```[a-z]*\n(.*?)```", section, re.S)[:2]
    ring_line, group_line = grammar.splitlines()
    assert _keywords(ring_line) == set(RINGS)
    assert _keywords(group_line) == set(GROUPS)
    quoted = re.findall(r'^finring \w+ "([^"]+)"', commands, re.M)
    assert len(quoted) >= 3
    for text in quoted:
        expr = parse(text)
        assert parse(unparse(expr)) == expr, text
