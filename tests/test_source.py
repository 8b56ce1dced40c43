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
    # builds a Ring, and no construction defines a scalar mul: the generator
    # products are the one definition of the product, so that no
    # construction forks its own product loop again.
    tree = ast.parse((PACKAGE / "constructions.py").read_text())
    found = {"mul": [], "Ring": []}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.FunctionDef) and node.name == "mul":
                found["mul"].append(top.name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Ring":
                found["Ring"].append(top.name)
    assert found == {"mul": [], "Ring": ["_positional"]}


def test_harness_skips_and_records_through_one_place():
    # A suite case over the cap is skipped only through `_frozen`, and a
    # falsifier check records its failure only through the `fail` of
    # `_check_instance`, so that no suite or check grows its own copy again.
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    handlers, appends = [], []
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and getattr(node.type, "id", None) == \
                    "CapExceededError":
                handlers.append(name)
            if name == "_check_instance" and isinstance(node, ast.Call) and \
                    ast.unparse(node.func) == "failures.append":
                appends.append(node.lineno)
    assert handlers == ["_frozen", "falsify"]
    assert len(appends) == 1


def test_ring_level_sets_read_no_row_per_element_or_unit():
    # The Jacobson radical is sieved from the nilpotents and the unit-multiple
    # masks are closed under generators of the unit group, so that neither
    # reads one row per element or per unit again.
    found = []
    for module, name in [("kernel.py", "_compute_jacobson"), ("deciders.py", "_element_masks")]:
        tree = ast.parse((PACKAGE / module).read_text())
        [function] = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == name]
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_row_blocks":
                found.append((name, ast.unparse(node.args[1])))
    assert found == [("_element_masks", "sorted(caches.idempotents)")]


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
