"""Checks on the package source itself, and on the README's account of it."""

import ast
import re
from pathlib import Path

from finring import deciders, freeze, kernel, make_zmod
from finring.cli import GROUPS, RINGS, elaborate, parse, unparse

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


def test_package_makes_no_scalar_product():
    # No module calls a scalar .add(, .neg(, .mul( or .sub( (numpy's ufuncs
    # aside), and a frozen ring has no such op: every sum, difference and
    # product goes through _add_many, _sub_many and _mul_many, whole arrays
    # at a time, so that the ring ops keep one definition and no scalar loop
    # comes back into the package (above TABLE_LIMIT each scalar product is
    # a Python loop over the nonzero structure constants of its own).
    ops = ("add", "neg", "mul", "sub")
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ops and ast.unparse(node.func.value) != "np"]
    assert found == []
    for R in (freeze(make_zmod(6)), freeze(make_zmod(1031))):
        assert not [op for op in ops if hasattr(R, op)], R.label


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
    # The Jacobson radical is sieved from the nilpotents, and regular and
    # strongly regular are read from the unit-regular mask and the power
    # scan.  deciders.py reads row blocks only for the left-ideal keys of
    # every element (the cross-checks' definitions), for the ordered NI
    # search over the nilpotents and for x - e over the idempotents (of R,
    # or of each of its p-primary blocks), and harness.py reads none.  The
    # unit rows u*R of the left-orbit keys are read only where R has op
    # tables (lookups, at most ROW_BLOCK products at a time): the first
    # statement of kernel._left_orbit_keys returns None without them, and
    # the unit-multiple masks are then closed under generators of the unit
    # group.  So that no row per element, and no row per unit without op
    # tables, comes back into freeze or classify.
    found = []
    for module, names in [("kernel.py", ["_compute_jacobson", "_left_orbit_keys"]),
                          ("deciders.py", None)]:
        tree = ast.parse((PACKAGE / module).read_text())
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and (names is None or top.name in names):
                found += [(top.name, ast.unparse(node.args[1])) for node in ast.walk(top)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "_row_blocks"]
            if isinstance(top, ast.FunctionDef) and top.name == "_left_orbit_keys":
                guard = top.body[1]                     # after the docstring
                assert ast.unparse(guard) == "if R._mul_np is None:\n    return None"
    assert found == [("_left_orbit_keys", "np.flatnonzero(is_unit)"),
                     ("_left_ideal_masks", "every"), ("_ni_witness", "N"), ("_ni_witness", "N"),
                     ("_undivided_masks", "np.flatnonzero(is_idempotent)")]
    assert "_row_blocks" not in ast.unparse(ast.parse((PACKAGE / "harness.py").read_text()))


def test_definitional_cross_checks_read_no_block():
    # The left-ideal keys of _left_ideal_masks and the falsifier's checks in
    # _check_instance read the undivided ring: none of their names mentions
    # a p-primary block (the row blocks of kernel._row_blocks aside), so that
    # the connell suite and the falsifier stay an independent check of the
    # split that freeze and classify read.
    found = {}
    for module, name in [("deciders.py", "_left_ideal_masks"), ("harness.py", "_check_instance")]:
        tree = ast.parse((PACKAGE / module).read_text())
        top = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == name)
        found[name] = {getattr(node, "id", getattr(node, "attr", "")) for node in ast.walk(top)
                       if isinstance(node, (ast.Name, ast.Attribute))}
        found[name] = {word for word in found[name] if "block" in word} - {"_row_blocks"}
    assert found == {"_left_ideal_masks": set(), "_check_instance": set()}


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


def test_classify_is_the_one_element_decider():
    # The element flags are decided only as whole-ring masks, by classify:
    # deciders.py defines no per-element is_* but is_NI and no Decomposition,
    # and no module of the package reads a value of _ELEMENT_DECIDERS (an
    # index, .values() or .items()); its values are None, its keys the flag
    # names.  So that no second path per flag comes back.
    tree = ast.parse((PACKAGE / "deciders.py").read_text())
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and (node.name.startswith("is_") or node.name == "Decomposition")]
    assert defined == ["is_NI"]
    assert set(deciders._ELEMENT_DECIDERS.values()) == {None}
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Subscript, ast.Attribute))
             and ast.unparse(node.value).endswith("_ELEMENT_DECIDERS")]
    assert found == []


def test_only_the_lookups_name_the_op_tables():
    # The op tables are named only where they are built (_build_tables),
    # looked up (_mul_many, _add_many, _sub_many), asked for whether they
    # exist (_row_blocks; _power_scan, which picks the power table; and
    # _left_orbit_keys, which picks orbit keys over the generator closure
    # of deciders) and declared (Ring.__init__), so that the power table's
    # products go through _mul_many, deciders never names a table, and no
    # more code reads the tables directly.
    tables = {"_mul_np", "_add_np", "_neg_np"}
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            units = [(f"{top.name}.{node.name}", node) for node in top.body
                     if isinstance(node, ast.FunctionDef)] if isinstance(top, ast.ClassDef) \
                else [(getattr(top, "name", f"{path.name}:{top.lineno}"), top)]
            for name, unit in units:
                if any(getattr(node, "attr", getattr(node, "id", None)) in tables
                       for node in ast.walk(unit)):
                    found.add(name)
    assert found == {"Ring.__init__", "_build_tables", "_mul_many", "_add_many", "_sub_many",
                     "_row_blocks", "_power_scan", "_left_orbit_keys"}


def test_late_table_build_is_called_through_kernel(monkeypatch):
    # _left_ideal_masks builds R's op tables first, as kernel._build_tables(R),
    # and no module but kernel names _build_tables unqualified, so that a
    # wrapper bound to kernel._build_tables (the benchmark's tracer rebinds
    # it there) sees every build, the late one on a split ring included.
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in sorted(PACKAGE.rglob("*.py"))
             if path.name != "kernel.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if getattr(node, "id", None) == "_build_tables"
             or any(alias.name == "_build_tables" for alias in getattr(node, "names", ()))]
    assert found == []
    built = []
    build = kernel._build_tables

    def counted(R):
        built.append(R.label)
        return build(R)

    R = freeze(elaborate(parse("U(2, Z(10))")))
    assert R._blocks is not None and R._mul_np is None
    monkeypatch.setattr(kernel, "_build_tables", counted)
    deciders._left_ideal_masks(R)
    assert built == ["U(2, Z(10))"] and R._mul_np is not None
