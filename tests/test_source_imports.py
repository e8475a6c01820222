"""Every name a module of the package, of its tests or of its demos imports
is used in that module, no module of the package imports scipy (a test
oracle only), no module of the package but `elements.py` reads an
algebra element's private coordinate row (the rest go through coords() or
the slot views), and no module of the package but `nilclassify.py` names
the classifier's private frame `_Frame` (the rest ask `_frame_of`), and
the closed forms `exp_closed` and `delta_formula` share no code with their
oracle `exp_series` but `linalg.int_row`.

The package's `__init__.py` is exempt for its relative imports: those are
re-exports, listed in `__all__`.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "su2n"
DEMOS = TESTS.parent / "demos"


def unused_imports(path: Path) -> list:
    """(line, name) for each name bound by an import and never referenced."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reexports = path.name == "__init__.py"
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level):
                continue
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports_in_demos(path):
    assert unused_imports(path) == []


def test_unused_import_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os.path\nimport re\nfrom math import pi, tau as t\n"
                   "print(os.path.sep, t)\n")
    assert unused_imports(mod) == [(3, "re"), (4, "pi")]


def test_the_package_does_not_import_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno) for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def private_row_reads(path: Path) -> list:
    """Lines that read the attribute `_row`, directly or by its name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Attribute) and node.attr == "_row")
                   or (isinstance(node, ast.Constant) and node.value == "_row")})


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "elements.py"], ids=lambda p: p.name)
def test_only_elements_reads_the_private_row(path):
    assert private_row_reads(path) == []


def test_private_row_read_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(u):\n    return u.coords(), u._row[0], getattr(u, '_row')\n")
    assert private_row_reads(mod) == [2]
    assert private_row_reads(SRC / "elements.py") != []


def frame_names(path: Path) -> list:
    """Lines that name `_Frame`: as a variable, an attribute, an imported
    name or a string."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Name) and node.id == "_Frame")
                   or (isinstance(node, ast.Attribute) and node.attr == "_Frame")
                   or (isinstance(node, ast.alias) and node.name == "_Frame")
                   or (isinstance(node, ast.Constant) and node.value == "_Frame")})


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "nilclassify.py"], ids=lambda p: p.name)
def test_only_nilclassify_names_the_frame(path):
    assert frame_names(path) == []


def test_frame_name_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .nilclassify import (\n    _Frame,\n)\n"
                   "from . import nilclassify\n"
                   "f = nilclassify._Frame(h)\ng = getattr(nilclassify, '_Frame')\n")
    assert frame_names(mod) == [2, 5, 6]
    assert frame_names(SRC / "nilclassify.py") != []


# the series oracle and the matrix machinery it runs on
ORACLE_NAMES = {"exp_series", "_gaussian_product", "_gaussian_of_row", "_coord_entries",
                "_mat_mul"}


def closed_form_reach(path: Path) -> tuple:
    """(reached, found): the module-level functions that `exp_closed` and
    `delta_formula` reach by name, themselves included, and the (function,
    line, name) of each name in ORACLE_NAMES that one of them mentions, as
    a variable, an attribute or a string."""
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, reached, found = ["exp_closed", "delta_formula"], set(), set()
    while todo:
        name = todo.pop()
        if name in reached or name not in funcs:
            continue
        reached.add(name)
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                ident = node.value
            else:
                continue
            if ident in ORACLE_NAMES:
                found.add((name, node.lineno, ident))
            elif ident in funcs:
                todo.append(ident)
    return sorted(reached), sorted(found)


def test_the_closed_forms_share_no_code_with_the_series_oracle():
    reached, found = closed_form_reach(SRC / "elements.py")
    assert {"exp_closed", "_check_phi0_form", "_check_y0_form", "delta_formula"} <= set(reached)
    assert found == []


def test_an_oracle_name_in_a_closed_form_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def exp_series(u):\n    return _gaussian_product(u)\n"
                   "def _helper(u):\n    return elements._mat_mul(u)\n"
                   "def exp_closed(u):\n    return _helper(u), GroupElement(u)\n"
                   "def delta_formula(u):\n    return getattr(m, 'exp_series')(u)\n"
                   "class GroupElement:\n    def f(self):\n        return _coord_entries\n")
    reached, found = closed_form_reach(mod)
    assert reached == ["_helper", "delta_formula", "exp_closed"]
    assert found == [("_helper", 4, "_mat_mul"), ("delta_formula", 8, "exp_series")]
