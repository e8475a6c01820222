"""Every name a module of the package, of its tests or of its demos imports
is used in that module, no module of the package imports scipy (a test
oracle only), only `lab.py`, `metrics.py` and `verify.py` import numpy (the
exact core has none), a rational row is read into ints in one place (only
`elements.py` and `linalg.py` name `linalg.int_row`; the rest take the rows
(ints, den) that these two give), no module of the package but
`nilclassify.py` names the classifier's private frame `_Frame` (the rest ask
`_frame_of`), and the closed forms `exp_closed` and `delta_formula` share no
code with their oracle `exp_series` (all three read the element's ints).
The classifiers `nilclassify.py` and `anclassify.py` import none of the QQi
slot helpers `herm`, `abs2` and `conj` (their decisions read coordinate
rows) and no `ad_a` (the a-action is the a-part term of the bracket).  Every
defaulted parameter of a function of the package is passed by some call in
the package, the benchmark, the tests or the demos: a default no caller
overrides is a constant, not an option.  The case tables
`nilclassify.SEMIDIRECT_CASES` and `anclassify._GRAPH_SHAPES` hold their
rows as data, with no lambda in them.

The package's `__init__.py` is exempt for its relative imports: those are
re-exports, listed in `__all__`.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "su2n"
DEMOS = TESTS.parent / "demos"
BENCH = TESTS.parent / "bench"


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


def imported_modules(path: Path) -> list:
    """(line, top-level module) for each absolute import of the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_the_package_does_not_import_scipy():
    assert [(path.name, line) for path in sorted(SRC.glob("*.py"))
            for line, name in imported_modules(path) if name == "scipy"] == []


NUMPY_MODULES = {"lab.py", "metrics.py", "verify.py"}


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in NUMPY_MODULES], ids=lambda p: p.name)
def test_only_the_float_modules_import_numpy(path):
    assert [line for line, name in imported_modules(path) if name == "numpy"] == []


def test_numpy_import_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import numpy as np\nfrom numpy.linalg import svd\n"
                   "from . import numpy\nimport numpyro\n")
    assert [line for line, name in imported_modules(mod) if name == "numpy"] == [1, 2]
    assert "numpy" in dict(imported_modules(SRC / "lab.py")).values()


# the modules that read rational entries into a row (ints, den)
ROW_READERS = {"elements.py", "linalg.py"}


def private_row_reads(path: Path) -> list:
    """Lines that read rationals into a row: that name `int_row`, as a
    variable, an attribute, an imported name or a string."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Name) and node.id == "int_row")
                   or (isinstance(node, ast.Attribute) and node.attr == "int_row")
                   or (isinstance(node, ast.alias) and node.name == "int_row")
                   or (isinstance(node, ast.Constant) and node.value == "int_row")})


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "elements.py"], ids=lambda p: p.name)
def test_only_elements_reads_the_private_row(path):
    """Only elements and linalg read rationals into a row: nilclassify,
    subalgebra, anclassify, weyl, lab and the rest take rows (ints, den)."""
    assert (private_row_reads(path) != []) == (path.name in ROW_READERS)


def test_private_row_read_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from su2n import linalg\nfrom su2n.linalg import int_row as read\n\n"
                   "def f(u):\n    return u.coords(), linalg.int_row(u.coords())\n\n"
                   "g = getattr(linalg, 'int_row')\n")
    assert private_row_reads(mod) == [2, 5, 7]
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


def imported_names(path: Path) -> list:
    """(line, name) for each name imported by `from ... import`, by its
    original name."""
    return [(node.lineno, a.name) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) for a in node.names]


# the QQi slot helpers and the a-action, which the classifiers read off rows
# and off the bracket
SLOT_VIEW_NAMES = {"herm", "abs2", "conj", "ad_a"}


@pytest.mark.parametrize("name", ["nilclassify.py", "anclassify.py"])
def test_the_classifiers_import_no_slot_view_helpers(name):
    assert [item for item in imported_names(SRC / name) if item[1] in SLOT_VIEW_NAMES] == []


def test_a_slot_view_import_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .scalars import QQi, conj as c\nimport herm\n"
                   "def f():\n    from .elements import ad_a\n")
    assert [item for item in imported_names(mod) if item[1] in SLOT_VIEW_NAMES] == [
        (1, "conj"), (4, "ad_a")]


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


# the case tables, which hold their rows as data
CASE_TABLES = {"SEMIDIRECT_CASES", "_GRAPH_SHAPES"}


def table_lambdas(path: Path) -> dict:
    """Table name -> the lines of the lambdas in the value assigned to it,
    for each name in CASE_TABLES that the module assigns."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for name in {t.id for t in targets if isinstance(t, ast.Name)} & CASE_TABLES:
            found.setdefault(name, []).extend(
                n.lineno for n in ast.walk(node.value) if isinstance(n, ast.Lambda))
    return found


@pytest.mark.parametrize("name, table", [("nilclassify.py", "SEMIDIRECT_CASES"),
                                         ("anclassify.py", "_GRAPH_SHAPES")])
def test_the_case_tables_hold_no_lambdas(name, table):
    assert table_lambdas(SRC / name) == {table: []}


def test_a_table_lambda_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("SEMIDIRECT_CASES = [Row(1, lambda f: True), Row(2, None)]\n"
                   "_GRAPH_SHAPES: dict = {\n    'a': lambda r: r,\n    'b': 1,\n}\n"
                   "OTHER = [lambda: 0]\n")
    assert table_lambdas(mod) == {"SEMIDIRECT_CASES": [1], "_GRAPH_SHAPES": [3]}
    assert table_lambdas(TESTS / "references.py")["SEMIDIRECT_CASES"] != []


def defaulted_parameters(path: Path) -> list:
    """(function, parameter, position) for each parameter with a default of
    each function the module defines, nested ones included.  position is the
    index of the positional argument of a call that passes the parameter,
    None for a keyword-only one; a method's call `obj.f(...)` leaves out
    self, and its name is the class's for __init__.  The other dunder
    methods are called by operators or call syntax, never by name, and are
    left out."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name.startswith("__") and child.name != "__init__":
                    continue
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if in_class and not static else 0
                name = in_class if in_class and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                found.extend((name, a.arg, k - skip)
                             for k, a in enumerate(positional) if k >= first)
                found.extend((name, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child, None)
            else:
                visit(child, in_class)
    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def passed_arguments(paths) -> dict:
    """Function name -> [(positional count, keywords)] over every call
    `f(...)` or `obj.f(...)` in the files.  A call with *args counts as
    passing every position from its star on, and one with **kwargs every
    keyword (keywords None)."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            stars = [k for k, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            count = float("inf") if stars else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((count, None if None in keywords else keywords))
    return calls


def unpassed_parameters(defining, calling) -> list:
    """(module, function, parameter) for each defaulted parameter of the
    files `defining` that no call in the files `calling` passes."""
    calls = passed_arguments(calling)
    return [(path.name, fn, param) for path in defining
            for fn, param, pos in defaulted_parameters(path)
            if not any(keywords is None or param in keywords
                       or (pos is not None and pos < count)
                       for count, keywords in calls.get(fn, []))]


def test_every_defaulted_parameter_is_passed_by_some_call():
    calling = [p for folder in (SRC, BENCH, TESTS, DEMOS) for p in sorted(folder.glob("*.py"))]
    assert unpassed_parameters(sorted(SRC.glob("*.py")), calling) == []


def test_an_unpassed_parameter_is_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b=1, *, c=2, d=3):\n    def g(e=0):\n        return e\n"
                   "    return g()\n"
                   "class C:\n    def __init__(self, h=0):\n        pass\n"
                   "    def m(self, i=0, j=0):\n        return i\n"
                   "    @staticmethod\n    def s(k=0):\n        return k\n"
                   "    def __call__(self, l=0):\n        return l\n")
    use = tmp_path / "use.py"
    use.write_text("f(0, 1, c=2)\nC().m(1)\nx.s(5)\nf(*args)\nC(**kw)\n")
    assert unpassed_parameters([mod], [use]) == [
        ("mod.py", "f", "d"), ("mod.py", "g", "e"), ("mod.py", "m", "j")]


def test_every_name_of_the_package_resolves():
    """The package loads its modules on first access: every name of
    __all__ resolves to the object of its module, and no other does."""
    import importlib

    import su2n
    assert len(su2n.__all__) == len(set(su2n.__all__))
    for name in su2n.__all__:
        value = getattr(su2n, name)
        if name in su2n._MODULES:
            assert value is importlib.import_module(f"su2n.{name}")
        else:
            assert value is getattr(importlib.import_module(f"su2n.{su2n._OWNER[name]}"), name)
    assert set(su2n.__all__) <= set(dir(su2n))
    with pytest.raises(AttributeError):
        su2n.no_such_name
