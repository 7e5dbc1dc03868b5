"""Every package module uses each name it imports, every exception class
in ``errors.py`` is raised somewhere in the package, and every public
function or method has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schedreduce"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]
CALLER_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]
# only tests call it: the acceptance cross-check of validate_grouped, and
# it is the map the planned grouping of exact related optima inverts
UNCALLED_ALLOWED = {"materialize_grouped_schedule"}


def unused_imports(source: str) -> list:
    """Names that ``source`` imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unraised_classes(errors_source: str, sources: list) -> list:
    """Classes defined in ``errors_source`` that no ``raise`` statement in
    ``sources`` names, sorted."""
    defined = {node.name for node in ast.walk(ast.parse(errors_source))
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return sorted(defined - raised)


def test_unused_imports_finds_plain_from_and_aliased_names():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "import json as j\nfrom math import gcd, lcm as least\nprint(gcd, j)\n")
    assert unused_imports(source) == ["least", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unraised_classes_finds_classes_no_raise_names():
    errors = "class A(Exception): pass\nclass B(A): pass\nclass C(A): pass\n"
    sources = ["raise A('x')\n", "try:\n    pass\nexcept C:\n    raise B\n"]
    assert unraised_classes(errors, sources) == ["C"]


def test_every_error_class_is_raised():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert unraised_classes(errors, sources) == []


def public_functions(source: str) -> list:
    """Public module-level functions and methods of ``source``, as
    ``name`` or ``Class.name``, in definition order."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out.extend(f"{node.name}.{f.name}" for f in node.body
                       if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
    return out


def named(sources: list) -> set:
    """Every identifier that ``sources`` read as a name or an attribute."""
    out = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_public_functions_and_named_find_definitions_and_uses():
    source = ("def f():\n    pass\ndef _g():\n    pass\nclass C:\n"
              "    def m(self):\n        return f\n    def __init__(self):\n"
              "        self.h = obj.k\n")
    assert public_functions(source) == ["f", "C.m"]
    assert named([source]) == {"f", "self", "h", "obj", "k"}


def test_every_public_function_has_a_caller_outside_the_tests():
    used = named([p.read_text(encoding="utf-8")
                  for folder in CALLER_DIRS for p in sorted(folder.rglob("*.py"))])
    uncalled = [name for path in MODULES
                for name in public_functions(path.read_text(encoding="utf-8"))
                if name.rpartition(".")[2] not in used]
    assert sorted(uncalled) == sorted(UNCALLED_ALLOWED)
