"""Every package module uses each name it imports, and every exception
class in ``errors.py`` is raised somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schedreduce"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
