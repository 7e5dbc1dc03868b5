"""Every package module uses each name it imports, every exception class
in ``errors.py`` is raised somewhere in the package, every public
function or method has a caller outside the tests, every optional
parameter of one has a caller outside the tests that passes it, no
constructor checks its values with a rule of its own, and no module
rebinds a module-level name from inside a function (``global``)."""

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


def optional_parameters(source: str) -> list:
    """``(name, parameter, place)`` for each parameter with a default of
    the public functions and methods of ``source``, in definition order;
    ``place`` is its index among a call's positional arguments (``self``
    is not one), or None when it is keyword-only."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            funcs = [(node, 0)]
        elif isinstance(node, ast.ClassDef):
            funcs = [(f, 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in f.decorator_list) else 1)
                     for f in node.body if isinstance(f, ast.FunctionDef)]
        else:
            continue
        for f, bound in funcs:
            if f.name.startswith("_"):
                continue
            args = f.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(f.name, a.arg, k - bound) for k, a in enumerate(positional) if k >= first]
            out += [(f.name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def passed_arguments(sources: list) -> set:
    """``(name, keyword)`` and ``(name, place)`` for each keyword and each
    positional place that a call of ``name`` (a plain or an attribute
    call) in ``sources`` fills; ``(name, "*")`` when a call unpacks
    ``*args`` or ``**kwargs``, which may fill any of them."""
    out = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                out.add((name, "*"))
            out.update((name, k) for k in range(len(node.args)))
            out.update((name, k.arg) for k in node.keywords)
    return out


def test_optional_parameters_and_passed_arguments_find_defaults_and_calls():
    source = ("def f(a, b=1, *, c=2, d):\n    pass\ndef _g(x=1):\n    pass\nclass C:\n"
              "    def m(self, x, y=0):\n        pass\n    @staticmethod\n"
              "    def s(z=0):\n        pass\n")
    assert optional_parameters(source) == [
        ("f", "b", 1), ("f", "c", None), ("m", "y", 1), ("s", "z", 0)]
    calls = "f(1, 2, d=3)\nobj.m(1, y=2)\ns(*rest)\n"
    assert passed_arguments([calls]) == {
        ("f", 0), ("f", 1), ("f", "d"), ("m", 0), ("m", "y"), ("s", 0), ("s", "*")}


def test_every_optional_parameter_is_passed_outside_the_tests():
    calls = passed_arguments([p.read_text(encoding="utf-8")
                              for folder in CALLER_DIRS for p in sorted(folder.rglob("*.py"))])
    unpassed = [f"{name}({param})" for path in MODULES
                for name, param, place in optional_parameters(path.read_text(encoding="utf-8"))
                if not {(name, param), (name, place), (name, "*")} & calls]
    assert unpassed == []


def own_value_rules(source: str) -> list:
    """``Class.__post_init__`` names, sorted, of the constructors in
    ``source`` that call ``isinstance`` or ``int`` themselves instead of
    the value rule in ``model`` (``_check_types``, ``as_fraction``)."""
    out = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for f in cls.body:
            if isinstance(f, ast.FunctionDef) and f.name == "__post_init__":
                if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                       and node.func.id in ("isinstance", "int") for node in ast.walk(f)):
                    out.add(f"{cls.name}.__post_init__")
    return sorted(out)


def test_own_value_rules_finds_isinstance_and_int_calls():
    source = ("class A:\n    def __post_init__(self):\n        isinstance(self.x, int)\n"
              "class B:\n    def __post_init__(self):\n        self.x = int(self.x)\n"
              "class C:\n    def __post_init__(self):\n        _check_types(_INT, 'x', (self.x,))\n"
              "class D:\n    def build(self):\n        return int(self.x)\n")
    assert own_value_rules(source) == ["A.__post_init__", "B.__post_init__"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_constructors_check_values_only_through_the_model_rule(path):
    assert own_value_rules(path.read_text(encoding="utf-8")) == []


# the one writer of domain objects and the one writer of gap tables
WRITE_TEXT_ALLOWED = {"serialize.write_file", "cli._write_rows"}


def write_text_callers(module: str, source: str) -> list:
    """``module.function``, sorted, for each module-level function or
    method (as ``module.Class.method``) of ``source`` that calls
    ``.write_text``, nested functions included in their outer one."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            funcs = [(f"{node.name}.{f.name}", f) for f in node.body
                     if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            funcs = [(node.name, node)]
        else:
            funcs = [("<module>", node)]
        for name, func in funcs:
            if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                   and call.func.attr == "write_text" for call in ast.walk(func)):
                out.add(f"{module}.{name}")
    return sorted(out)


def test_write_text_callers_finds_functions_methods_and_module_code():
    source = ("def f(p):\n    p.write_text('x')\ndef g(p):\n    def h():\n"
              "        Path(p).write_text('y')\nclass C:\n    def m(self):\n"
              "        self.p.write_text('z')\n    def n(self):\n        pass\n"
              "Path('a').write_text('b')\ndef k(p):\n    return p.read_text()\n")
    assert write_text_callers("mod", source) == ["mod.<module>", "mod.C.m", "mod.f", "mod.g"]


def test_only_the_two_writers_call_write_text():
    callers = [caller for path in MODULES
               for caller in write_text_callers(path.stem, path.read_text(encoding="utf-8"))]
    assert sorted(callers) == sorted(WRITE_TEXT_ALLOWED)


def global_statements(source: str) -> list:
    """The names that ``global`` statements in ``source`` declare, in the
    order they appear, nested functions and methods included."""
    return [name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)
            for name in node.names]


def test_global_statements_finds_declarations_at_any_depth():
    source = ("x = 1\ndef f():\n    global x\n    x = 2\nclass C:\n"
              "    def m(self):\n        def g():\n            global y, z\n"
              "def h():\n    nonlocal_free = x\n")
    assert global_statements(source) == ["x", "y", "z"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_rebinds_a_global(path):
    # process-wide state lives in objects mutated in place (a ``_Memo``)
    assert global_statements(path.read_text(encoding="utf-8")) == []
