"""Every package import sits at module level, so an import cycle between
two modules fails at import time instead of hiding in a function body.
The one import made inside a function is the package's __getattr__, which
loads a public name's home module the first time the name is read; since
`import msetperm` loads no module, each module is also imported on its own
in a fresh interpreter, where a cycle through it would fail.  Importing
the package stays cheap."""

import ast
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import msetperm

SOURCES = sorted(Path(msetperm.__file__).resolve().parent.glob("*.py"))
SRC = str(Path(msetperm.__file__).resolve().parents[1])
MODULES = [path.stem for path in SOURCES if path.name != "__init__.py"]


def _is_package_import(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "msetperm"
    return isinstance(node, ast.Import) and \
        any(alias.name.split(".")[0] == "msetperm" for alias in node.names)


def _is_import_call(node: ast.AST) -> bool:
    # importlib.import_module(...), import_module(...) or __import__(...),
    # whatever module they are given
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("import_module", "__import__")


def _function_level_package_imports(tree: ast.AST) -> list[int]:
    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if _is_package_import(node) or _is_import_call(node)})


def test_no_package_import_inside_a_function():
    assert SOURCES
    found = {path.name: lines for path in SOURCES
             if (lines := _function_level_package_imports(ast.parse(path.read_text())))}
    init = ast.parse(Path(msetperm.__file__).read_text())
    getattr_ = next(node for node in init.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__getattr__")
    allowed = _function_level_package_imports(getattr_)
    assert len(allowed) == 1
    assert found == {"__init__.py": allowed}


def test_the_scan_sees_a_nested_import():
    tree = ast.parse("def f():\n    if True:\n        from .formulas import REGISTRY\n")
    assert _function_level_package_imports(tree) == [3]


def test_the_scan_sees_an_import_call():
    tree = ast.parse("import importlib\nfrom importlib import import_module\n"
                     "def f(name):\n    return importlib.import_module(name)\n"
                     "def g(name):\n    return import_module('.' + name, 'msetperm')\n"
                     "def h():\n    return __import__('msetperm.core')\n"
                     "def k():\n    return 'import_module'\n")
    assert _function_level_package_imports(tree) == [4, 6, 8]


def test_the_package_import_loads_no_module_of_the_package():
    code = ("import sys; import msetperm; "
            "print(sorted(k for k in sys.modules if k.startswith('msetperm.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def test_every_public_name_is_the_object_its_home_module_binds():
    assert len(msetperm.__all__) == 48
    assert set(msetperm.__all__) <= set(dir(msetperm))
    star: dict = {}
    exec("from msetperm import *", star)
    for name in msetperm.__all__:
        obj = getattr(msetperm, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"msetperm.{name}")
        else:
            assert obj is getattr(importlib.import_module(obj.__module__), name), name
        namespace: dict = {}
        exec(f"from msetperm import {name}", namespace)
        assert namespace[name] is obj and star[name] is obj, name
    assert not hasattr(msetperm, "no_such_name")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # with nothing of the package loaded first, an import cycle through this
    # module fails here
    assert len(MODULES) == 11
    subprocess.run([sys.executable, "-c", f"import msetperm.{module}"], capture_output=True,
                   check=True, env={**os.environ, "PYTHONPATH": SRC})


@pytest.mark.parametrize("module", ["msetperm", "msetperm.cli"])
def test_import_loads_no_heavy_stdlib_module(module):
    # dataclasses brings inspect, ast, dis and tokenize, and fractions brings
    # decimal: together most of the time a one-shot command spends importing
    heavy = {"dataclasses", "inspect", "fractions"}
    # the cache keys with the built-in SHA-256 where there is one, so OpenSSL,
    # several MB of memory, stays unloaded
    if module == "msetperm.cli" and any(map(importlib.util.find_spec, ("_sha2", "_sha256"))):
        heavy |= {"_hashlib", "ssl"}
    code = (f"import sys; before = set(sys.modules); import {module}; "
            f"print(sorted({heavy!r} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names a module imports and never reads (from __future__ aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_no_module_imports_a_name_it_does_not_use():
    found = {path.name: names for path in SOURCES
             if (names := _unused_imports(ast.parse(path.read_text())))}
    assert found == {}


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os.path\nfrom bisect import insort, bisect_right as br\n"
                     "x: br = os.sep\n")
    assert _unused_imports(tree) == ["insort"]
