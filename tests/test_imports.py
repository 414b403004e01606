"""Every package import sits at module level, so an import cycle between
two modules fails at import time instead of hiding in a function body; and
importing the package stays cheap."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msetperm

SOURCES = sorted(Path(msetperm.__file__).resolve().parent.glob("*.py"))
SRC = str(Path(msetperm.__file__).resolve().parents[1])


def _is_package_import(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "msetperm"
    return isinstance(node, ast.Import) and \
        any(alias.name.split(".")[0] == "msetperm" for alias in node.names)


def _function_level_package_imports(tree: ast.AST) -> list[int]:
    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func) if _is_package_import(node)})


def test_no_package_import_inside_a_function():
    assert SOURCES
    found = {path.name: lines for path in SOURCES
             if (lines := _function_level_package_imports(ast.parse(path.read_text())))}
    assert found == {}


def test_the_scan_sees_a_nested_import():
    tree = ast.parse("def f():\n    if True:\n        from .formulas import REGISTRY\n")
    assert _function_level_package_imports(tree) == [3]


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
    # the package's __init__ imports its public names to re-export them
    found = {path.name: names for path in SOURCES if path.name != "__init__.py"
             if (names := _unused_imports(ast.parse(path.read_text())))}
    assert found == {}


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os.path\nfrom bisect import insort, bisect_right as br\n"
                     "x: br = os.sep\n")
    assert _unused_imports(tree) == ["insort"]
