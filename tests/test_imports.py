"""Every package import sits at module level, so an import cycle between
two modules fails at import time instead of hiding in a function body."""

import ast
from pathlib import Path

import msetperm

SOURCES = sorted(Path(msetperm.__file__).resolve().parent.glob("*.py"))


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
