"""The benchmark in perfbench/ reaches into the package by name: the traced
run patches every (module, attribute) in tracing.TRACED, and the workloads
call a few package exports.  A refactor that drops or moves one of these
names breaks the benchmark, so the names are checked here."""

import ast
import importlib
from pathlib import Path

import msetperm

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> tuple[tuple[str, str], ...]:
    # read, not imported: the benchmark's own module stays out of the tests
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACING}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module_name, attr in traced:
        target = importlib.import_module(f"msetperm.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)


def test_workload_exports_exist():
    for name in ("count_at_height", "builtin_rule", "closed_count", "count_avoiders"):
        assert callable(getattr(msetperm, name)), name
