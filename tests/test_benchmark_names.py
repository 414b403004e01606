"""The benchmark in perfbench/ reaches into the package by name: the traced
run patches every (module, attribute) in tracing.TRACED, the workloads call
package exports through self.pkg and read verify's suites and results, and
make_truth.py reads the rule and formula tables.
A refactor that drops or moves one of these names breaks the benchmark, so
the names are checked here."""

import ast
import importlib
from pathlib import Path

import msetperm
from msetperm.core import Pattern
from msetperm.formulas import REGISTRY
from msetperm.gentree import RULE_PATTERN_PAIRS
from msetperm.verify import CheckResult, run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"
MAKE_TRUTH = PERFBENCH / "make_truth.py"


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


def _workload_exports() -> set[str]:
    # read, not imported, as _traced() reads tracing.py: every self.pkg.<name>
    return {node.attr for node in ast.walk(ast.parse(WORKLOADS.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "pkg" and getattr(node.value.value, "id", None) == "self"}


def test_workload_exports_exist():
    names = _workload_exports()
    assert names
    for name in names:
        assert callable(getattr(msetperm, name)), name


def test_evidence_reads_of_verify_exist():
    # the evidence workload calls run_suite and reads hard, ok and line()
    assert callable(run_suite)
    result = CheckResult("suite", "check", ok=False, detail="why")
    assert result.hard is True and result.ok is False
    assert result.line() == "[FAIL] suite/check: why"


def test_make_truth_imports_resolve():
    # read, not run: the script refuses to overwrite the checked-in table
    imports = [node for node in ast.walk(ast.parse(MAKE_TRUTH.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "msetperm"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)


def test_make_truth_reads_the_rule_and_formula_tables():
    assert RULE_PATTERN_PAIRS
    for name, pair in RULE_PATTERN_PAIRS.items():
        assert isinstance(name, str) and len(pair) == 2, name
        for text in pair:
            assert isinstance(text, str) and str(Pattern.parse(text)) == text, (name, text)
    for entry in REGISTRY.values():
        assert isinstance(entry.validity(2, 2), bool), entry.table_pair
