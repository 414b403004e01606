"""The benchmark in perfbench/ reaches into the package by name: the traced
run patches every (module, attribute) in tracing.TRACED, the workloads call
package exports through self.pkg and read verify's suites and results, and
make_truth.py reads the rule and formula tables.
A refactor that drops or moves one of these names breaks the benchmark, so
the names are checked here."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msetperm
from msetperm.classify import canonical_pair, classify_all_length3
from msetperm.core import Pattern
from msetperm.formulas import REGISTRY
from msetperm.gentree import RULE_PATTERN_PAIRS
from msetperm.verify import SUITES, CheckResult, run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"
MAKE_TRUTH = PERFBENCH / "make_truth.py"
TRUTH = PERFBENCH / "truth.json"


def _traced() -> tuple[tuple[str, str], ...]:
    # read, not imported: the benchmark's own module stays out of the tests
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACING}")


def _resolve(module_name: str, attr: str):
    target = importlib.import_module(f"msetperm.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module_name, attr in traced:
        assert callable(_resolve(module_name, attr)), (module_name, attr)


def _workload_class_constants() -> dict[str, dict[str, ast.expr]]:
    # read, not imported: each workload class's assignments, by class name
    return {node.name: {target.id: stmt.value for stmt in node.body
                        if isinstance(stmt, ast.Assign)
                        for target in stmt.targets if isinstance(target, ast.Name)}
            for node in ast.parse(WORKLOADS.read_text()).body
            if isinstance(node, ast.ClassDef)}


def test_every_root_span_that_names_a_package_function_resolves():
    # a traced run checks that its root spans cover run_s; a root span given
    # as a literal "module.function" must be a function the shims can wrap
    constants = _workload_class_constants()
    spans = {name: body["root_spans"] for name, body in constants.items()
             if "root_spans" in body}
    assert set(spans) == {"OracleSweep", "Evidence", "CliSession"}
    functions = []
    for node in spans.values():
        try:
            functions += ast.literal_eval(node)
        except ValueError:
            pass  # built in the class, as the evidence suites' spans are
    assert functions
    for name in functions:
        assert callable(_resolve(*name.split(".", 1))), name
    # the evidence spans are opened around run_suite, one per suite
    assert set(ast.literal_eval(constants["Evidence"]["SUITES"])) <= set(SUITES)


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


#: run in a fresh interpreter: each workload export is read through the
#: package before the patch or first during it, and patched and restored as
#: tracing.Tracer does it: after the traced functions' home modules are
#: imported, on every module of the package that binds the function
PATCH_AND_RESTORE = """
import importlib, json, sys
import msetperm
traced_homes, exports, first_read = json.loads(sys.argv[1])
for home in traced_homes:
    importlib.import_module(f"msetperm.{home}")
seen = {}
for name, home in exports.items():
    original = getattr(sys.modules[home], name)
    if first_read == "before":
        getattr(msetperm, name)
    shim = lambda *args, **kwargs: original(*args, **kwargs)
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "msetperm" or k.startswith("msetperm."))]
    patches = [(m, key) for m in modules for key, value in list(vars(m).items())
               if value is original]
    for m, key in patches:
        setattr(m, key, shim)
    during = getattr(msetperm, name) is shim
    for m, key in reversed(patches):
        setattr(m, key, original)
    seen[name] = [during, getattr(msetperm, name) is original]
print(json.dumps(seen))
"""


@pytest.mark.parametrize("first_read", ["before", "during"])
def test_package_names_follow_the_tracers_patch_and_restore(first_read):
    # the package looks a name up in its home module each time it is read;
    # one it kept from a read during the patch would still be the shim after
    # the restore
    traced_homes = sorted({module for module, _ in _traced()})
    exports = {name: getattr(msetperm, name).__module__ for name in _workload_exports()}
    src = str(Path(msetperm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", PATCH_AND_RESTORE,
                          json.dumps([traced_homes, exports, first_read])],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert json.loads(out.stdout) == {name: [True, True] for name in exports}


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


def test_make_truth_would_write_the_same_class_rows():
    # the 21 class rows rebuilt as make_truth.py builds them, against the
    # checked-in table, which is only read
    rows = []
    for cls in classify_all_length3():
        rep = canonical_pair(cls.representative)
        entry = REGISTRY.get(rep)
        rule = next((name for name, pair in RULE_PATTERN_PAIRS.items()
                     if canonical_pair(pair) == rep), None)
        rows.append({"members": [f"{a},{b}" for a, b in cls.members],
                     "trust": entry.trust if entry else None,
                     "rule": rule})
    assert len(rows) == 21
    assert rows == json.loads(TRUTH.read_text())["classes"][:21]
