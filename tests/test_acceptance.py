"""Acceptance suite: every catalogued claim at full stated scope.

Criteria 1a, 2, 3, 4, 5, 6b and 7 run the cross-checking suites of
msetperm.verify at FULL_SCOPE, so `msetperm verify` runs the same checks at
its default scope.  The remaining criteria assert what no suite asserts.
Each criterion prints one [acceptance] line (visible with pytest -s, or in
the captured output on failure) and then asserts.  Counting is exact
integer arithmetic throughout, so "tolerance" always means equality.

Two quoted claims are refuted by the oracle (see README, "Known
discrepancies"), and their criteria assert the refutation as found:

* criterion 1b: pairs containing 111 are NOT counted by catalan(n) at
  m = 2 once n >= 2 (avoiding 111 is automatic there, so the pair counts
  as its other pattern alone); the rows stay report-only;
* criterion 6a: the 66 pattern pairs fall into 21 symmetry classes, not
  the quoted 20 (the class of (212,213) is missing from the quoted list).
"""

import functools
import inspect
import itertools
import time

from msetperm.classify import canonical_pair, classify_all_length3
from msetperm.core import LENGTH3_PATTERNS, PatternSet
from msetperm.enumeration import count_avoiders
from msetperm.formulas import REGISTRY, catalan, closed_count
from msetperm.verify import SUITES, imported_agreement_report, run_suite

#: The scope at which each verify suite backs the acceptance criteria: the
#: n*m <= 12 grid, trees to n = 60, explicit forms to n = 200, exhaustive
#: bijections with Dyck words counted to n = 10 and paths to n = 6,
#: ascent-free words to length 12, and class cells n*m <= 10.
FULL_SCOPE = {
    "table1": {"n_max": 6, "m_max": 3},
    "gentree": {"n_max": 6, "m_max": 3},
    "bijections": {"dyck_n": 10, "path_n": 6},
    "growth": {"word_max": 12},
    "classify": {},
}
GRID_BUDGET = 12


def _grid():
    for m in (2, 3):
        for n in range(0, GRID_BUDGET // m + 1):
            yield n, m


def _report(criterion: str, failures: list, elapsed: float, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} "
          f"({elapsed:.1f}s){' ' + detail if detail else ''}")
    assert not failures, f"criterion {criterion}: " + " | ".join(
        str(f) for f in failures[:6])


@functools.cache
def _full_run(suite: str):
    started = time.time()
    results = run_suite(suite, **FULL_SCOPE[suite])
    return results, time.time() - started


def _assert_suite(criterion: str, suite: str, select=lambda result: True) -> float:
    """Assert the selected hard checks of a suite run at full scope; return
    the wall time of that run."""
    results, elapsed = _full_run(suite)
    checked = [r for r in results if r.hard and select(r)]
    assert checked, f"criterion {criterion}: {suite} ran no checks"
    _report(criterion, [r.line() for r in checked if not r.ok], elapsed,
            detail=f"({len(checked)} {suite} checks)")
    return elapsed


#: The scope keywords that `msetperm verify --nmax/--mmax` sets.
CLI_SCOPE = {"table1": {"n_max", "m_max"}, "gentree": {"n_max", "m_max"}}


def test_full_scope_covers_every_suite_at_or_above_its_default():
    assert FULL_SCOPE.keys() == SUITES.keys()
    for suite, scope in FULL_SCOPE.items():
        parameters = inspect.signature(SUITES[suite]).parameters
        # a suite takes only the keywords that a caller sets
        assert parameters.keys() == scope.keys() | CLI_SCOPE.get(suite, set()), suite
        for name, value in scope.items():
            assert value >= parameters[name].default, (suite, name, value)
    report = inspect.signature(imported_agreement_report).parameters
    assert report.keys() == CLI_SCOPE["table1"]


PROVED_PAIRS = [("112", "122"), ("122", "123"), ("122", "132"),
                ("211", "213"), ("122", "213"), ("122", "312"), ("122", "321")]


def test_criterion_1a_proved_table_rows():
    # every proved row against the oracle, its recurrence where it has one,
    # and the counts quoted in the text
    _assert_suite("1a (proved table rows)", "table1")


def test_criterion_1b_pairs_with_111():
    # The catalogued shortcut for pairs {111, x}: catalan(n) at m = 2, else
    # 0.  The m >= 3 branch holds (the letter 1 alone realizes 111 once
    # n >= 1).  The m = 2 branch is refuted for n >= 2: no letter occurs
    # three times, so the pair counts as x alone.  The refuted rows must
    # stay report-only.
    started = time.time()
    failures = []
    for other in LENGTH3_PATTERNS:
        pair = ("111", str(other))
        trust = REGISTRY[canonical_pair(pair)].trust
        if trust != "report-only":
            failures.append(f"{pair} row is {trust}, not report-only")
        ps = PatternSet.of(*pair)
        alone = PatternSet.of(other)
        for n, m in _grid():
            formula = closed_count(pair, n, m)
            oracle = count_avoiders(n, m, ps)
            cell = f"{pair} n={n} m={m}: formula {formula}, oracle {oracle}"
            if m == 3 and not formula == oracle == (1 if n == 0 else 0):
                failures.append(f"{cell}, m = 3 should count {int(n == 0)}")
            if n <= 1 and formula != oracle:
                failures.append(cell)
            if m == 2 and oracle != count_avoiders(n, m, alone):
                failures.append(f"{cell}, differs from {other} alone")
            if m == 2 and n >= 2 and (formula != catalan(n) or formula == oracle):
                failures.append(f"{cell}, quoted catalan(n) should be refuted")
    _report("1b (pairs containing 111)", failures, time.time() - started,
            detail="m=3 and n<=1 agree; m=2 counts as x alone, refuting "
                   "catalan(n) for n>=2")


def test_criterion_2_generating_trees():
    # trees against the oracle on the grid and against formulas to n = 60
    elapsed = _assert_suite("2 (generating trees)", "gentree",
                            lambda r: r.name != "explicit-vs-recurrence")
    assert elapsed < 5


def test_criterion_3_explicit_formulas():
    elapsed = _assert_suite("3 (explicit = recurrence)", "gentree",
                            lambda r: r.name == "explicit-vs-recurrence")
    assert elapsed < 5


def test_criterion_4_bijections():
    # worked examples, then exhaustive round trips with images checked
    # against the target pattern pair
    assert _assert_suite("4 (bijections)", "bijections") < 60


def test_criterion_5_cardinality_transfers():
    # Dyck words against catalan(n) to n = 10, and lattice paths against
    # rothe(1, m+1, n) and generalized_catalan(n, m) to n = 6, m = 3: the
    # counts that the bijections suite checks before its round trips
    _assert_suite("5 (cardinality transfers)", "bijections",
                  lambda r: r.name in ("dyck-round-trip", "path-round-trip"))


#: The pairs of the quoted 20-row class table: the proved rows plus the
#: imported and report-only rows, leaving out the {111, x} shortcut rows.
QUOTED_TABLE_PAIRS = PROVED_PAIRS + [
    ("212", "221"), ("212", "121"), ("122", "121"), ("122", "211"),
    ("122", "221"), ("212", "123"), ("212", "132"), ("123", "231"),
    ("123", "321"), ("132", "231"), ("132", "312"), ("123", "132"),
    ("132", "213")]
#: The orbit that the quoted table leaves out.
MISSING_CLASS = {("121", "132"), ("121", "231"), ("212", "213"), ("212", "312")}


def test_criterion_6a_classification_size():
    # The quoted reduction says 66 pairs fall into 20 classes; the orbit
    # computation gives 21, and so does a Burnside count over {id, r, c, rc}.
    # The 20 quoted rows are 20 distinct classes; the one they miss is the
    # class of (212,213).
    started = time.time()
    failures = []
    classes = classify_all_length3()
    total_pairs = sum(len(c.members) for c in classes)
    if total_pairs != 66:
        failures.append(f"{total_pairs} pairs != 66")
    if len(classes) != 21:
        failures.append(f"{len(classes)} classes != 21")

    symmetries = (lambda p: p.reverse(), lambda p: p.complement(),
                  lambda p: p.reverse().complement())
    pairs = [frozenset(pq) for pq in itertools.combinations(LENGTH3_PATTERNS, 2)]
    fixed = [sum(1 for pq in pairs if {f(p) for p in pq} == pq)
             for f in symmetries]
    if fixed != [6, 6, 6]:
        failures.append(f"pairs fixed by r, c, rc: {fixed} != [6, 6, 6]")
    if len(pairs) + sum(fixed) != 4 * len(classes):
        failures.append(f"Burnside count ({len(pairs)} + {sum(fixed)}) / 4 "
                        f"!= {len(classes)} classes")

    def class_of(pair):
        return next((c for c in classes if pair in c), None)

    quoted = {class_of(pair) for pair in QUOTED_TABLE_PAIRS}
    if len(quoted) != 20 or None in quoted:
        failures.append(f"quoted pairs cover {len(quoted - {None})} classes != 20")
    missing = [c for c in classes if c not in quoted]
    missing_members = [{(str(a), str(b)) for a, b in c.members} for c in missing]
    if missing_members != [MISSING_CLASS]:
        failures.append(f"classes missing from the quoted table: "
                        f"{[str(c) for c in missing]}")
    _report("6a (66 pairs, 21 classes; quoted list misses (212,213))",
            failures, time.time() - started,
            detail=f"Burnside ({len(pairs)} + {' + '.join(map(str, fixed))}) / 4")


def test_criterion_6b_within_class_count_equality():
    _assert_suite("6b (within-class equality)", "classify")


def test_criterion_7_growth_probes():
    _assert_suite("7 (growth probes)", "growth")


def test_criterion_8_imported_row_report():
    started = time.time()
    failures = []
    report = imported_agreement_report(n_max=4, m_max=3)
    covered = {r.table_pair for r in report}
    for pair in (("123", "231"), ("123", "321"), ("132", "231"),
                 ("132", "312"), ("212", "123"), ("212", "132")):
        if pair not in covered:
            failures.append(f"report misses {pair}")
    # the report records disagreement rather than asserting: the quoted
    # (212,132) row disagrees from n = 3 on, while (212,123) agrees
    row_sum = [r for r in report if r.table_pair == ("212", "123") and r.applicable]
    row_cat = [r for r in report if r.table_pair == ("212", "132") and r.applicable]
    if not all(r.agree for r in row_sum):
        failures.append("(212,123) row unexpectedly disagrees")
    if all(r.agree for r in row_cat):
        failures.append("(212,132) row unexpectedly agrees everywhere")
    if not any(r.agree for r in row_cat if r.n <= 2):
        failures.append("(212,132) row should agree for n <= 2")
    _report("8 (imported-row report)", failures, time.time() - started,
            detail=f"({sum(1 for r in report if r.applicable and not r.agree)} "
                   f"recorded disagreements)")
