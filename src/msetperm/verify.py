"""Cross-checking suites: every catalogued result against the oracle.

Hard checks cover the proved counting families, the generating trees, the
bijections with the cardinalities they transfer, and the growth identities;
any failure is a genuine bug (or a wrong catalogued formula promoted to
proved trust).  Imported and report-only rows are never asserted: they get
an agreement report that records exactly where the quoted formulas match
the oracle and where they do not.

Each check is a generator that yields failure messages in the order it
works; `_check` turns it into one CheckResult, whose detail is the first
message, or the check's scope when there is none.  Nothing after the first
failure is computed.  A package error (such as a map's NotInDomain) or an
AssertionError raised inside a check is its failure and the suite goes on,
so no check repeats a map's own domain check; BudgetExceeded propagates.

This module is the one implementation of these checks: the acceptance tests
run each suite at full scope, and `msetperm verify` at its default scope.
A suite takes as keywords only the scope that one of those callers sets;
the rest of its scope is a module constant.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import bijections as bij
from .classify import canonical_pair, classify_all_length3
from .core import MultisetPermutation, PatternSet, left_to_right_minima
from .enumeration import LIST_LENGTH_BUDGET, count_avoiders, list_avoiders
from .errors import BudgetExceeded, MsetPermError, Unsupported
from .formulas import (
    RECURRENCE_FAMILIES,
    REGISTRY,
    catalan,
    closed_count,
    explicit_count,
    generalized_catalan,
    proved_count,
    recurrence_count,
    recurrence_terms,
    rothe,
    stirling_count,
)
from .gentree import (
    DEAD,
    LABEL_STATISTICS,
    RULE_PATTERN_PAIRS,
    Profile,
    builtin_rule,
    levels,
    rule_ms,
)
from .growth import word_counts_by_length


class CheckResult(NamedTuple):
    suite: str
    name: str
    ok: bool
    detail: str = ""
    hard: bool = True

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        kind = "" if self.hard else " (report)"
        detail = f": {self.detail}" if self.detail else ""
        return f"[{status}] {self.suite}/{self.name}{kind}{detail}"


class AgreementRow(NamedTuple):
    table_pair: tuple[str, str]
    trust: str
    n: int
    m: int
    formula: int | None  # None when the cell is outside the row's stated domain
    oracle: int

    @property
    def applicable(self) -> bool:
        return self.formula is not None

    @property
    def agree(self) -> bool:
        return self.formula == self.oracle


def _check(suite: str, name: str, failures: Iterator[str],
           passed: str = "") -> CheckResult:
    """The first failure message, or a package error or AssertionError raised
    before it as "{Type}: {message}", as a failed check; else a passed one.
    BudgetExceeded propagates."""
    try:
        failure = next(failures, None)
    except BudgetExceeded:
        raise
    except (MsetPermError, AssertionError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    return CheckResult(suite, name, failure is None,
                       passed if failure is None else failure)


#: Largest n*m that the oracle grids reach, and that of the class vectors.
_GRID_BUDGET = 12
_CLASS_BUDGET = 10
#: Height and largest m of the trees checked against the proved formulas.
_TALL_N = 60
_TALL_M = 5
#: Largest m of the lattice paths.
_PATH_M = 3
#: The m and height of the dead-label tree's shape check.
_DEAD_M = 4
_DEAD_HEIGHT = 8


def _grid(n_max: int, m_max: int, budget: int = _GRID_BUDGET):
    for m in range(2, m_max + 1):
        for n in range(0, n_max + 1):
            if n * m <= budget:
                yield n, m


def _require_cells(n_max: int, m_max: int) -> None:
    """Unsupported when the oracle grid 0 <= n <= n_max, 2 <= m <= m_max has
    no cell: every check over it would pass on nothing."""
    if n_max < 0 or m_max < 2:
        raise Unsupported(f"the grid 0 <= n <= {n_max}, 2 <= m <= {m_max} has no cell")


#: Counts quoted in the paper's text, checked wherever the grid reaches them.
_QUOTED_VALUES = {(("122", "321"), 2, 3): 4, (("112", "122"), 3, 2): 5,
                  (("112", "122"), 4, 3): 8}


# -- table of counting families ---------------------------------------------------

def _row_failures(entry, cells: Iterable[tuple[int, int]]) -> Iterator[str]:
    for n, m in cells:
        oracle = count_avoiders(n, m, entry.pair)
        claims = {"formula": closed_count(entry.pair, n, m),
                  "quoted": _QUOTED_VALUES.get((entry.table_pair, n, m))}
        if n and entry.pair in RECURRENCE_FAMILIES:
            claims["recurrence"] = recurrence_count(entry.pair, n, m)
        for source, value in claims.items():
            if value is not None and value != oracle:
                yield f"{source} {value} != oracle {oracle} at n={n}, m={m}"


def verify_table1(n_max: int = 4, m_max: int = 3) -> list[CheckResult]:
    """Hard-check every proved-trust formula, and the recurrence and quoted
    counts of its row, against the oracle."""
    _require_cells(n_max, m_max)
    results = []
    for entry in sorted(REGISTRY.values(), key=lambda e: e.pair):
        if entry.trust != "proved-here":
            continue
        # closed_count counts n = 0 as 1 for every pair
        cells = [(n, m) for n, m in _grid(n_max, m_max)
                 if not n or entry.validity(n, m)]
        results.append(_check("table1", entry.name, _row_failures(entry, cells),
                              f"{len(cells)} cells"))
    return results


def imported_agreement_report(n_max: int = 4, m_max: int = 3) -> list[AgreementRow]:
    """Per-cell agreement between quoted (imported/report-only) rows and the
    oracle.  Cells outside a row's stated validity get formula None."""
    _require_cells(n_max, m_max)
    rows = []
    for entry in sorted(REGISTRY.values(), key=lambda e: e.pair):
        if entry.trust == "proved-here" or not entry.is_servable():
            continue
        for n, m in _grid(n_max, m_max):
            formula = entry.evaluator(n, m) if entry.validity(n, m) else None
            oracle = count_avoiders(n, m, entry.pair)
            rows.append(AgreementRow(entry.table_pair, entry.trust, n, m,
                                     formula, oracle))
    return rows


# -- generating trees ---------------------------------------------------------------

def _tree_levels(name: str, tops: dict[int, int]) -> Iterator[tuple[int, int, Profile]]:
    """(n, m, profile) for every height n <= tops[m] of the rule's tree, in
    one pass per m."""
    for m, height in tops.items():
        for n, profile in enumerate(levels(builtin_rule(name, m), height)):
            yield n, m, profile


def _label_failures(name: str, tops: dict[int, int]) -> Iterator[str]:
    patterns = PatternSet.of(*RULE_PATTERN_PAIRS[name])
    statistic = LABEL_STATISTICS[name]
    for n, m, profile in _tree_levels(name, tops):
        oracle = Counter(statistic(sigma.letters)
                         for sigma in list_avoiders(n, m, patterns))
        if profile != oracle:
            yield f"labels {profile} != oracle {dict(oracle)} at n={n}, m={m}"


def _dead_label_failures() -> Iterator[str]:
    rule = builtin_rule("211-213", _DEAD_M)
    for h, profile in enumerate(levels(rule, _DEAD_HEIGHT)):
        for label in profile:
            if label not in (1, 2, DEAD):
                yield f"unexpected label {label} at height {h}"
    kids = rule.children(2)
    if not (kids.count(2) == 2 and kids.count(1) == 1
            and kids.count(DEAD) == _DEAD_M - 2 and len(kids) == _DEAD_M + 1
            and rule.children(1) == (2,) and rule.children(DEAD) == ()):
        yield f"children(2) = {kids}"


def verify_gentree(n_max: int = 6, m_max: int = 3) -> list[CheckResult]:
    """Trees against the oracle, counts and labels, on the n*m <= 12 grid
    with n <= n_max and m <= m_max, and against the proved formulas to
    height 60 at m <= 5."""
    _require_cells(n_max, m_max)

    def cells(tops: dict[int, int]) -> str:
        return f"{sum(top + 1 for top in tops.values())} cells"

    def grid_top(m: int) -> int:
        return min(n_max, _GRID_BUDGET // m)

    results = []
    # small grid: trees against the oracle
    for name, pair in RULE_PATTERN_PAIRS.items():
        patterns = PatternSet.of(*pair)
        tops = {m: grid_top(m) for m in rule_ms(name, m_max)}
        results.append(_check("gentree", f"{name}-vs-oracle", (
            f"tree {tree} != oracle {oracle} at n={n}, m={m}"
            for n, m, profile in _tree_levels(name, tops)
            if (tree := sum(profile.values()))
            != (oracle := count_avoiders(n, m, patterns))), cells(tops)))
    # labels: each height's profile is its statistic's distribution
    for name in LABEL_STATISTICS:
        tops = {m: grid_top(m) for m in rule_ms(name, m_max)}
        results.append(_check("gentree", f"{name}-labels",
                              _label_failures(name, tops), cells(tops)))
    # tall grid: trees against formulas, given each pair's patterns parsed
    # once rather than once per cell
    for name, pair in RULE_PATTERN_PAIRS.items():
        rep = canonical_pair(pair)
        tops = {m: _TALL_N for m in rule_ms(name, _TALL_M)}
        results.append(_check("gentree", f"{name}-vs-formula", (
            f"tree {actual} != formula {expected} at n={n}, m={m}"
            for n, m, profile in _tree_levels(name, tops)
            if (expected := proved_count(rep, n, m))
            != (actual := sum(profile.values()))), f"n <= {_TALL_N}"))
    # explicit forms match the recurrences they solve
    results.append(_check(
        "gentree", "explicit-vs-recurrence",
        ("explicit != recurrence at pair=({},{}), n={}, m={}".format(*rep, n, m)
         for rep in RECURRENCE_FAMILIES
         for m in range(2, 7)
         for n, recurred in enumerate(recurrence_terms(rep, 200, m), 1)
         if explicit_count(rep, n, m) != recurred),
        "n <= 200, m <= 6"))
    # structural shape of the dead-label tree
    results.append(_check("gentree", "dead-label-shape", _dead_label_failures()))
    return results


# -- bijections ----------------------------------------------------------------------

def _dyck_failures(dyck_n: int) -> Iterator[str]:
    """Word counts against catalan(n); round trips and images wherever the
    avoiders are short enough to list."""
    for n in range(0, dyck_n + 1):
        words = list(bij.enumerate_dyck_words(n))
        if 2 * n > LIST_LENGTH_BUDGET:
            if len(words) != catalan(n):
                yield f"|words| {len(words)} != catalan at n={n}"
            continue
        perms = list_avoiders(n, 2, bij.PAIR_112_122)
        if len(words) != len(perms) or len(words) != catalan(n):
            yield f"|words| {len(words)} vs |avoiders| {len(perms)} at n={n}"
        image = set()
        for w in words:
            sigma = bij.dyck_to_perm(w)
            image.add(sigma.letters)
            if str(bij.perm_to_dyck(sigma)) != str(w):
                yield f"word round trip broke at {w}"
        if image != {p.letters for p in perms}:
            yield f"image mismatch at n={n}"


def _label_sequence_failures(targets: Callable[[int, int], list[MultisetPermutation]]
                             ) -> Iterator[str]:
    # a round trip that holds on every avoider also keeps the sequences apart
    for n, m in _grid(_GRID_BUDGET, _GRID_BUDGET // 2):
        for sigma in targets(n, m):
            if bij.labels_to_perm(bij.perm_to_labels(sigma)) != sigma:
                yield f"label round trip broke at {sigma}"


def _path_failures(path_n: int) -> Iterator[str]:
    for m in range(1, _PATH_M + 1):
        for n in range(0, path_n + 1):
            paths = list(bij.enumerate_paths(n, m))
            if len(paths) != rothe(1, m + 1, n):
                yield f"|paths| {len(paths)} != rothe at n={n}, m={m}"
            if len(paths) != generalized_catalan(n, m):
                yield f"|paths| {len(paths)} != generalized Catalan at n={n}, m={m}"
            for p in paths:
                if str(bij.labels_to_path(bij.path_to_labels(p))) != str(p):
                    yield f"path round trip broke at {p}"


def _minima_map_failures(targets: Callable[[int, int], list[MultisetPermutation]]
                         ) -> Iterator[str]:
    for n, m in _grid(_GRID_BUDGET, _GRID_BUDGET // 2):
        sources = list_avoiders(n, m, bij.PAIR_122_132)
        image = set()
        for sigma in sources:
            tau = bij.simion_schmidt_f(sigma)
            image.add(tau.letters)
            if bij.simion_schmidt_g(tau) != sigma:
                yield f"minima map round trip broke at {sigma}"
            if left_to_right_minima(tau) != left_to_right_minima(sigma):
                yield f"minima moved at {sigma}"
        if image != {t.letters for t in targets(n, m)}:
            yield f"minima map not onto at n={n}, m={m}"


def _worked_example_failures() -> Iterator[str]:
    """The three worked examples, byte for byte, as (map, reader, input,
    output) rows; the table is built when the check runs."""
    perm = MultisetPermutation.parse
    for f, read, given, expected in (
            (bij.dyck_to_perm, bij.DyckWord, "XYXXYXYY", "44323121"),
            (bij.perm_to_dyck, perm, "44323121", "XYXXYXYY"),
            (bij.simion_schmidt_f, perm, "43421231", "43421321"),
            (bij.perm_to_labels, perm, "443322421311", "1,4,7,7,7"),
            (bij.labels_to_perm, lambda text: bij.LabelSequence.parse(text, 3),
             "1,4,7,7,7", "443322421311")):
        if (actual := str(f(read(given)))) != expected:
            yield f"{f.__name__}({given}) = {actual}, expected {expected}"


def verify_bijections(*, dyck_n: int = 6, path_n: int = 5) -> list[CheckResult]:
    grid = f"n*m <= {_GRID_BUDGET}"
    # the label round trip and the minima map read the same (122,123)-avoiders,
    # listed once per cell on first use, inside the check that needs them
    targets = functools.cache(lambda n, m: list_avoiders(n, m, bij.PAIR_122_123))
    return [
        _check("bijections", "worked-examples", _worked_example_failures()),
        _check("bijections", "dyck-round-trip", _dyck_failures(dyck_n),
               f"n <= {dyck_n}"),
        _check("bijections", "label-round-trip", _label_sequence_failures(targets),
               grid),
        _check("bijections", "path-round-trip", _path_failures(path_n),
               f"n <= {path_n}, m <= {_PATH_M}"),
        _check("bijections", "minima-map", _minima_map_failures(targets), grid),
    ]


# -- growth ---------------------------------------------------------------------------

def _stirling_failures() -> Iterator[str]:
    pattern_212 = PatternSet.of("212")
    for n, m in _grid(_GRID_BUDGET, 3):
        enumerated, formula = count_avoiders(n, m, pattern_212), stirling_count(n, m)
        if enumerated != formula:
            yield f"enumeration {enumerated} != formula {formula} at n={n}, m={m}"
    if stirling_count(2, 2) != 3:
        yield f"s_{{2,2}}(212) = {stirling_count(2, 2)}, quoted as 3"


def _ascent_free_failures(word_max: int) -> Iterator[str]:
    for n in range(1, word_max + 1):
        counts = word_counts_by_length(n, word_max, PatternSet.of("12"))
        for length in range(1, word_max + 1):
            if counts[length] != math.comb(n + length - 1, length):
                yield f"word count {counts[length]} != binomial at l={length}, n={n}"


def verify_growth(*, word_max: int = 10) -> list[CheckResult]:
    grid = f"n*m <= {_GRID_BUDGET}"
    return [
        _check("growth", "stirling-identity", _stirling_failures(), grid),
        _check("growth", "block-permutation-count", (
            f"oracle {oracle} != {n}! at n={n}, m={m}"
            for n, m in _grid(_GRID_BUDGET, 3)
            if (oracle := count_avoiders(n, m, PatternSet.of("212", "121")))
            != math.factorial(n)), grid),
        _check("growth", "ascent-free-words", _ascent_free_failures(word_max),
               f"l, n <= {word_max}"),
    ]


# -- classification -----------------------------------------------------------------

def _class_failures(classes) -> Iterator[str]:
    cells = list(_grid(_CLASS_BUDGET, _CLASS_BUDGET, _CLASS_BUDGET))
    for cls in classes:
        vectors = (tuple(count_avoiders(n, m, patterns) for n, m in cells)
                   for patterns in cls.members)
        base = next(vectors)
        if any(vec != base for vec in vectors):
            yield f"counts differ inside class {cls}"


def verify_classify() -> list[CheckResult]:
    classes = classify_all_length3()
    total = sum(len(c.members) for c in classes)
    return [
        CheckResult("classify", "pair-universe", total == 66,
                    f"{total} pairs in {len(classes)} classes"),
        _check("classify", "within-class-equality", _class_failures(classes),
               f"n*m <= {_CLASS_BUDGET}"),
    ]


SUITES = {
    "table1": verify_table1,
    "gentree": verify_gentree,
    "bijections": verify_bijections,
    "growth": verify_growth,
    "classify": verify_classify,
}


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
