"""Cross-checking suites: every catalogued result against the oracle.

Hard checks cover the proved counting families, the generating trees, the
bijections, and the growth identities; any failure is a genuine bug (or a
wrong catalogued formula promoted to proved trust).  Imported and
report-only rows are never asserted: they get an agreement report that
records exactly where the quoted formulas match the oracle and where they
do not.

This module is the one implementation of these checks: the acceptance tests
run each suite at full scope, and `msetperm verify` at its default scope.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from . import bijections as bij
from .classify import canonical_pair, classify_all_length3
from .core import (
    MultisetPermutation,
    PatternSet,
    avoids_all,
    first_ascent,
    first_descent,
    first_repetition,
    left_to_right_minima,
)
from .enumeration import COUNT_LENGTH_BUDGET, count_avoiders, list_avoiders
from .formulas import (
    REGISTRY,
    catalan,
    closed_count,
    explicit_count,
    proved_count,
    recurrence_count,
    rothe,
    stirling_count,
)
from .gentree import DEAD, RULE_PATTERN_PAIRS, Profile, builtin_rule, levels
from .growth import check_stirling_identity, word_counts_by_length


@dataclass(frozen=True)
class CheckResult:
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


@dataclass(frozen=True)
class AgreementRow:
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


def _grid(n_max: int, m_max: int, budget: int = COUNT_LENGTH_BUDGET):
    for m in range(2, m_max + 1):
        for n in range(0, n_max + 1):
            if n * m <= budget:
                yield n, m


#: The proved rows whose counts also satisfy a recurrence with a Binet form.
_RECURRENCE_PAIRS = (("211", "213"), ("122", "213"))
#: Counts quoted in the paper's text, checked wherever the grid reaches them.
_QUOTED_VALUES = {(("122", "321"), 2, 3): 4, (("112", "122"), 3, 2): 5,
                  (("112", "122"), 4, 3): 8}


# -- table of counting families ---------------------------------------------------

def verify_table1(n_max: int = 4, m_max: int = 3, *,
                  budget: int = 12) -> list[CheckResult]:
    """Hard-check every proved-trust formula, and the recurrence and quoted
    counts of its row, against the oracle."""
    results = []
    for entry in sorted(REGISTRY.values(), key=lambda e: e.pair):
        if entry.trust != "proved-here":
            continue
        mismatches = []
        cells = 0
        for n, m in _grid(n_max, m_max, budget):
            # closed_count counts n = 0 as 1 for every pair
            if n and not entry.validity(n, m):
                continue
            oracle = count_avoiders(n, m, PatternSet(entry.pair))
            cells += 1
            claims = {"formula": closed_count(entry.pair, n, m),
                      "quoted": _QUOTED_VALUES.get((entry.table_pair, n, m))}
            if n and entry.table_pair in _RECURRENCE_PAIRS:
                claims["recurrence"] = recurrence_count(entry.pair, n, m)
            mismatches += [f"{source} {value} != oracle {oracle} at n={n}, m={m}"
                           for source, value in claims.items()
                           if value is not None and value != oracle]
        name = f"({entry.table_pair[0]},{entry.table_pair[1]})"
        results.append(CheckResult("table1", name, not mismatches,
                                   mismatches[0] if mismatches else f"{cells} cells"))
    return results


def imported_agreement_report(n_max: int = 4, m_max: int = 3, *,
                              budget: int = 12) -> list[AgreementRow]:
    """Per-cell agreement between quoted (imported/report-only) rows and the
    oracle.  Cells outside a row's stated validity get formula None."""
    rows = []
    for entry in sorted(REGISTRY.values(), key=lambda e: e.pair):
        if entry.trust == "proved-here" or not entry.is_servable():
            continue
        for n, m in _grid(n_max, m_max, budget):
            formula = None
            if entry.validity(n, m):
                formula = entry.evaluator(n, m)
            oracle = count_avoiders(n, m, PatternSet(entry.pair))
            rows.append(AgreementRow(entry.table_pair, entry.trust, n, m,
                                     formula, oracle))
    return rows


# -- generating trees ---------------------------------------------------------------

#: The positional statistic that each labelled rule's labels record: the
#: profile at height n is that statistic's distribution over the avoiders of
#: [n]_m.  The 211-213 labels record none.
_LABEL_STATISTICS = {
    "112-122@m2": first_repetition,
    "122-123": first_ascent,
    "122-213": first_descent,
}


def _tree_levels(name: str, m_max: int, top: Callable[[int], int]
                 ) -> Iterator[tuple[int, int, Profile]]:
    """(n, m, profile) for every height n <= top(m) of the rule's tree at
    each m it takes up to m_max, in one pass per m."""
    for m in range(2, 3) if name == "112-122@m2" else range(2, m_max + 1):
        for n, profile in enumerate(levels(builtin_rule(name, m), top(m))):
            yield n, m, profile


def verify_gentree(n_max: int = 4, m_max: int = 3, *, tall_n: int = 60,
                   tall_m: int = 5, budget: int = 12) -> list[CheckResult]:
    """Trees against the oracle, counts and labels, on the n*m <= budget
    grid, and against the proved formulas to height tall_n."""
    results = []
    # small grid: trees against the oracle
    for name, pair in RULE_PATTERN_PAIRS.items():
        patterns = PatternSet.of(*pair)
        bad = None
        cells = 0
        for n, m, profile in _tree_levels(name, m_max, lambda m: min(n_max, budget // m)):
            tree = sum(profile.values())
            oracle = count_avoiders(n, m, patterns)
            cells += 1
            if tree != oracle:
                bad = f"tree {tree} != oracle {oracle} at n={n}, m={m}"
                break
        results.append(CheckResult("gentree", f"{name}-vs-oracle", bad is None,
                                   bad or f"{cells} cells"))
    # labels: each height's profile is its statistic's distribution
    for name, statistic in _LABEL_STATISTICS.items():
        patterns = PatternSet.of(*RULE_PATTERN_PAIRS[name])
        bad = None
        cells = 0
        for n, m, profile in _tree_levels(name, m_max, lambda m: budget // m):
            oracle = Counter(statistic(sigma.letters)
                             for sigma in list_avoiders(n, m, patterns))
            cells += 1
            if profile != oracle:
                bad = f"labels {profile} != oracle {dict(oracle)} at n={n}, m={m}"
                break
        results.append(CheckResult("gentree", f"{name}-labels", bad is None,
                                   bad or f"{cells} cells"))
    # tall grid: trees against formulas, given each pair's representative
    for name, pair in RULE_PATTERN_PAIRS.items():
        rep = canonical_pair(pair)
        bad = None
        for n, m, profile in _tree_levels(name, tall_m, lambda m: tall_n):
            expected = proved_count(rep, n, m)
            actual = sum(profile.values())
            if expected != actual:
                bad = f"tree {actual} != formula {expected} at n={n}, m={m}"
                break
        results.append(CheckResult("gentree", f"{name}-vs-formula", bad is None,
                                   bad or f"n <= {tall_n}"))
    # explicit forms match the recurrences they solve; given representatives,
    # neither function calls canonical_pair again
    reps = {pair: canonical_pair(pair) for pair in _RECURRENCE_PAIRS}
    bad = next(
        (f"explicit != recurrence at pair={pair}, n={n}, m={m}"
         for pair, rep in reps.items()
         for m in range(2, 7)
         for n in range(1, 201)
         if explicit_count(rep, n, m) != recurrence_count(rep, n, m)),
        None)
    results.append(CheckResult("gentree", "explicit-vs-recurrence", bad is None,
                               bad or "n <= 200, m <= 6"))
    # structural shape of the dead-label tree
    results.append(_check_dead_label_tree())
    return results


def _check_dead_label_tree(m: int = 4, height: int = 8) -> CheckResult:
    rule = builtin_rule("211-213", m)
    for h, profile in enumerate(levels(rule, height)):
        for label in profile:
            if label not in (1, 2, DEAD):
                return CheckResult("gentree", "dead-label-shape", False,
                                   f"unexpected label {label} at height {h}")
    kids = rule.children(2)
    ok = (kids.count(2) == 2 and kids.count(1) == 1
          and kids.count(DEAD) == m - 2 and len(kids) == m + 1
          and rule.children(1) == (2,) and rule.children(DEAD) == ())
    return CheckResult("gentree", "dead-label-shape", ok,
                       "" if ok else f"children(2) = {kids}")


# -- bijections ----------------------------------------------------------------------

def verify_bijections(*, dyck_n: int = 6, pair_budget: int = 12,
                      path_n: int = 5, path_m: int = 3) -> list[CheckResult]:
    results = []

    # the three worked examples, byte for byte
    worked = (
        str(bij.dyck_to_perm(bij.DyckWord("XYXXYXYY"))) == "44323121"
        and str(bij.perm_to_dyck(MultisetPermutation.parse("44323121"))) == "XYXXYXYY"
        and str(bij.simion_schmidt_f(MultisetPermutation.parse("43421231"))) == "43421321"
        and str(bij.perm_to_labels(MultisetPermutation.parse("443322421311"))) == "1,4,7,7,7"
        and str(bij.labels_to_perm(bij.LabelSequence.parse("1,4,7,7,7", 3))) == "443322421311"
    )
    results.append(CheckResult("bijections", "worked-examples", worked))

    # words <-> permutations, exhaustively
    bad = None
    for n in range(0, dyck_n + 1):
        words = list(bij.enumerate_dyck_words(n))
        perms = list_avoiders(n, 2, bij.PAIR_112_122)
        if len(words) != len(perms) or len(words) != catalan(n):
            bad = f"|words| {len(words)} vs |avoiders| {len(perms)} at n={n}"
            break
        image = set()
        for w in words:
            sigma = bij.dyck_to_perm(w)
            image.add(sigma.letters)
            if not avoids_all(sigma, bij.PAIR_112_122):
                bad = f"word image {sigma} of {w} leaves the domain"
                break
            if str(bij.perm_to_dyck(sigma)) != str(w):
                bad = f"word round trip broke at {w}"
                break
        if bad is None and image != {p.letters for p in perms}:
            bad = f"image mismatch at n={n}"
        if bad:
            break
    results.append(CheckResult("bijections", "dyck-round-trip", bad is None,
                               bad or f"n <= {dyck_n}"))

    # label sequences <-> permutations, exhaustively on the budget grid
    bad = None
    for n, m in _grid(pair_budget, pair_budget // 2, pair_budget):
        perms = list_avoiders(n, m, bij.PAIR_122_123)
        seqs = set()
        for sigma in perms:
            seq = bij.perm_to_labels(sigma)
            seqs.add(seq.values)
            back = bij.labels_to_perm(seq)
            if back != sigma or not avoids_all(back, bij.PAIR_122_123):
                bad = f"label round trip broke at {sigma}"
                break
        if bad is None and n >= 1 and len(seqs) != len(perms):
            bad = f"label sequences collide at n={n}, m={m}"
        if bad:
            break
    results.append(CheckResult("bijections", "label-round-trip", bad is None,
                               bad or f"n*m <= {pair_budget}"))

    # lattice paths <-> label sequences, exhaustively
    bad = None
    for m in range(1, path_m + 1):
        for n in range(0, path_n + 1):
            paths = list(bij.enumerate_paths(n, m))
            if len(paths) != rothe(1, m + 1, n):
                bad = f"|paths| {len(paths)} != rothe at n={n}, m={m}"
                break
            for p in paths:
                seq = bij.path_to_labels(p)
                if str(bij.labels_to_path(seq)) != str(p):
                    bad = f"path round trip broke at {p}"
                    break
            if bad:
                break
        if bad:
            break
    results.append(CheckResult("bijections", "path-round-trip", bad is None,
                               bad or f"n <= {path_n}, m <= {path_m}"))

    # the minima-fixing map, exhaustively
    bad = None
    for n, m in _grid(pair_budget, pair_budget // 2, pair_budget):
        sources = list_avoiders(n, m, bij.PAIR_122_132)
        targets = list_avoiders(n, m, bij.PAIR_122_123)
        image = set()
        for sigma in sources:
            tau = bij.simion_schmidt_f(sigma)
            image.add(tau.letters)
            if not avoids_all(tau, bij.PAIR_122_123):
                bad = f"minima map image {tau} of {sigma} leaves the codomain"
                break
            if bij.simion_schmidt_g(tau) != sigma:
                bad = f"minima map round trip broke at {sigma}"
                break
            if left_to_right_minima(tau) != left_to_right_minima(sigma):
                bad = f"minima moved at {sigma}"
                break
        if bad is None and image != {t.letters for t in targets}:
            bad = f"minima map not onto at n={n}, m={m}"
        if bad:
            break
    results.append(CheckResult("bijections", "minima-map", bad is None,
                               bad or f"n*m <= {pair_budget}"))
    return results


# -- growth ---------------------------------------------------------------------------

def verify_growth(*, budget: int = 12, word_max: int = 10) -> list[CheckResult]:
    results = []
    bad = None
    for n, m in _grid(budget, 3, budget):
        verdict = check_stirling_identity(n, m)
        if not verdict.equal:
            bad = (f"enumeration {verdict.enumerated} != formula "
                   f"{verdict.formula} at n={n}, m={m}")
            break
    if bad is None and stirling_count(2, 2) != 3:
        bad = f"s_{{2,2}}(212) = {stirling_count(2, 2)}, quoted as 3"
    results.append(CheckResult("growth", "stirling-identity", bad is None,
                               bad or f"n*m <= {budget}"))

    bad = None
    for n, m in _grid(budget, 3, budget):
        oracle = count_avoiders(n, m, PatternSet.of("212", "121"))
        if oracle != math.factorial(n):
            bad = f"oracle {oracle} != {n}! at n={n}, m={m}"
            break
    results.append(CheckResult("growth", "block-permutation-count", bad is None,
                               bad or f"n*m <= {budget}"))

    bad = None
    for n in range(1, word_max + 1):
        counts = word_counts_by_length(n, word_max, PatternSet.of("12"))
        for length in range(1, word_max + 1):
            if counts[length] != math.comb(n + length - 1, length):
                bad = f"word count {counts[length]} != binomial at l={length}, n={n}"
                break
        if bad:
            break
    results.append(CheckResult("growth", "ascent-free-words", bad is None,
                               bad or f"l, n <= {word_max}"))
    return results


# -- classification -----------------------------------------------------------------

def verify_classify(*, budget: int = 10) -> list[CheckResult]:
    results = []
    classes = classify_all_length3()
    total = sum(len(c.members) for c in classes)
    results.append(CheckResult("classify", "pair-universe", total == 66,
                               f"{total} pairs in {len(classes)} classes"))
    cells = list(_grid(budget, budget, budget))
    bad = None
    for cls in classes:
        base = None
        for member in cls.members:
            vec = tuple(count_avoiders(n, m, PatternSet(member)) for n, m in cells)
            if base is None:
                base = vec
            elif vec != base:
                bad = f"counts differ inside class {cls}"
                break
        if bad:
            break
    results.append(CheckResult("classify", "within-class-equality", bad is None,
                               bad or f"n*m <= {budget}"))
    return results


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
