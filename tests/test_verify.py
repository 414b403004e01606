import functools

import pytest

from msetperm import bijections, cli, core, verify
from msetperm.core import MultisetPermutation
from msetperm.errors import BudgetExceeded, Unsupported
from msetperm.verify import (
    imported_agreement_report,
    run_suite,
    verify_bijections,
    verify_gentree,
    verify_table1,
)


def test_table1_covers_all_proved_rows():
    results = verify_table1(n_max=3, m_max=2)
    names = {r.name for r in results if r.hard}
    assert names == {"(112,122)", "(122,123)", "(122,132)", "(211,213)",
                     "(122,213)", "(122,312)", "(122,321)"}


def test_a_scope_with_no_cell_is_unsupported():
    for suite in (verify_table1, imported_agreement_report, verify_gentree):
        for n_max, m_max in ((3, 1), (3, 0), (-1, 3)):
            with pytest.raises(Unsupported, match="has no cell"):
                suite(n_max=n_max, m_max=m_max)
    # n = 0 alone is a cell at every m
    assert [r.detail for r in verify_table1(n_max=0, m_max=2)] == ["1 cells"] * 7


@pytest.mark.parametrize("key,term", [
    # 221 also blocks the letters below whenever a larger letter was seen;
    # table1 passes with it (in a fresh process)
    ((2, 2, 1), lambda bit, lower, upper, again: bit - 1 if again or upper else 0),
    # 123 read as 12: 6b would pass it if it counted each member through
    # count_avoiders, which counts a set and its reverse in one direction
    ((1, 2, 3), core._BLOCKS[(1, 2)]),
])
def test_criterion_6b_catches_a_term_that_breaks_symmetry(monkeypatch, key, term):
    # 6b walks each orbit member as given.  The pattern-set cache is swapped
    # for an empty one, so that every member reads its terms under the
    # patch and none outlives it.
    monkeypatch.setattr(core, "_read_pattern_set", functools.lru_cache(maxsize=256)(
        core._read_pattern_set.__wrapped__))
    monkeypatch.setitem(core._BLOCKS, key, term)
    results = {r.name: r for r in run_suite("classify")}
    assert not results["within-class-equality"].ok
    assert results["pair-universe"].ok


def test_report_rows_match_known_disagreements():
    report = imported_agreement_report(n_max=4, m_max=3)
    bad = {(r.table_pair, r.n, r.m) for r in report
           if r.applicable and not r.agree}
    # the quoted generalized-Catalan row credits the wrong pair
    assert (("212", "132"), 3, 2) in bad
    # the quoted geometric row has its exponent off by one
    assert (("132", "231"), 2, 2) in bad
    # the triple-repeat shortcut fails at multiplicity 2 from n = 2 on
    assert (("111", "123"), 2, 2) in bad
    # rows that hold on this grid stay clean
    clean_pairs = {("212", "123"), ("123", "231"), ("123", "321"),
                   ("212", "221"), ("212", "121"), ("122", "121")}
    assert not any(r.table_pair in clean_pairs for r in report
                   if r.applicable and not r.agree)


def test_corrected_exponent_matches_oracle():
    # what the report suggests the geometric row should have been
    from msetperm.core import PatternSet
    from msetperm.enumeration import count_avoiders
    from msetperm.formulas import catalan
    for n, m in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        assert count_avoiders(n, m, PatternSet.of("132", "231")) == \
            catalan(m) * (m + 1) ** (n - 1)


def test_uncovered_class_matches_generalized_catalan_empirically():
    # the class missing from the quoted 20-class list; recorded as
    # report-only observation in the catalog
    from msetperm.core import PatternSet
    from msetperm.enumeration import count_avoiders
    from msetperm.formulas import generalized_catalan
    for n, m in ((1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (1, 3), (2, 3), (3, 3)):
        assert count_avoiders(n, m, PatternSet.of("212", "213")) == \
            generalized_catalan(n, m)


def test_bijection_suite_names():
    names = {r.name for r in verify_bijections()}
    assert names == {"worked-examples", "dyck-round-trip", "label-round-trip",
                     "path-round-trip", "minima-map"}


def test_bijection_suite_lists_each_cell_once(monkeypatch):
    # the label round trip and the minima map share one listing of the
    # (122,123)-avoiders per cell of the n*m <= 12 grid
    list_avoiders = verify.list_avoiders
    calls = []
    monkeypatch.setattr(verify, "list_avoiders", lambda n, m, patterns:
                        calls.append((n, m, str(patterns))) or list_avoiders(n, m, patterns))
    assert all(r.ok for r in verify_bijections())
    targets = [call for call in calls if call[2] == "{122,123}"]
    assert len(targets) == len(set(targets)) == 22
    assert len(calls) == len(set(calls))


def test_bijection_suite_makes_every_check(monkeypatch):
    # one pass scans 12,400 permutations for their pair and makes 51
    # listings: a faster check must not be a dropped one
    scans, listings = [], []
    find_occurrence, list_avoiders = bijections.find_occurrence, verify.list_avoiders
    monkeypatch.setattr(bijections, "find_occurrence", lambda sigma, patterns:
                        scans.append(1) or find_occurrence(sigma, patterns))
    monkeypatch.setattr(verify, "list_avoiders", lambda n, m, patterns:
                        listings.append(1) or list_avoiders(n, m, patterns))
    assert all(r.ok for r in verify_bijections())
    assert (len(scans), len(listings)) == (12_400, 51)


# -- a fault raised inside a check is that check's failure ---------------------

def _refill_increasing(sigma):
    """simion_schmidt_f refilling the free slots in increasing order: the
    result contains 123 (43421231 -> 43221341), so the map's own codomain
    check raises NotInDomain."""
    free = bijections._free_slots(sigma)
    letters = list(sigma.letters)
    for slot, value in zip(free, sorted(letters[i - 1] for i in free)):
        letters[slot - 1] = value
    tau = MultisetPermutation(tuple(letters))
    bijections._require_avoids(tau, bijections.PAIR_122_123)
    return tau


def test_a_map_leaving_its_codomain_fails_its_checks(monkeypatch, capsys):
    monkeypatch.setattr(bijections, "simion_schmidt_f", _refill_increasing)
    results = {r.name: r for r in run_suite("bijections")}
    assert list(results) == ["worked-examples", "dyck-round-trip", "label-round-trip",
                             "path-round-trip", "minima-map"]
    for name in ("worked-examples", "minima-map"):
        assert not results[name].ok
        assert results[name].detail.startswith("NotInDomain: "), results[name].detail
    assert "43221341 contains 123" in results["worked-examples"].detail
    assert all(results[name].ok for name in
               ("dyck-round-trip", "label-round-trip", "path-round-trip"))
    assert cli.main(["verify", "--suite", "bijections"]) == 5
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("[FAIL] bijections/worked-examples: NotInDomain: ")


def test_a_rule_that_raises_fails_its_checks(monkeypatch):
    builtin_rule = verify.builtin_rule

    def children(label):
        raise AssertionError(f"label {label!r} is unreachable")

    def broken(name, m=2):
        rule = builtin_rule(name, m)
        return rule._replace(children=children) if name == "122-213" else rule

    monkeypatch.setattr(verify, "builtin_rule", broken)
    results = verify_gentree(n_max=3, m_max=2)
    failed = {r.name: r.detail for r in results if not r.ok}
    assert set(failed) == {"122-213-vs-oracle", "122-213-labels", "122-213-vs-formula"}
    assert all(detail == "AssertionError: label 1 is unreachable"
               for detail in failed.values()), failed
    assert len(results) == 13


def test_a_refused_scope_still_ends_the_suite():
    with pytest.raises(BudgetExceeded):
        run_suite("growth", word_max=19)
