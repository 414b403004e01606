from msetperm.verify import (
    imported_agreement_report,
    verify_bijections,
    verify_table1,
)


def test_table1_covers_all_proved_rows():
    results = verify_table1(n_max=3, m_max=2)
    names = {r.name for r in results if r.hard}
    assert names == {"(112,122)", "(122,123)", "(122,132)", "(211,213)",
                     "(122,213)", "(122,312)", "(122,321)"}


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
