import re

import pytest

from msetperm.classify import symmetry_closure
from msetperm.core import PatternSet, first_ascent, first_descent, first_repetition
from msetperm.enumeration import count_avoiders
from msetperm.errors import Unsupported
from msetperm.formulas import catalan, generalized_catalan, recurrence_count
from msetperm.gentree import (
    DEAD,
    LABEL_STATISTICS,
    RULE_PATTERN_PAIRS,
    builtin_rule,
    count_at_height,
    levels,
    rule_for,
)


class TestRuleDefinitions:
    def test_repetition_rule_children(self):
        rule = builtin_rule("112-122@m2", 2)
        assert rule.children(3) == (2, 3, 4)
        assert rule.children(1) == (2,)

    def test_descent_offset_children(self):
        rule = builtin_rule("211-213", 4)
        assert rule.children(2) == (2, 1, DEAD, DEAD, 2)
        assert rule.children(1) == (2,)
        assert rule.children(DEAD) == ()

    def test_first_descent_children(self):
        rule = builtin_rule("122-213", 3)
        assert rule.children(4) == (4, 3, 3, 3)
        assert rule.children(3) == (4, 3, 3)
        assert rule.children(1) == (4,)

    def test_first_ascent_children(self):
        rule = builtin_rule("122-123", 3)
        assert rule.children(1) == (4,)
        assert rule.children(4) == (7, 4, 5, 6)

    def test_unknown_rule(self):
        with pytest.raises(Unsupported):
            builtin_rule("999")
        with pytest.raises(Unsupported):
            builtin_rule("112-122@m2", 3)
        with pytest.raises(Unsupported):
            builtin_rule("122-213", 1)

    def test_grammar_export_mentions_every_production(self):
        text = builtin_rule("211-213", 4).grammar
        assert text.splitlines()[0] == "root 1"
        assert "2 -> 2 1 N N 2" in text
        assert "N ->" in text
        assert "(r) -> (2) (3) ... (r) (r+1)" in builtin_rule("112-122@m2", 2).grammar


class TestCounting:
    def test_root_level(self):
        for name in RULE_PATTERN_PAIRS:
            m = 2
            assert count_at_height(builtin_rule(name, m), 0) == 1

    def test_catalan_heights(self):
        rule = builtin_rule("112-122@m2", 2)
        assert [count_at_height(rule, h) for h in range(7)] == \
            [1, 1, 2, 5, 14, 42, 132]

    def test_generalized_catalan_heights(self):
        rule = builtin_rule("122-123", 2)
        assert count_at_height(rule, 3) == 12
        for m in (2, 3, 4):
            rule = builtin_rule("122-123", m)
            for h in range(8):
                assert count_at_height(rule, h) == generalized_catalan(h, m)

    def test_recurrence_heights(self):
        assert count_at_height(builtin_rule("211-213", 2), 3) == 7
        for name, pair in (("211-213", ("211", "213")), ("122-213", ("122", "213"))):
            for m in (2, 3, 5):
                rule = builtin_rule(name, m)
                for h in range(1, 12):
                    assert count_at_height(rule, h) == recurrence_count(pair, h, m)

    def test_matches_oracle_on_small_grid(self):
        for name, pair in RULE_PATTERN_PAIRS.items():
            ps = PatternSet.of(*pair)
            for m in (2, 3):
                if name == "112-122@m2" and m != 2:
                    continue
                for n in range(0, 10 // m + 1):
                    assert count_at_height(builtin_rule(name, m), n) == \
                        count_avoiders(n, m, ps), (name, n, m)

    def test_tall_heights_stay_fast_and_exact(self):
        assert count_at_height(builtin_rule("112-122@m2", 2), 60) == catalan(60)
        assert count_at_height(builtin_rule("122-123", 5), 60) == \
            generalized_catalan(60, 5)

    def test_level_profile_multiplicities(self):
        # the dead-label tree at height 2 holds m+1 nodes: two 2s, one 1, m-2 Ns
        assert list(levels(builtin_rule("211-213", 5), 2)) == \
            [{1: 1}, {2: 1}, {2: 2, 1: 1, DEAD: 3}]

    def test_levels_totals_are_count_at_height(self):
        rule = builtin_rule("122-213", 3)
        assert [sum(p.values()) for p in levels(rule, 10)] == \
            [count_at_height(rule, h) for h in range(11)]
        with pytest.raises(ValueError):
            count_at_height(rule, -1)

    def test_dead_nodes_counted_but_childless(self):
        m = 4
        rule = builtin_rule("211-213", m)
        assert count_at_height(rule, 2) == m + 1
        assert count_at_height(rule, 3) == 2 * (m + 1) + 1


class TestRuleTable:
    def test_rule_for_serves_every_orbit_member(self):
        # each member of a rule's symmetry class gets the rule itself, and
        # an m the rule does not take is refused as builtin_rule refuses it
        for name, pair in RULE_PATTERN_PAIRS.items():
            for m in (2, 3, 4):
                try:
                    expected = [sum(p.values()) for p in levels(builtin_rule(name, m), 8)]
                except Unsupported as exc:
                    for member in symmetry_closure(pair).members:
                        with pytest.raises(Unsupported, match=re.escape(str(exc))):
                            rule_for(member, m)
                    continue
                for member in symmetry_closure(pair).members:
                    rule = rule_for(member, m)
                    assert rule.name == name, (member, m)
                    assert [sum(p.values()) for p in levels(rule, 8)] == expected

    def test_rule_for_refuses_a_pair_without_a_rule(self):
        with pytest.raises(Unsupported) as exc:
            rule_for(("123", "132"), 2)
        assert str(exc.value) == "no built-in succession rule covers 123,132"

    def test_label_statistics_cover_the_labelled_rules(self):
        assert LABEL_STATISTICS == {"112-122@m2": first_repetition,
                                    "122-123": first_ascent,
                                    "122-213": first_descent}


def _branches(rule, height):
    """Every root-to-height label sequence, expanded from rule.children."""
    branches = [(rule.root,)]
    for _ in range(height):
        branches = [b + (c,) for b in branches for c in rule.children(b[-1])]
    return branches


class TestBranches:
    def test_zero_height(self):
        for name in RULE_PATTERN_PAIRS:
            assert list(levels(builtin_rule(name, 2), 0)) == [{1: 1}]

    def test_figure_branch_present(self):
        assert (1, 4, 7, 7, 7) in _branches(builtin_rule("122-123", 3), 4)

    def test_branch_multiset_for_dead_rule(self):
        branches = _branches(builtin_rule("211-213", 2), 2)
        assert sorted(branches) == [(1, 2, 1), (1, 2, 2), (1, 2, 2)]

    def test_fast_step_matches_children(self):
        # the suffix-sum step against the generic expansion of the rule's
        # written children, level by level
        for name in ("112-122@m2", "122-123"):
            for m in (2, 3, 5):
                if name == "112-122@m2" and m != 2:
                    continue
                rule = builtin_rule(name, m)
                assert rule.fast_step is not None
                generic = rule._replace(fast_step=None)
                assert list(levels(rule, 8)) == list(levels(generic, 8)), (name, m)

    def test_children_order_matches_rule_text(self):
        rule = builtin_rule("122-123", 2)
        # children of 3 are written (5)(3)(4): top label first
        assert rule.children(1) == (3,)
        assert rule.children(3) == (5, 3, 4)
        assert _branches(rule, 2) == [(1, 3, 5), (1, 3, 3), (1, 3, 4)]


def test_unreachable_labels_fail_loudly():
    # label 0 (or anything outside the rule's alphabet) signals an engine
    # bug, not a leaf
    with pytest.raises(AssertionError):
        builtin_rule("211-213", 3).children(0)
    with pytest.raises(AssertionError):
        builtin_rule("122-213", 3).children(2)
    with pytest.raises(AssertionError):
        builtin_rule("112-122@m2", 2).children(0)
