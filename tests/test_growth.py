import math

import pytest
from hypothesis import given, settings, strategies as st

from msetperm.core import PatternSet
from msetperm.enumeration import count_avoiders
from msetperm.errors import BudgetExceeded
from msetperm.formulas import generalized_catalan, stirling_count
from msetperm.growth import (
    growth_table,
    word_counterexample_probe,
    word_counts_by_length,
)

from reference import naive_word_count


class TestWordProbe:
    def test_single_letter_alphabet(self):
        for length in (1, 3, 7):
            assert word_counterexample_probe(length, 1) == 1

    def test_small_example(self):
        assert word_counterexample_probe(2, 3) == 6

    def test_exceeds_power_bound(self):
        count = word_counterexample_probe(3, 10)
        assert count == math.comb(12, 3) == 220
        assert count > (10 / 3) ** 3

    def test_matches_binomial_on_grid(self):
        for n in range(1, 9):
            counts = word_counts_by_length(n, 8, PatternSet.of("12"))
            for length in range(0, 9):
                assert counts[length] == math.comb(n + length - 1, length)

    def test_word_count_matches_reference(self):
        for pats in (("12",), ("123",), ("212",), ("112", "221")):
            ps = PatternSet.of(*pats)
            raw = [tuple(int(c) for c in p) for p in pats]
            for n, length in ((2, 4), (3, 3), (4, 2)):
                assert word_counts_by_length(n, length, ps)[length] == \
                    naive_word_count(n, length, raw), (pats, n, length)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            word_counts_by_length(3, 25, PatternSet.of("12"))

    def test_words_need_not_use_every_letter(self):
        # 11 and 22 are forbidden, yet 12 and 21 are words of length 2: a
        # prefix is not dead because some letter can no longer follow it
        assert word_counts_by_length(2, 2, PatternSet.of("11")) == [1, 2, 2]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=1, max_value=4),
                             min_size=1, max_size=4), min_size=1, max_size=3),
           st.sampled_from([(n, length) for n in range(0, 5) for length in range(0, 6)
                            if n ** length <= 256]))
    def test_word_counts_match_naive_reference(self, specs, cell):
        # patterns of length 1 to 4; length 4 takes the direct containment check
        n, max_length = cell
        ps = PatternSet.of(*specs)
        raw = [p.letters for p in ps]
        assert word_counts_by_length(n, max_length, ps) == \
            [naive_word_count(n, length, raw) for length in range(max_length + 1)]


def _avoiders_of_212(n, m):
    return count_avoiders(n, m, PatternSet.of("212"))


class TestStirlingIdentity:
    def test_examples(self):
        assert _avoiders_of_212(2, 2) == stirling_count(2, 2) == 3
        assert stirling_count(1, 5) == 1
        assert _avoiders_of_212(3, 2) == stirling_count(3, 2) == 15

    def test_grid(self):
        for n, m in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)):
            assert _avoiders_of_212(n, m) == stirling_count(n, m)


class TestGrowthTable:
    def test_super_exponential_family(self):
        rows = growth_table(PatternSet.of("212"), [(n, 2) for n in range(2, 6)])
        ratios = [r.ratio for r in rows]
        assert ratios == sorted(ratios) and ratios[0] < ratios[-1]
        assert [r.count for r in rows] == [3, 15, 105, 945]

    def test_formula_backed_family(self):
        rows = growth_table(PatternSet.of("122", "123"),
                            [(n, 3) for n in range(1, 5)])
        assert [r.count for r in rows] == \
            [generalized_catalan(n, 3) for n in range(1, 5)]

    def test_catalan_family_ratio_bounded(self):
        rows = growth_table(PatternSet.of("122", "123"),
                            [(n, 1) for n in range(1, 11)])
        assert all(r.ratio < 4.0 for r in rows)

    def test_single_ordinary_pattern_ratio_stays_bounded(self):
        # weak empirical probe: one ordinary forbidden pattern keeps the
        # count exponential in the length, so the ratio column plateaus
        for pat in ("123", "132", "321"):
            rows = growth_table(PatternSet.of(pat), [(n, 2) for n in range(1, 6)])
            assert all(r.ratio < 3.0 for r in rows), pat

    def test_unrestricted_ratio(self):
        rows = growth_table(PatternSet(()), [(3, 2)])
        count = math.factorial(6) // 8
        assert rows[0].count == count
        assert rows[0].ratio == pytest.approx(count ** (1 / 6))

    def test_zero_count_percolates(self):
        rows = growth_table(PatternSet.of("122", "211"), [(3, 2)])
        assert rows[0].count == 0 and rows[0].ratio == 0.0

    @pytest.mark.parametrize("pair,counts", [
        (("212", "132"), [1, 3, 10, 37, 146]),  # quoted row: 1, 3, 12, 55, 273
        (("111", "123"), [1, 6, 43, 352]),      # quoted row: catalan(n)
    ])
    def test_unproved_rows_are_counted_by_the_oracle(self, pair, counts):
        rows = growth_table(PatternSet.of(*pair),
                            [(n, 2) for n in range(1, len(counts) + 1)])
        assert [r.count for r in rows] == counts
